package experiments

// Shape tests: each experiment must reproduce the paper's qualitative
// findings — who wins, by roughly what factor, and where crossovers fall —
// not its absolute milliseconds (our substrate is a simulator, not the
// authors' testbed). EXPERIMENTS.md records the quantitative comparison.

import "testing"

func quickFig(t *testing.T, f func(Options) (*Figure, error)) *Figure {
	t.Helper()
	fig, err := f(Quick())
	if err != nil {
		t.Fatalf("experiment failed: %v", err)
	}
	return fig
}

// Fig 8a: with all bits device resident, A&R beats the classic selection at
// every selectivity, and the approximate phase alone is far cheaper still.
func TestFig8aARWinsEverywhere(t *testing.T) {
	fig := quickFig(t, Fig8a)
	monet := fig.seriesY("MonetDB")
	arY := fig.seriesY("Approximate+Refine")
	apx := fig.seriesY("Approximate")
	for i := range monet {
		if arY[i] >= monet[i] {
			t.Errorf("sel %.0f%%: A&R (%.1fms) not faster than MonetDB (%.1fms)",
				fig.Series[0].X[i], arY[i], monet[i])
		}
		if apx[i] > arY[i] {
			t.Errorf("sel %.0f%%: approximate phase (%.1f) exceeds total (%.1f)", fig.Series[0].X[i], apx[i], arY[i])
		}
	}
	// The paper's approximate line is flat: compute-bound packed scans.
	if apx[len(apx)-1] > 2*apx[0] {
		t.Errorf("approximate line not flat: %.1f -> %.1f", apx[0], apx[len(apx)-1])
	}
}

// Fig 8b: with 8 residual bits on the CPU, refinement costs defeat the
// benefits above roughly 60% selectivity (§VI-B) — there is a crossover,
// and it falls in the upper half of the sweep.
func TestFig8bCrossover(t *testing.T) {
	fig := quickFig(t, Fig8b)
	monet := fig.seriesY("MonetDB")
	arY := fig.seriesY("Approximate+Refine")
	x := fig.Series[0].X
	if arY[0] >= monet[0] {
		t.Fatalf("A&R must win at 1%% selectivity: %.1f vs %.1f", arY[0], monet[0])
	}
	last := len(x) - 1
	if arY[last] <= monet[last] {
		t.Fatalf("refinement costs must defeat A&R at 100%%: %.1f vs %.1f", arY[last], monet[last])
	}
	var crossover float64
	for i := 1; i < len(x); i++ {
		if arY[i] >= monet[i] {
			crossover = x[i]
			break
		}
	}
	if crossover < 20 || crossover > 100 {
		t.Errorf("crossover at %.0f%%, paper reports ~60%%", crossover)
	}
}

// Fig 8c: every A&R curve improves (or at least does not degrade) as more
// bits move to the device, and at a fixed bit count higher selectivities
// cost more.
func TestFig8cMoreBitsNeverHurt(t *testing.T) {
	fig := quickFig(t, Fig8c)
	for _, s := range fig.Series {
		if s.Label == "Stream (Hypothetical)" {
			continue
		}
		first, last := s.Y[0], s.Y[len(s.Y)-1]
		if last > first*1.25 {
			t.Errorf("%s degrades with more device bits: %.1f -> %.1f", s.Label, first, last)
		}
	}
	ar5 := fig.seriesY("Approx+Refine (5%)")
	ar001 := fig.seriesY("Approx+Refine (0.01%)")
	for i := range ar5 {
		if ar5[i] < ar001[i] {
			t.Errorf("bit %d: 5%% selectivity (%.1f) cheaper than 0.01%% (%.1f)", i, ar5[i], ar001[i])
		}
	}
}

// Fig 8d: the A&R projection consistently outperforms the classic
// projection, though less so at higher selectivities (§VI-B).
func TestFig8dProjectionWins(t *testing.T) {
	fig := quickFig(t, Fig8d)
	monet := fig.seriesY("MonetDB")
	arY := fig.seriesY("Approximate+Refine")
	for i := range monet {
		if arY[i] >= monet[i] {
			t.Errorf("sel %.0f%%: A&R projection (%.1f) not faster than MonetDB (%.1f)",
				fig.Series[0].X[i], arY[i], monet[i])
		}
	}
	firstRatio := monet[0] / arY[0]
	lastRatio := monet[len(monet)-1] / arY[len(arY)-1]
	if lastRatio >= firstRatio {
		t.Errorf("advantage should shrink with selectivity: ratio %.1f -> %.1f", firstRatio, lastRatio)
	}
}

// Fig 8e: the distributed projection still wins where refinement
// amortizes; at the very lowest selectivities both are gather-bound and
// nearly tie (a documented deviation: the paper's chart keeps A&R ahead
// throughout).
func TestFig8eDistributedProjection(t *testing.T) {
	fig := quickFig(t, Fig8e)
	monet := fig.seriesY("MonetDB")
	arY := fig.seriesY("Approximate+Refine")
	for i := range monet {
		sel := fig.Series[0].X[i]
		limit := monet[i]
		if sel < 5 {
			limit *= 1.15 // near-ties tolerated below 5% selectivity
		}
		if arY[i] >= limit {
			t.Errorf("sel %.0f%%: distributed A&R projection (%.1f) not competitive with MonetDB (%.1f)",
				sel, arY[i], monet[i])
		}
	}
	// And it must cost more than the resident case at full selectivity.
	resident := quickFig(t, Fig8d)
	rl := len(resident.seriesY("Approximate+Refine")) - 1
	if arY[len(arY)-1] <= resident.seriesY("Approximate+Refine")[rl] {
		t.Error("distributed projection should pay more refinement than resident")
	}
}

// Fig 8f: A&R grouping beats the classic grouping and improves with group
// count (fewer write conflicts).
func TestFig8fGroupingShape(t *testing.T) {
	fig := quickFig(t, Fig8f)
	monet := fig.seriesY("MonetDB")
	arY := fig.seriesY("Approximate+Refine")
	for i := range monet {
		if arY[i] >= monet[i] {
			t.Errorf("groups %.0f: A&R (%.1f) not faster than MonetDB (%.1f)",
				fig.Series[0].X[i], arY[i], monet[i])
		}
	}
	if arY[len(arY)-1] >= arY[0] {
		t.Errorf("A&R grouping must improve with group count: %.1f -> %.1f", arY[0], arY[len(arY)-1])
	}
	if arY[0]/arY[len(arY)-1] < 1.5 {
		t.Errorf("conflict effect too weak: %.1f -> %.1f", arY[0], arY[len(arY)-1])
	}
}

// Table I: the spatial decomposition compresses by roughly a quarter and
// the query finds matches.
func TestTable1Shape(t *testing.T) {
	tb, err := Table1(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if tb.Compression < 0.20 || tb.Compression > 0.35 {
		t.Errorf("compression %.2f, paper reports ~0.25", tb.Compression)
	}
	if tb.CountResult <= 0 {
		t.Error("Table I query found nothing")
	}
	if tb.CPUBytes != 0 {
		t.Errorf("Table I decomposition should be fully device resident, CPU holds %d bytes", tb.CPUBytes)
	}
	if tb.Render() == "" {
		t.Error("empty render")
	}
}

// Fig 9: A&R beats both the CPU-only engine (paper: 3.4x) and the
// streaming baseline (paper: 3.2x), with the GPU dominating its time
// (paper: ~80%).
func TestFig9Shape(t *testing.T) {
	fig := quickFig(t, Fig9)
	arB := fig.bar("A & R")
	monet := fig.bar("MonetDB")
	stream := fig.bar("Stream (Hypothetical)")
	if arB == nil || monet == nil || stream == nil {
		t.Fatal("missing bars")
	}
	ratioCPU := monet.Total / arB.Total
	if ratioCPU < 2 || ratioCPU > 12 {
		t.Errorf("A&R vs MonetDB ratio %.1fx, paper reports 3.4x", ratioCPU)
	}
	if stream.Total/arB.Total < 2 {
		t.Errorf("A&R vs stream ratio %.1fx, paper reports 3.2x", stream.Total/arB.Total)
	}
	// Streaming is nearly as expensive as CPU evaluation (the paper's
	// headline PCI-E observation).
	if stream.Total < monet.Total*0.5 || stream.Total > monet.Total*1.5 {
		t.Errorf("stream (%.3fs) should be comparable to CPU (%.3fs)", stream.Total, monet.Total)
	}
	if arB.GPU/arB.Total < 0.6 {
		t.Errorf("GPU fraction %.0f%%, paper reports ~80%%", 100*arB.GPU/arB.Total)
	}
}

// Fig 10a: Q1's sums of products are destructively distributive, capping
// the speed-up around 3x; streaming the (small) input is faster than
// A&R processing for this query (§VI-D2).
func TestFig10aShape(t *testing.T) {
	fig := quickFig(t, Fig10a)
	arB := fig.bar("A & R")
	sc := fig.bar("A & R Space Constraint")
	monet := fig.bar("MonetDB")
	stream := fig.bar("Stream (Hypothetical)")
	if monet.Total/arB.Total < 1.5 || monet.Total/arB.Total > 8 {
		t.Errorf("Q1 speed-up %.1fx, paper reports ~2.6x", monet.Total/arB.Total)
	}
	if !(arB.Total < sc.Total && sc.Total < monet.Total) {
		t.Errorf("expected A&R < space-constrained < MonetDB, got %.2f / %.2f / %.2f",
			arB.Total, sc.Total, monet.Total)
	}
	if stream.Total >= arB.Total {
		t.Error("for Q1 the paper finds streaming faster than A&R processing")
	}
	// Destructive distributivity: a large share of A&R's time is CPU work.
	if arB.CPU/arB.Total < 0.25 {
		t.Errorf("Q1 A&R CPU share %.0f%%; sums of products must run on the CPU", 100*arB.CPU/arB.Total)
	}
}

// Fig 10b: Q6 sees the largest gain (paper: >6x vs CPU); decomposing
// l_shipdate costs noticeably (paper: ~35% fewer queries/s -> ~2x time).
func TestFig10bShape(t *testing.T) {
	fig := quickFig(t, Fig10b)
	arB := fig.bar("A & R")
	sc := fig.bar("A & R Space Constraint")
	monet := fig.bar("MonetDB")
	if monet.Total/arB.Total < 6 {
		t.Errorf("Q6 speed-up %.1fx, paper reports >6x (14x vs resident)", monet.Total/arB.Total)
	}
	if sc.Total <= arB.Total {
		t.Error("space-constrained Q6 must cost more than fully resident")
	}
	if sc.Total/arB.Total > 5 {
		t.Errorf("space-constrained penalty %.1fx too extreme, paper ~2x", sc.Total/arB.Total)
	}
}

// Fig 10c: Q14 keeps a clear A&R advantage through the FK join.
func TestFig10cShape(t *testing.T) {
	fig := quickFig(t, Fig10c)
	arB := fig.bar("A & R")
	sc := fig.bar("A & R Space Constraint")
	monet := fig.bar("MonetDB")
	if monet.Total/arB.Total < 2 || monet.Total/arB.Total > 15 {
		t.Errorf("Q14 speed-up %.1fx, paper reports ~5x", monet.Total/arB.Total)
	}
	if !(arB.Total < sc.Total && sc.Total < monet.Total) {
		t.Errorf("expected A&R < space-constrained < MonetDB, got %.2f / %.2f / %.2f",
			arB.Total, sc.Total, monet.Total)
	}
}

// Fig 11: the CPU stream hits the memory wall (saturation between 8 and 32
// threads); the A&R stream stacks nearly additively on top (paper:
// 12.6 + 13.4 = 26.0 q/s).
func TestFig11Shape(t *testing.T) {
	fig := quickFig(t, Fig11)
	classic := fig.Series[0].Y
	// Monotone non-decreasing, then flat: the wall.
	for i := 1; i < len(classic); i++ {
		if classic[i] < classic[i-1]*0.99 {
			t.Errorf("classic throughput dropped at %d threads", i)
		}
	}
	if classic[len(classic)-1] > classic[len(classic)-2]*1.05 {
		t.Error("no memory wall: 32 threads still scaling over 16")
	}
	if classic[len(classic)-1] < classic[0]*3 {
		t.Error("memory wall too low: parallel scaling under 3x")
	}
	cpuOnly := fig.bar("CPU only (32 threads)").Total
	cpuWith := fig.bar("CPU parallel w/ A&R").Total
	arOnly := fig.bar("A&R only").Total
	cum := fig.bar("Cumulative").Total
	if cpuWith > cpuOnly {
		t.Error("A&R stream cannot increase classic throughput")
	}
	if cpuWith < cpuOnly*0.7 {
		t.Errorf("A&R stream steals too much CPU: %.1f -> %.1f q/s", cpuOnly, cpuWith)
	}
	// "GPU operations have little impact on the CPU stream: the two can be
	// combined to achieve additive performance."
	if cum < (cpuOnly+arOnly)*0.8 {
		t.Errorf("cumulative %.1f q/s not nearly additive (%.1f + %.1f)", cum, cpuOnly, arOnly)
	}
}

// Fig 1 is static background data; sanity-check the trade-off direction.
func TestFig1TradeOff(t *testing.T) {
	fig := Fig1()
	for _, s := range fig.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] >= s.Y[i-1] {
				t.Errorf("%s: bandwidth must fall with capacity", s.Label)
			}
		}
	}
	if fig.Render() == "" {
		t.Error("empty render")
	}
}

func TestRenderSeriesFigure(t *testing.T) {
	fig := quickFig(t, Fig8a)
	out := fig.Render()
	if out == "" {
		t.Fatal("empty render")
	}
}

func TestDefaultsAndQuick(t *testing.T) {
	d, q := Defaults(), Quick()
	if d.MicroN <= q.MicroN {
		t.Error("Defaults should execute more rows than Quick")
	}
	if q.TPCHSF <= 0 || d.TPCHSF <= 0 {
		t.Error("non-positive scale factors")
	}
}

func TestIngestAmortization(t *testing.T) {
	fig, err := Ingest(Quick())
	if err != nil {
		t.Fatal(err)
	}
	inc := fig.seriesY("incremental merge")
	full := fig.seriesY("full re-decomposition")
	if len(inc) == 0 || len(inc) != len(full) {
		t.Fatalf("series lengths %d/%d", len(inc), len(full))
	}
	last := len(inc) - 1
	if full[last] <= 0 {
		t.Fatal("no merge traffic recorded")
	}
	if inc[last] >= full[last] {
		t.Fatalf("incremental maintenance shipped %.2f MB, full re-decomposition %.2f MB — no amortization",
			inc[last], full[last])
	}
	// Cumulative series must be non-decreasing.
	for i := 1; i < len(inc); i++ {
		if inc[i] < inc[i-1] || full[i] < full[i-1] {
			t.Fatalf("cumulative traffic decreased at point %d", i)
		}
	}
}

// Partition: the experiment itself asserts byte-identical results vs the
// unpartitioned baseline at every count (it errors otherwise, which
// quickFig turns into a failure); the shape checks here pin the scaling
// story — the per-stream share falls ~1/N while the aggregate stays
// near-flat, and classic scatter does not drift with the count.
func TestPartitionShape(t *testing.T) {
	fig := quickFig(t, Partition)
	agg := fig.seriesY("A&R aggregate device time")
	share := fig.seriesY("A&R per-stream share")
	classic := fig.seriesY("Classic aggregate")
	if len(agg) != len(PartitionSweep) || len(share) != len(agg) || len(classic) != len(agg) {
		t.Fatalf("series lengths %d/%d/%d, want %d", len(agg), len(share), len(classic), len(PartitionSweep))
	}
	for i, n := range PartitionSweep {
		// The share is exactly aggregate/N: the ideal makespan on N streams.
		if want := agg[i] / float64(n); share[i] < want*0.999 || share[i] > want*1.001 {
			t.Errorf("parts=%d: per-stream share %.3f, want %.3f", n, share[i], want)
		}
		// Scan work is conserved: the aggregate stays within 2x of the
		// single-partition scatter in both directions.
		if agg[i] > agg[0]*2 || agg[i] < agg[0]/2 {
			t.Errorf("parts=%d: aggregate %.3fms drifted past 2x of parts=1 (%.3fms)", n, agg[i], agg[0])
		}
		// Classic scatter scans every tuple exactly once regardless of the
		// split; only per-partition launch overhead may move it.
		if classic[i] > classic[0]*1.1 || classic[i] < classic[0]*0.9 {
			t.Errorf("parts=%d: classic %.3fms drifted from parts=1 (%.3fms)", n, classic[i], classic[0])
		}
	}
	last := len(PartitionSweep) - 1
	if share[last] > share[0]/float64(PartitionSweep[last])*1.5 {
		t.Errorf("per-stream share at %d partitions (%.3fms) is not ~1/N of one stream (%.3fms)",
			PartitionSweep[last], share[last], share[0])
	}
	if fig.bar("A&R 8 partition(s)") == nil {
		t.Fatal("missing per-count device-split bar")
	}
}

// seriesY finds a series by label.
func (f *Figure) seriesY(label string) []float64 {
	for _, s := range f.Series {
		if s.Label == label {
			return s.Y
		}
	}
	return nil
}

// bar finds a bar by label.
func (f *Figure) bar(label string) *Bar {
	for i := range f.Bars {
		if f.Bars[i].Label == label {
			return &f.Bars[i]
		}
	}
	return nil
}
