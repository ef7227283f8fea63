package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/bat"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/plan"
)

// Ingest measures the write path of the mutable column store: a stream of
// INSERT batches lands in a table's delta segment while A&R range counts
// keep running, and periodic merges compact the delta into the bit-sliced
// base segment. The figure charts the cumulative PCI-E traffic the merges
// actually charge (incremental maintenance: with unchanged decomposition
// parameters only the merged rows' approximation codes ship) against the
// traffic a full re-decomposition after every merge would cost — the
// paper's "waste not" economics applied to writes. A&R query latencies
// before and after compaction are attached as notes, along with the final
// amortization ratio.
func Ingest(opts Options) (*Figure, error) {
	n := opts.MicroN
	if n <= 0 {
		n = Quick().MicroN
	}
	const domain = 1 << 16
	sys := device.PaperSystem()
	c := plan.NewCatalog(sys)
	rng := rand.New(rand.NewSource(opts.Seed))
	tbl := plan.NewTable("stream")
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(domain))
	}
	// Pin the domain ends so in-range inserts keep the decomposition
	// parameters stable across merges (the incremental case).
	vals[0], vals[1] = 0, domain-1
	if err := tbl.AddColumn("v", bat.NewDense(vals, bat.Width32)); err != nil {
		return nil, err
	}
	if err := c.AddTable(tbl); err != nil {
		return nil, err
	}
	if _, err := c.Decompose("stream", "v", 10); err != nil {
		return nil, err
	}

	eng := engine.New(c, engine.Options{MergeThreshold: -1, Threads: opts.Threads})
	sess := eng.SessionFor(engine.ModeAR)
	defer sess.Close()
	ctx := context.Background()
	q := plan.Query{
		Table:   "stream",
		Filters: []plan.Filter{{Col: "v", Lo: 64, Hi: domain / 8}},
		Aggs:    []plan.AggSpec{{Name: "n", Func: plan.Count}},
	}
	queryMS := func() (float64, error) {
		res, err := sess.QueryPlan(ctx, q)
		if err != nil {
			return 0, err
		}
		return res.Meter.Total().Seconds() * 1e3, nil
	}
	baseMS, err := queryMS()
	if err != nil {
		return nil, err
	}

	const batches = 10
	batch := n / 20
	fig := &Figure{
		ID:     "ingest",
		Title:  "Incremental BWD maintenance under an insert stream",
		XLabel: "rows ingested",
		YLabel: "cumulative PCI-E MB",
		Series: []Series{
			{Label: "incremental merge"},
			{Label: "full re-decomposition"},
		},
	}
	var peakDeltaMS float64
	rows := make([][]int64, batch)
	for b := 0; b < batches; b++ {
		for i := range rows {
			rows[i] = []int64{int64(rng.Intn(domain))}
		}
		if _, err := c.InsertRows(nil, "stream", rows); err != nil {
			return nil, err
		}
		if ms, err := queryMS(); err != nil {
			return nil, err
		} else if ms > peakDeltaMS {
			peakDeltaMS = ms
		}
		// Merge every other batch, like a threshold of two batches.
		if b%2 == 1 {
			m := device.NewMeter(sys)
			if _, err := c.MergeTable(m, "stream", false); err != nil {
				return nil, err
			}
		}
		st, err := c.Table("stream")
		if err != nil {
			return nil, err
		}
		stats := st.Stats()
		x := float64((b + 1) * batch)
		fig.Series[0].add(x, float64(stats.MergeShippedBytes)/1e6)
		fig.Series[1].add(x, float64(stats.MergeFullBytes)/1e6)
	}
	finalMS, err := queryMS()
	if err != nil {
		return nil, err
	}
	st, _ := c.Table("stream")
	stats := st.Stats()
	frac := 0.0
	if stats.MergeFullBytes > 0 {
		frac = float64(stats.MergeShippedBytes) / float64(stats.MergeFullBytes)
	}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("A&R range count: %.3f ms on the clean base, %.3f ms at peak delta, %.3f ms after the final merge", baseMS, peakDeltaMS, finalMS),
		fmt.Sprintf("merges shipped %.2f MB over the bus; full re-decomposition would ship %.2f MB (amortization %.1f%%)",
			float64(stats.MergeShippedBytes)/1e6, float64(stats.MergeFullBytes)/1e6, 100*frac),
		"no paper reference: the write path extends the reproduction beyond the paper's read-only setting",
	)
	return fig, nil
}
