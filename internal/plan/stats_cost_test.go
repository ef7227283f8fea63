package plan

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/device"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/store"
)

// TestStatsZipfEstimateBound is the estimation property test: on heavily
// skewed (Zipf) data, across a random interleaving of inserts, deletes and
// merges, the planner's candidate-set estimate must stay within the
// histogram's provable error bound of the actual candidate count. The
// bound is exact arithmetic, not a tuned factor: pro-rating can only err
// inside the two partially-overlapped boundary buckets, deletions since
// the last merge inflate the histogram mass by at most the deleted count,
// and delta rows (invisible to the histogram) add at most DeltaLen.
func TestStatsZipfEstimateBound(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed * 101))
			zipf := rand.NewZipf(rng, 1.2, 1.0, 1<<14-1)
			c := NewCatalog(device.PaperSystem())
			defs := []store.ColumnDef{
				{Name: "v", Scale: 1, Width: bat.Width32},
				{Name: "w", Scale: 1, Width: bat.Width32},
			}
			if _, err := c.CreateTable("zt", defs); err != nil {
				t.Fatal(err)
			}
			row := func() []int64 { return []int64{int64(zipf.Uint64()), int64(rng.Intn(4096))} }
			rows := make([][]int64, 3000)
			for i := range rows {
				rows[i] = row()
			}
			if _, err := c.InsertRows(nil, "zt", rows); err != nil {
				t.Fatal(err)
			}
			// 10 approximation bits over a 2^14 domain: >8 bits forces the
			// histogram to coarsen codes into buckets, exercising pro-rating.
			if _, err := c.Decompose("zt", "v", 10); err != nil {
				t.Fatal(err)
			}

			check := func(step int) {
				tbl, err := c.Table("zt")
				if err != nil {
					t.Fatal(err)
				}
				snap := tbl.Snapshot()
				h := stats.FromColumn(snap.Dec("v"))
				if h == nil {
					t.Fatalf("step %d: decomposed column has no histogram", step)
				}
				for k := 0; k < 6; k++ {
					lo := int64(rng.Intn(1 << 14))
					q := Query{
						Table:   "zt",
						Filters: []Filter{{Col: "v", Lo: lo, Hi: lo + int64(rng.Intn(1<<13))}},
						Aggs:    []AggSpec{{Name: "n", Func: Count}},
					}
					res, err := c.ExecAR(context.Background(), q, ExecOpts{Threads: 1, Trace: true})
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					tr := res.Trace
					if tr.EstCandidates < 0 {
						t.Fatalf("step %d: no candidate estimate for a decomposed filter column", step)
					}
					bound := int64(2) + int64(snap.DeltaLen()) + int64(snap.DeletedCount())
					r := snap.Dec("v").Relax(q.Filters[0].Lo, q.Filters[0].Hi)
					if !r.Empty && !r.Full {
						bLo, bHi := r.Lo>>h.Shift, r.Hi>>h.Shift
						bound += h.Counts[bLo]
						if bHi != bLo {
							bound += h.Counts[bHi]
						}
					}
					diff := tr.EstCandidates - tr.Candidates
					if diff < 0 {
						diff = -diff
					}
					if diff > bound {
						t.Fatalf("step %d query [%d,%d]: est %d vs actual %d exceeds bound %d (delta %d, deleted %d)",
							step, q.Filters[0].Lo, q.Filters[0].Hi, tr.EstCandidates, tr.Candidates, bound,
							snap.DeltaLen(), snap.DeletedCount())
					}
				}
			}

			check(0)
			for step := 1; step <= 8; step++ {
				switch op := rng.Intn(10); {
				case op < 5:
					batch := make([][]int64, 1+rng.Intn(60))
					for i := range batch {
						batch[i] = row()
					}
					if _, err := c.InsertRows(nil, "zt", batch); err != nil {
						t.Fatal(err)
					}
				case op < 8:
					lo := int64(rng.Intn(1 << 14))
					if _, err := c.DeleteRows(nil, "zt", []Filter{{Col: "v", Lo: lo, Hi: lo + int64(rng.Intn(512))}}); err != nil {
						t.Fatal(err)
					}
				default:
					if _, err := c.MergeTable(nil, "zt", false); err != nil {
						t.Fatal(err)
					}
				}
				check(step)
			}
		})
	}
}

// TestCostModeMatchesForcedModes proves the cost-based mode choice can
// never change result bytes: for a query mix over plain and
// range-partitioned tables, the executor the model picks returns rows
// byte-identical to BOTH forced modes.
func TestCostModeMatchesForcedModes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	base := make([][]int64, 2500)
	for i := range base {
		base[i] = partPropRow(rng)
	}
	plain := partPropCatalog(t, 0, shard.Hash, base)
	parted := partPropCatalog(t, 5, shard.Range, base)
	serial := ExecOpts{Threads: 1, Workers: 1}
	picksAR, picksClassic := 0, 0
	for round := 0; round < 4; round++ {
		for qi, q := range propQueries(rng) {
			for _, c := range []*Catalog{plain, parted} {
				forcedAR, err := c.ExecAR(context.Background(), q, serial)
				if err != nil {
					t.Fatalf("round %d query %d AR: %v", round, qi, err)
				}
				forcedCl, err := c.ExecClassic(context.Background(), q, serial)
				if err != nil {
					t.Fatalf("round %d query %d classic: %v", round, qi, err)
				}
				if !EqualResults(forcedAR.Rows, forcedCl.Rows) {
					t.Fatalf("round %d query %d: forced modes disagree", round, qi)
				}
				pl, err := c.Plan(q, ModeAuto)
				if err != nil {
					t.Fatalf("round %d query %d plan: %v", round, qi, err)
				}
				x, err := c.Pin(pl)
				if err != nil {
					t.Fatalf("round %d query %d pin: %v", round, qi, err)
				}
				choice := x.Choice()
				if choice.Reason() == "" {
					t.Fatalf("round %d query %d: empty mode-choice reason", round, qi)
				}
				if choice.Classic {
					picksClassic++
				} else {
					picksAR++
				}
				chosen, err := c.Run(context.Background(), x, serial)
				if err != nil {
					t.Fatalf("round %d query %d chosen %s: %v", round, qi, choice, err)
				}
				if !EqualResults(chosen.Rows, forcedAR.Rows) {
					t.Fatalf("round %d query %d: cost-chosen %s rows %v != forced %v",
						round, qi, choice, chosen.Rows, forcedAR.Rows)
				}
			}
		}
	}
	if picksAR == 0 {
		t.Error("cost model never picked a&r across the query mix")
	}
}

// TestCostWideGroupKeyShipsCandidates: the ship estimate asks the predicate
// the scan asks. A grouping key too wide for the device grouping table
// (8+24+24+24 bits) is priced at the whole candidate set crossing the bus,
// one that fits (8+24+24+8) at per-group partials — same table, same
// low-cardinality leading column, same number of projected columns, so
// only the ship term differs.
func TestCostWideGroupKeyShipsCandidates(t *testing.T) {
	c := NewCatalog(device.PaperSystem())
	names := []string{"e", "a", "b", "d", "f"}
	bits := []uint{8, 24, 24, 24, 8}
	defs := make([]store.ColumnDef, len(names))
	for k, name := range names {
		defs[k] = store.ColumnDef{Name: name, Scale: 1, Width: bat.Width32}
	}
	if _, err := c.CreateTable("w", defs); err != nil {
		t.Fatal(err)
	}
	rows := make([][]int64, 600)
	for i := range rows {
		rows[i] = make([]int64, len(names))
		for k := range names {
			rows[i][k] = int64(i%(k+3)) << (bits[k] - 2)
		}
	}
	if _, err := c.InsertRows(nil, "w", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MergeTable(nil, "w", false); err != nil {
		t.Fatal(err)
	}
	for k, name := range names {
		if _, err := c.Decompose("w", name, bits[k]); err != nil {
			t.Fatal(err)
		}
	}
	arSec := func(groupBy ...string) float64 {
		t.Helper()
		pl, err := c.Plan(Query{Table: "w", GroupBy: groupBy, Aggs: []AggSpec{{Name: "n", Func: Count}}}, ModeAuto)
		if err != nil {
			t.Fatal(err)
		}
		x, err := c.Pin(pl)
		if err != nil {
			t.Fatal(err)
		}
		return x.Choice().figures[2].(float64)
	}
	if wide, fits := arSec("e", "a", "b", "d"), arSec("e", "a", "b", "f"); wide <= fits {
		t.Errorf("a&r estimate for an 80-bit key %.3gs, for a 64-bit key %.3gs: the wide key must pay for shipping every candidate", wide, fits)
	}
}

// TestCostPartitionPruning is the pruning property test: a
// range-partitioned scan with filters on the partitioning column returns
// rows byte-identical to the unpartitioned oracle while the planner counts
// the skipped partitions. An all-excluding filter still executes (one leg
// survives) and returns the same empty result as the oracle.
func TestCostPartitionPruning(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	base := make([][]int64, 2000)
	for i := range base {
		base[i] = partPropRow(rng)
	}
	plain := partPropCatalog(t, 0, shard.Hash, base)
	parted := partPropCatalog(t, 6, shard.Range, base)
	serial := ExecOpts{Threads: 1, Workers: 1}

	// All data values (0..4095) land in one slab of the 6-way split of the
	// signed 64-bit domain, so a narrow filter keeps exactly one partition.
	q := Query{
		Table:   "fact",
		Filters: []Filter{{Col: "v", Lo: 100, Hi: 900}},
		Aggs:    []AggSpec{{Name: "n", Func: Count}, {Name: "s", Func: Sum, Expr: Col("w")}},
	}
	before := parted.PlannerStats().PartitionsPruned
	want, err := plain.ExecAR(context.Background(), q, serial)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parted.ExecAR(context.Background(), q, serial)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualResults(got.Rows, want.Rows) {
		t.Fatalf("pruned scatter rows %v != oracle %v", got.Rows, want.Rows)
	}
	if d := parted.PlannerStats().PartitionsPruned - before; d != 5 {
		t.Fatalf("PartitionsPruned advanced by %d, want 5 (one surviving leg of 6)", d)
	}
	gotCl, err := parted.ExecClassic(context.Background(), q, serial)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualResults(gotCl.Rows, want.Rows) {
		t.Fatalf("pruned classic scatter rows %v != oracle %v", gotCl.Rows, want.Rows)
	}

	// Random ranges: pruned or not, rows must match the oracle exactly.
	for k := 0; k < 12; k++ {
		lo := int64(rng.Intn(8192)) - 2048
		qk := Query{
			Table:   "fact",
			Filters: []Filter{{Col: "v", Lo: lo, Hi: lo + int64(rng.Intn(4096))}},
			GroupBy: []string{"g"},
			Aggs:    []AggSpec{{Name: "n", Func: Count}, {Name: "s", Func: Sum, Expr: Col("w")}},
		}
		want, err := plain.ExecAR(context.Background(), qk, serial)
		if err != nil {
			t.Fatal(err)
		}
		for _, exec := range []func(context.Context, Query, ExecOpts) (*Result, error){parted.ExecAR, parted.ExecClassic} {
			got, err := exec(context.Background(), qk, serial)
			if err != nil {
				t.Fatalf("query %d: %v", k, err)
			}
			if !EqualResults(got.Rows, want.Rows) {
				t.Fatalf("query %d [%d,%d]: pruned scatter %v != oracle %v", k, qk.Filters[0].Lo, qk.Filters[0].Hi, got.Rows, want.Rows)
			}
		}
	}

	// A filter excluding every slab holding data: one leg survives, the
	// result is the oracle's (empty) result.
	qe := Query{
		Table:   "fact",
		Filters: []Filter{{Col: "v", Lo: -900000, Hi: -800000}},
		Aggs:    []AggSpec{{Name: "n", Func: Count}},
	}
	wantE, err := plain.ExecAR(context.Background(), qe, serial)
	if err != nil {
		t.Fatal(err)
	}
	gotE, err := parted.ExecAR(context.Background(), qe, serial)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualResults(gotE.Rows, wantE.Rows) {
		t.Fatalf("all-excluding filter: scatter %v != oracle %v", gotE.Rows, wantE.Rows)
	}

	// The scatter explain lists the pruned partitions without executing
	// (and without advancing the counter).
	mark := parted.PlannerStats().PartitionsPruned
	lines, err := explainQuery(parted, q, ModeAR)
	if err != nil {
		t.Fatal(err)
	}
	text := strings.Join(lines, "\n")
	if !strings.Contains(text, "pruned") {
		t.Fatalf("scatter explain does not mention pruning:\n%s", text)
	}
	if parted.PlannerStats().PartitionsPruned != mark {
		t.Error("ExplainQuery advanced the prune counter")
	}
}

// TestCostExplainMatchesExecLegModes is the regression for \\explain
// diverging from execution: on a range-partitioned table whose data all
// routes to one slab, the empty partitions stay undecomposed and scan
// classically while the loaded one scans A&R. ExplainQuery must plan the
// legs exactly as ExecAR does — same per-leg fallback, same per-leg
// re-pricing under auto — instead of failing with "not bitwise decomposed".
func TestCostExplainMatchesExecLegModes(t *testing.T) {
	c := NewCatalog(device.PaperSystem())
	defs := []store.ColumnDef{
		{Name: "k", Scale: 1, Width: bat.Width32},
		{Name: "v", Scale: 1, Width: bat.Width32},
	}
	if _, err := c.CreatePartitionedTable("ev", defs, shard.Spec{Kind: shard.Range, Col: "k", N: 4}); err != nil {
		t.Fatal(err)
	}
	rows := make([][]int64, 1000)
	for i := range rows {
		rows[i] = []int64{int64(i + 1), int64(i % 97)}
	}
	if _, err := c.InsertRows(nil, "ev", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MergeTable(nil, "ev", false); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"k", "v"} {
		if _, err := c.Decompose("ev", col, 8); err != nil {
			t.Fatal(err)
		}
	}
	q := Query{
		Table:   "ev",
		Filters: []Filter{{Col: "v", Lo: 10, Hi: 40}},
		Aggs:    []AggSpec{{Name: "n", Func: Count}},
	}
	// legModes extracts "partition i" -> mode from a plan or explain listing.
	legModes := func(lines []string) map[string]string {
		modes := map[string]string{}
		for _, l := range lines {
			if part, rest, ok := strings.Cut(l, ":"); ok && strings.HasPrefix(part, "  partition ") {
				if _, m, ok := strings.Cut(rest, "mode="); ok {
					modes[strings.TrimSpace(part)], _, _ = strings.Cut(m, ",")
				}
			}
		}
		return modes
	}
	for _, auto := range []bool{false, true} {
		mode := ModeAR
		if auto {
			mode = ModeAuto
		}
		res, err := c.execOnce(context.Background(), q, ExecOpts{Threads: 1}, mode)
		if err != nil {
			t.Fatalf("auto=%v: exec: %v", auto, err)
		}
		ran := legModes(res.Plan())
		if len(ran) != 4 || ran["partition 0"] != "classic" || ran["partition 3"] != "classic" {
			t.Fatalf("auto=%v: executed leg modes %v, want 4 legs with the empty ones classic:\n%s", auto, ran, strings.Join(res.Plan(), "\n"))
		}
		if !auto && ran["partition 2"] != "ar" {
			t.Fatalf("forced a&r: loaded partition ran %q, want ar", ran["partition 2"])
		}
		lines, err := explainQuery(c, q, mode)
		if err != nil {
			t.Fatalf("auto=%v: ExplainQuery failed on a query ExecAR runs: %v", auto, err)
		}
		if told := legModes(lines); !reflect.DeepEqual(told, ran) {
			t.Errorf("auto=%v: \\explain leg modes %v != executed %v:\n%s", auto, told, ran, strings.Join(lines, "\n"))
		}
	}
}

// TestCostUnmergedDimJoinHint asserts the unmerged-dimension join error
// names the fix: the \merge command and the pending delta row count.
func TestCostUnmergedDimJoinHint(t *testing.T) {
	c := buildStarCatalog(t, 400, 3)
	if _, err := c.InsertRows(nil, "dim1", [][]int64{{40, 7}, {41, 8}}); err != nil {
		t.Fatal(err)
	}
	q := Query{
		Table: "fact",
		Joins: []JoinSpec{{FKCol: "fk1", Dim: "dim1", DimPK: "id"}},
		Aggs:  []AggSpec{{Name: "n", Func: Count}},
	}
	for _, exec := range []func(context.Context, Query, ExecOpts) (*Result, error){c.ExecAR, c.ExecClassic} {
		_, err := exec(context.Background(), q, ExecOpts{Threads: 1})
		if err == nil {
			t.Fatal("join against an unmerged dimension did not fail")
		}
		for _, want := range []string{`run \merge dim1`, "2 unmerged delta rows"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q missing %q", err, want)
			}
		}
	}
}

// TestCostExplainEstimates covers the \explain rendering: estimated rows
// per operator with the selectivity source, and the explicit "no stats"
// marker when a classic filter column has no decomposition.
func TestCostExplainEstimates(t *testing.T) {
	c := buildStarCatalog(t, 600, 9)
	q := Query{
		Table:   "fact",
		Filters: []Filter{{Col: "v", Lo: 0, Hi: 1024}},
		Joins:   starJoins([]Filter{{Col: "a", Lo: 0, Hi: 50}}, nil),
		GroupBy: []string{"g"},
		Aggs:    []AggSpec{{Name: "n", Func: Count}},
	}
	lines, err := explainQuery(c, q, ModeAR)
	if err != nil {
		t.Fatal(err)
	}
	text := strings.Join(lines, "\n")
	for _, want := range []string{"(est sel ", "est=", " rows)", "est<=", " groups"} {
		if !strings.Contains(text, want) {
			t.Errorf("a&r explain missing %q:\n%s", want, text)
		}
	}

	// A classic-only table: one decomposed column, one raw column. The raw
	// column's filter has no statistics and must say so.
	defs := []store.ColumnDef{
		{Name: "v", Scale: 1, Width: bat.Width32},
		{Name: "raw", Scale: 1, Width: bat.Width32},
	}
	if _, err := c.CreateTable("ct", defs); err != nil {
		t.Fatal(err)
	}
	rows := make([][]int64, 200)
	for i := range rows {
		rows[i] = []int64{int64(i % 64), int64(i)}
	}
	if _, err := c.InsertRows(nil, "ct", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MergeTable(nil, "ct", false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decompose("ct", "v", 6); err != nil {
		t.Fatal(err)
	}
	qc := Query{
		Table:   "ct",
		Filters: []Filter{{Col: "raw", Lo: 0, Hi: 10}, {Col: "v", Lo: 0, Hi: 31}},
		Aggs:    []AggSpec{{Name: "n", Func: Count}},
	}
	lines, err = explainQuery(c, qc, ModeClassic)
	if err != nil {
		t.Fatal(err)
	}
	text = strings.Join(lines, "\n")
	if !strings.Contains(text, "est=n/a (no stats)") {
		t.Errorf("classic explain missing the no-stats marker:\n%s", text)
	}
}
