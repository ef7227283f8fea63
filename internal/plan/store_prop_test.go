package plan

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bat"
	"repro/internal/device"
	"repro/internal/store"
)

// propCatalog builds a three-column decomposed fact table for the DML
// property tests.
func propCatalog(t testing.TB, n int, seed int64) *Catalog {
	t.Helper()
	c := NewCatalog(device.PaperSystem())
	rng := rand.New(rand.NewSource(seed))
	tbl := NewTable("fact")
	for _, col := range []string{"v", "w", "g"} {
		vals := make([]int64, n)
		for i := range vals {
			switch col {
			case "g":
				vals[i] = int64(rng.Intn(5))
			default:
				vals[i] = int64(rng.Intn(4096))
			}
		}
		if err := tbl.AddColumn(col, bat.NewDense(vals, bat.Width32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	for col, bits := range map[string]uint{"v": 8, "w": 6, "g": 3} {
		if _, err := c.Decompose("fact", col, bits); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// propQueries is the query mix checked after every mutation: selections
// (conjunctive, one-sided, on decomposed and on fully resident columns in
// one statement), grouping, and every aggregate function.
func propQueries(rng *rand.Rand) []Query {
	lo := int64(rng.Intn(4096))
	hi := lo + int64(rng.Intn(2048))
	wlo := int64(rng.Intn(4096))
	return []Query{
		{
			Table:   "fact",
			Filters: []Filter{{Col: "v", Lo: lo, Hi: hi}},
			Aggs:    []AggSpec{{Name: "n", Func: Count}, {Name: "s", Func: Sum, Expr: Col("w")}},
		},
		{
			Table:   "fact",
			Filters: []Filter{{Col: "v", Lo: lo, Hi: hi}, {Col: "w", Lo: wlo, Hi: NoHi}},
			Aggs: []AggSpec{
				{Name: "mn", Func: Min, Expr: Col("w")},
				{Name: "mx", Func: Max, Expr: Col("w")},
				{Name: "av", Func: Avg, Expr: Add(Col("v"), Col("w"))},
			},
		},
		{
			Table:   "fact",
			Filters: []Filter{{Col: "v", Lo: lo, Hi: hi}},
			GroupBy: []string{"g"},
			Aggs:    []AggSpec{{Name: "n", Func: Count}, {Name: "s", Func: Sum, Expr: MulScaled(Col("v"), Col("w"), 1)}},
		},
		{
			Table:   "fact",
			GroupBy: []string{"g"},
			Aggs:    []AggSpec{{Name: "n", Func: Count}, {Name: "s", Func: Sum, Expr: Col("v")}},
		},
		{
			// g is fully device resident: its conjunct and its disjunction
			// group have nothing to refine (§IV-C) and run no refinement
			// kernel, between the refinements of the decomposed v.
			Table:   "fact",
			Filters: []Filter{{Col: "g", Lo: 1, Hi: 4}, {Col: "v", Lo: lo, Hi: hi}},
			Or:      [][]Filter{{{Col: "g", Lo: NoLo, Hi: 2}, {Col: "g", Lo: 4, Hi: 4}}},
			Aggs:    []AggSpec{{Name: "n", Func: Count}, {Name: "s", Func: Sum, Expr: Col("w")}, {Name: "mx", Func: Max, Expr: Col("g")}},
		},
	}
}

// TestARMatchesClassicUnderDML is the property test: after every step of a
// random interleaving of inserts, deletes and merges, the classic and A&R
// executors must return identical results for a mix of selection, grouping
// and aggregation queries.
func TestARMatchesClassicUnderDML(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c := propCatalog(t, 5000, seed)
			rng := rand.New(rand.NewSource(seed * 100))
			for step := 0; step < 40; step++ {
				switch op := rng.Intn(10); {
				case op < 5: // insert a batch
					rows := make([][]int64, 1+rng.Intn(50))
					for i := range rows {
						rows[i] = []int64{int64(rng.Intn(4096)), int64(rng.Intn(4096)), int64(rng.Intn(5))}
					}
					if _, err := c.InsertRows(nil, "fact", rows); err != nil {
						t.Fatal(err)
					}
				case op < 8: // delete a range
					lo := int64(rng.Intn(4096))
					f := Filter{Col: "v", Lo: lo, Hi: lo + int64(rng.Intn(256))}
					if _, err := c.DeleteRows(nil, "fact", []Filter{f}); err != nil {
						t.Fatal(err)
					}
				default: // merge
					if _, err := c.MergeTable(nil, "fact", false); err != nil {
						t.Fatal(err)
					}
				}
				for qi, q := range propQueries(rng) {
					ar, err := c.ExecAR(context.Background(), q, ExecOpts{})
					if err != nil {
						t.Fatalf("step %d query %d AR: %v", step, qi, err)
					}
					cl, err := c.ExecClassic(context.Background(), q, ExecOpts{})
					if err != nil {
						t.Fatalf("step %d query %d classic: %v", step, qi, err)
					}
					if !EqualResults(ar.Rows, cl.Rows) {
						t.Fatalf("step %d query %d: A&R %v != classic %v", step, qi, ar.Rows, cl.Rows)
					}
					// The phase-A answer must bound the exact count.
					exact := int64(ar.Refined)
					if ar.Approx.Count.Lo > exact || ar.Approx.Count.Hi < exact {
						t.Fatalf("step %d query %d: approx count %v excludes exact %d", step, qi, ar.Approx.Count, exact)
					}
				}
			}
		})
	}
}

// TestConcurrentDMLAndQueries races writers (inserts, deletes, merges)
// against readers in both executor modes: every query must succeed against
// a consistent pinned snapshot, returning a count within the feasible
// range. Run with -race; this is the snapshot-isolation stress test.
func TestConcurrentDMLAndQueries(t *testing.T) {
	c := propCatalog(t, 2000, 42)
	const maxExtra = 31 * 20
	q := Query{
		Table:   "fact",
		Filters: []Filter{{Col: "v", Lo: 0, Hi: 4095}},
		Aggs:    []AggSpec{{Name: "n", Func: Count}},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	// Writer: inserts, deletes, merges.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 30; i++ {
			rows := make([][]int64, 20)
			for r := range rows {
				rows[r] = []int64{int64(rng.Intn(4096)), int64(rng.Intn(4096)), int64(rng.Intn(5))}
			}
			if _, err := c.InsertRows(nil, "fact", rows); err != nil {
				errs <- err
				return
			}
			if i%5 == 1 {
				lo := int64(rng.Intn(4096))
				if _, err := c.DeleteRows(nil, "fact", []Filter{{Col: "v", Lo: lo, Hi: lo + 64}}); err != nil {
					errs <- err
					return
				}
			}
			if i%7 == 3 {
				if _, err := c.MergeTable(nil, "fact", false); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	// Readers in both modes.
	for r := 0; r < 8; r++ {
		wg.Add(1)
		classic := r%2 == 0
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				var res *Result
				var err error
				if classic {
					res, err = c.ExecClassic(context.Background(), q, ExecOpts{})
				} else {
					res, err = c.ExecAR(context.Background(), q, ExecOpts{})
				}
				if err != nil {
					errs <- err
					return
				}
				n := res.Rows[0].Vals[0]
				if n < 0 || n > 2000+maxExtra {
					errs <- fmt.Errorf("count %d outside feasible range", n)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestJoinWithDimDeletionsAndEmptyDim covers the dimension-side edge
// cases: deleted dimension rows drop their joined fact rows identically in
// both executors (bitmap-masked, no compaction), and joining an empty
// dimension errors instead of panicking.
func TestJoinWithDimDeletionsAndEmptyDim(t *testing.T) {
	c := NewCatalog(device.PaperSystem())
	fact := NewTable("fact")
	n := 1000
	fk := make([]int64, n)
	v := make([]int64, n)
	for i := range fk {
		fk[i] = int64(i % 10)
		v[i] = int64(i)
	}
	if err := fact.AddColumn("fk", bat.NewDense(fk, bat.Width32)); err != nil {
		t.Fatal(err)
	}
	if err := fact.AddColumn("v", bat.NewDense(v, bat.Width32)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(fact); err != nil {
		t.Fatal(err)
	}
	dim := NewTable("dim")
	ids := make([]int64, 10)
	pay := make([]int64, 10)
	for i := range ids {
		ids[i] = int64(i)
		pay[i] = int64(i) * 100
	}
	if err := dim.AddColumn("id", bat.NewDense(ids, bat.Width32)); err != nil {
		t.Fatal(err)
	}
	if err := dim.AddColumn("pay", bat.NewDense(pay, bat.Width32)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(dim); err != nil {
		t.Fatal(err)
	}
	for col, bits := range map[string]uint{"fk": 4, "v": 8} {
		if _, err := c.Decompose("fact", col, bits); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Decompose("dim", "pay", 10); err != nil {
		t.Fatal(err)
	}
	if err := c.BuildFKIndex("dim", "id"); err != nil {
		t.Fatal(err)
	}
	q := Query{
		Table:   "fact",
		Filters: []Filter{{Col: "v", Lo: 0, Hi: 500}},
		Joins:   []JoinSpec{{FKCol: "fk", Dim: "dim", DimPK: "id"}},
		Aggs:    []AggSpec{{Name: "n", Func: Count}, {Name: "s", Func: Sum, Expr: DimCol("dim", "pay")}},
	}
	before, err := c.ExecClassic(context.Background(), q, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeleteRows(nil, "dim", []Filter{{Col: "id", Lo: 3, Hi: 3}}); err != nil {
		t.Fatal(err)
	}
	ar, err := c.ExecAR(context.Background(), q, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := c.ExecClassic(context.Background(), q, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !EqualResults(ar.Rows, cl.Rows) {
		t.Fatalf("after dim delete: A&R %v != classic %v", ar.Rows, cl.Rows)
	}
	if EqualResults(before.Rows, cl.Rows) {
		t.Fatal("dim deletion had no effect on the join")
	}
	// Compacting the dimension would break the dense key; the merge must
	// refuse rather than let the positional join silently mis-join.
	if _, err := c.MergeTable(nil, "dim", false); err == nil {
		t.Fatal("dimension merge compacted a dense key")
	}

	// Joining an empty dimension errors in both modes (no panic).
	if _, err := c.CreateTable("empty", []store.ColumnDef{{Name: "id", Scale: 1, Width: bat.Width32}}); err != nil {
		t.Fatal(err)
	}
	qe := q
	qe.Joins = []JoinSpec{{FKCol: "fk", Dim: "empty", DimPK: "id"}}
	qe.Aggs = []AggSpec{{Name: "n", Func: Count}}
	if _, err := c.ExecAR(context.Background(), qe, ExecOpts{}); err == nil {
		t.Fatal("A&R join with empty dimension accepted")
	}
	if _, err := c.ExecClassic(context.Background(), qe, ExecOpts{}); err == nil {
		t.Fatal("classic join with empty dimension accepted")
	}
}

// TestPropParallelMorselEquivalence is the morsel-edge property test: for
// random deletion-bitmap densities and delta sizes, the classic and A&R
// executors must return results identical to the serial (Workers=1) run
// for every worker count and morsel size — and the simulated meter must be
// bit-identical too, since the worker budget must never leak into the cost
// model. Small Morsel values force many morsel boundaries through the
// deletion mask, the delta scan and the grouping merge.
func TestPropParallelMorselEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c := propCatalog(t, 6000, seed)
			rng := rand.New(rand.NewSource(seed * 31))
			// Random delta size and deletion density.
			extra := rng.Intn(3000)
			rows := make([][]int64, extra)
			for i := range rows {
				rows[i] = []int64{int64(rng.Intn(4096)), int64(rng.Intn(4096)), int64(rng.Intn(5))}
			}
			if _, err := c.InsertRows(nil, "fact", rows); err != nil {
				t.Fatal(err)
			}
			for d := 0; d < 1+rng.Intn(4); d++ {
				lo := int64(rng.Intn(4096))
				if _, err := c.DeleteRows(nil, "fact", []Filter{{Col: "v", Lo: lo, Hi: lo + int64(rng.Intn(512))}}); err != nil {
					t.Fatal(err)
				}
			}
			for qi, q := range propQueries(rng) {
				serialAR, err := c.ExecAR(context.Background(), q, ExecOpts{Threads: 1, Workers: 1})
				if err != nil {
					t.Fatalf("query %d serial AR: %v", qi, err)
				}
				serialCl, err := c.ExecClassic(context.Background(), q, ExecOpts{Threads: 1, Workers: 1})
				if err != nil {
					t.Fatalf("query %d serial classic: %v", qi, err)
				}
				if !EqualResults(serialAR.Rows, serialCl.Rows) {
					t.Fatalf("query %d: serial A&R %v != classic %v", qi, serialAR.Rows, serialCl.Rows)
				}
				for trial := 0; trial < 4; trial++ {
					opts := ExecOpts{
						Threads: 1,
						Workers: 2 + rng.Intn(7),
						Morsel:  []int{64, 128, 1024, 0}[rng.Intn(4)],
					}
					ar, err := c.ExecAR(context.Background(), q, opts)
					if err != nil {
						t.Fatalf("query %d %+v AR: %v", qi, opts, err)
					}
					cl, err := c.ExecClassic(context.Background(), q, opts)
					if err != nil {
						t.Fatalf("query %d %+v classic: %v", qi, opts, err)
					}
					if !EqualResults(ar.Rows, serialAR.Rows) {
						t.Fatalf("query %d %+v: parallel A&R %v != serial %v", qi, opts, ar.Rows, serialAR.Rows)
					}
					if !EqualResults(cl.Rows, serialCl.Rows) {
						t.Fatalf("query %d %+v: parallel classic %v != serial %v", qi, opts, cl.Rows, serialCl.Rows)
					}
					if *ar.Meter != *serialAR.Meter {
						t.Fatalf("query %d %+v: A&R meter %v != serial %v (worker budget leaked into the cost model)",
							qi, opts, ar.Meter, serialAR.Meter)
					}
					if *cl.Meter != *serialCl.Meter {
						t.Fatalf("query %d %+v: classic meter %v != serial %v (worker budget leaked into the cost model)",
							qi, opts, cl.Meter, serialCl.Meter)
					}
				}
			}
		})
	}
}

// newShapePropQueries is the widened-surface query mix for the DML
// property test over the star catalog: multi-join, OR, HAVING, ORDER
// BY/LIMIT — the shapes the pipeline layer added.
func newShapePropQueries(rng *rand.Rand) []Query {
	lo := int64(rng.Intn(3000))
	hi := lo + int64(rng.Intn(2000))
	return []Query{
		{ // two chained FK probes with dimension-side filters
			Table:   "fact",
			Filters: []Filter{{Col: "v", Lo: lo, Hi: hi}},
			Joins:   starJoins([]Filter{{Col: "a", Lo: 0, Hi: 70}}, []Filter{{Col: "b", Lo: 20, Hi: NoHi}}),
			Aggs: []AggSpec{
				{Name: "n", Func: Count},
				{Name: "s", Func: Sum, Expr: Add(Col("w"), DimCol("dim2", "b"))},
			},
		},
		{ // disjunction over two fact columns
			Table: "fact",
			Or:    [][]Filter{{{Col: "v", Lo: NoLo, Hi: lo}, {Col: "w", Lo: hi, Hi: NoHi}}},
			Aggs:  []AggSpec{{Name: "n", Func: Count}, {Name: "mx", Func: Max, Expr: Col("v")}},
		},
		{ // HAVING over a hidden aggregate
			Table:   "fact",
			Filters: []Filter{{Col: "v", Lo: lo, Hi: NoHi}},
			GroupBy: []string{"g"},
			Aggs: []AggSpec{
				{Name: "n", Func: Count},
				{Name: "hs", Func: Sum, Expr: Col("w"), Hidden: true},
			},
			Having: []HavingFilter{{Agg: 1, Lo: int64(rng.Intn(10000)), Hi: NoHi}},
		},
		{ // ORDER BY ... LIMIT with a join and an OR conjunct
			Table:   "fact",
			Or:      [][]Filter{{{Col: "v", Lo: 0, Hi: hi}, {Col: "w", Lo: 0, Hi: lo}}},
			Joins:   starJoins(nil, nil),
			GroupBy: []string{"g"},
			Aggs:    []AggSpec{{Name: "n", Func: Count}, {Name: "s", Func: Sum, Expr: DimCol("dim1", "a")}},
			OrderBy: []OrderKey{{Index: 1, Desc: true}, {Key: true, Index: 0}},
			Limit:   1 + rng.Intn(4),
		},
	}
}

// starInsertRow generates one fact row for the star catalog (v, w, g,
// fk1, fk2 — keys always within the dimension domains).
func starInsertRow(rng *rand.Rand) []int64 {
	return []int64{int64(rng.Intn(4096)), int64(rng.Intn(4096)), int64(rng.Intn(5)),
		int64(rng.Intn(40)), int64(rng.Intn(25))}
}

// TestNewShapesMatchUnderDML extends the classic==A&R equivalence
// property to the widened query surface: after every step of a random
// interleaving of fact inserts, deletes and merges, every new shape
// (multi-join, OR, HAVING, ORDER BY/LIMIT) must return identical results
// in both modes — and stay byte-stable with bit-identical meters across a
// worker-count/morsel sweep.
func TestNewShapesMatchUnderDML(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c := buildStarCatalog(t, 4000, seed*1000)
			rng := rand.New(rand.NewSource(seed * 77))
			for step := 0; step < 12; step++ {
				switch op := rng.Intn(10); {
				case op < 5: // insert a batch
					rows := make([][]int64, 1+rng.Intn(40))
					for i := range rows {
						rows[i] = starInsertRow(rng)
					}
					if _, err := c.InsertRows(nil, "fact", rows); err != nil {
						t.Fatal(err)
					}
				case op < 8: // delete a range
					lo := int64(rng.Intn(4096))
					if _, err := c.DeleteRows(nil, "fact", []Filter{{Col: "v", Lo: lo, Hi: lo + int64(rng.Intn(256))}}); err != nil {
						t.Fatal(err)
					}
				default: // merge
					if _, err := c.MergeTable(nil, "fact", false); err != nil {
						t.Fatal(err)
					}
				}
				for qi, q := range newShapePropQueries(rng) {
					ar, err := c.ExecAR(context.Background(), q, ExecOpts{Threads: 1, Workers: 1})
					if err != nil {
						t.Fatalf("step %d query %d AR: %v", step, qi, err)
					}
					cl, err := c.ExecClassic(context.Background(), q, ExecOpts{Threads: 1, Workers: 1})
					if err != nil {
						t.Fatalf("step %d query %d classic: %v", step, qi, err)
					}
					if !EqualResults(ar.Rows, cl.Rows) {
						t.Fatalf("step %d query %d: A&R %v != classic %v", step, qi, ar.Rows, cl.Rows)
					}
					// Worker/morsel sweep: byte-stable rows, bit-identical meters.
					opts := ExecOpts{Threads: 1, Workers: 2 + rng.Intn(6), Morsel: []int{64, 512, 0}[rng.Intn(3)]}
					arp, err := c.ExecAR(context.Background(), q, opts)
					if err != nil {
						t.Fatalf("step %d query %d AR %+v: %v", step, qi, opts, err)
					}
					if !EqualResults(arp.Rows, ar.Rows) {
						t.Fatalf("step %d query %d %+v: parallel A&R %v != serial %v", step, qi, opts, arp.Rows, ar.Rows)
					}
					if *arp.Meter != *ar.Meter {
						t.Fatalf("step %d query %d %+v: A&R meter %v != serial %v", step, qi, opts, arp.Meter, ar.Meter)
					}
					clp, err := c.ExecClassic(context.Background(), q, opts)
					if err != nil {
						t.Fatalf("step %d query %d classic %+v: %v", step, qi, opts, err)
					}
					if !EqualResults(clp.Rows, cl.Rows) {
						t.Fatalf("step %d query %d %+v: parallel classic %v != serial %v", step, qi, opts, clp.Rows, cl.Rows)
					}
					if *clp.Meter != *cl.Meter {
						t.Fatalf("step %d query %d %+v: classic meter %v != serial %v", step, qi, opts, clp.Meter, cl.Meter)
					}
				}
			}
		})
	}
}

// TestConcurrentDMLNewShapes races fact-side writers against readers
// running the widened query shapes in both modes — the snapshot-isolation
// stress for the pipeline layer. Run with -race.
func TestConcurrentDMLNewShapes(t *testing.T) {
	c := buildStarCatalog(t, 2000, 99)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 25; i++ {
			rows := make([][]int64, 15)
			for r := range rows {
				rows[r] = starInsertRow(rng)
			}
			if _, err := c.InsertRows(nil, "fact", rows); err != nil {
				errs <- err
				return
			}
			if i%5 == 1 {
				lo := int64(rng.Intn(4096))
				if _, err := c.DeleteRows(nil, "fact", []Filter{{Col: "v", Lo: lo, Hi: lo + 64}}); err != nil {
					errs <- err
					return
				}
			}
			if i%7 == 3 {
				if _, err := c.MergeTable(nil, "fact", false); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	for r := 0; r < 6; r++ {
		wg.Add(1)
		classic := r%2 == 0
		seed := int64(r)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 25; i++ {
				for _, q := range newShapePropQueries(rng) {
					var err error
					if classic {
						_, err = c.ExecClassic(context.Background(), q, ExecOpts{Workers: 2, Morsel: 256})
					} else {
						_, err = c.ExecAR(context.Background(), q, ExecOpts{Workers: 2, Morsel: 256})
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestParallelCancelledDeltaScanReturnsError is the regression for the
// nil-partial merge: a context cancelled mid-delta-scan must surface
// ctx.Err() from scanDelta instead of merging (and panicking on) the
// unscanned morsels' nil partials.
func TestParallelCancelledDeltaScanReturnsError(t *testing.T) {
	c := propCatalog(t, 2000, 1)
	rows := make([][]int64, 500)
	for i := range rows {
		rows[i] = []int64{int64(i % 4096), int64(i % 4096), int64(i % 5)}
	}
	if _, err := c.InsertRows(nil, "fact", rows); err != nil {
		t.Fatal(err)
	}
	q := Query{
		Table:   "fact",
		Filters: []Filter{{Col: "v", Lo: 0, Hi: 4095}},
		Aggs:    []AggSpec{{Name: "s", Func: Sum, Expr: Col("w")}},
	}
	pl, err := c.Plan(q, ModeClassic)
	if err != nil {
		t.Fatal(err)
	}
	x, err := c.Pin(pl)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pp := ExecOpts{Threads: 1, Workers: 4, Morsel: 64}.par(ctx)
	dset, err := scanDelta(nil, pp, &q, x.legs[0].pl.snap, pl.tail)
	if err == nil {
		t.Fatalf("cancelled delta scan returned %+v without error", dset)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled delta scan returned %v, want context.Canceled", err)
	}
}
