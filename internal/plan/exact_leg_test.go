package plan

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/device"
	"repro/internal/shard"
)

// exactLegCatalog builds a fact table over one dimension with every column
// the statements below read decomposed at its full width — fully device
// resident — except v, which is decomposed at vBits: 32 leaves it resident
// too (every A&R leg over the table is exact), fewer bits leave it a residual
// (a statement that filters on v takes the general path). Same seed, same
// rows.
func exactLegCatalog(t testing.TB, n int, seed int64, vBits uint) *Catalog {
	t.Helper()
	c := NewCatalog(device.PaperSystem())
	rng := rand.New(rand.NewSource(seed))
	addTable := func(name string, n int, cols []string, domain []int, bits map[string]uint) {
		tbl := NewTable(name)
		for k, col := range cols {
			vals := make([]int64, n)
			for i := range vals {
				if vals[i] = int64(i); domain[k] > 0 {
					vals[i] = int64(rng.Intn(domain[k]))
				}
			}
			if err := tbl.AddColumn(col, bat.NewDense(vals, bat.Width32)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
		for col, b := range bits {
			if _, err := c.Decompose(name, col, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	addTable("dim", 40, []string{"id", "a"}, []int{0, 100}, map[string]uint{"a": 32})
	if err := c.BuildFKIndex("dim", "id"); err != nil {
		t.Fatal(err)
	}
	addTable("fact", n, []string{"v", "w", "x", "g", "h", "fk"}, []int{4096, 4096, 300, 5, 3, 40},
		map[string]uint{"v": vBits, "w": 32, "x": 32, "g": 32, "h": 32, "fk": 32})
	return c
}

// randExactLegQuery draws one statement over the exactLegCatalog schema:
// grouped or not, 0–3 conjuncts (now and then one nothing satisfies), maybe a
// disjunction, maybe the dimension join with or without its filter, HAVING
// and ORDER BY / LIMIT when grouped.
func randExactLegQuery(rng *rand.Rand) Query {
	q := Query{Table: "fact"}
	cols := []string{"v", "w", "x"}
	rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
	for _, col := range cols[:rng.Intn(4)] {
		top := int64(4096)
		if col == "x" {
			top = 300
		}
		lo := rng.Int63n(top / 2)
		q.Filters = append(q.Filters, Filter{Col: col, Lo: lo, Hi: lo + top/4 + rng.Int63n(top/2)})
	}
	if rng.Intn(8) == 0 {
		q.Filters = append(q.Filters, Filter{Col: "w", Lo: 5000, Hi: 6000}) // an empty result
	}
	if rng.Intn(3) == 0 {
		q.Or = [][]Filter{{{Col: "v", Lo: NoLo, Hi: rng.Int63n(3000)}, {Col: "x", Lo: 100 + rng.Int63n(150), Hi: NoHi}}}
	}
	q.Aggs = []AggSpec{
		{Name: "n", Func: Count},
		{Name: "s", Func: Sum, Expr: MulScaled(Col("w"), Sub(Const(300), Col("x")), 100)},
		{Name: "lo", Func: Min, Expr: Col("v")},
		{Name: "hi", Func: Max, Expr: Add(Col("x"), Col("w"))},
		{Name: "mean", Func: Avg, Expr: Col("v")},
	}
	if rng.Intn(3) == 0 {
		join := JoinSpec{FKCol: "fk", Dim: "dim", DimPK: "id"}
		if rng.Intn(2) == 0 {
			lo := rng.Int63n(50)
			join.DimFilters = []Filter{{Col: "a", Lo: lo, Hi: lo + 40}}
		}
		q.Joins = []JoinSpec{join}
		q.Aggs = append(q.Aggs, AggSpec{Name: "as", Func: Sum, Expr: CaseRange(DimCol("dim", "a"), 20, 60, Col("w"), Const(0))})
	}
	if len(q.Filters) == 0 && len(q.Or) == 0 || rng.Intn(2) == 0 {
		q.GroupBy = [][]string{{"g"}, {"g", "h"}}[rng.Intn(2)]
		if rng.Intn(2) == 0 {
			q.Having = []HavingFilter{{Agg: 0, Lo: 1 + rng.Int63n(200), Hi: NoHi}}
		}
		if rng.Intn(2) == 0 {
			q.OrderBy = []OrderKey{{Index: 1, Desc: true}, {Key: true, Index: 0}}
			q.Limit = rng.Intn(4) // 0: a full sort
		}
	}
	return q
}

// pinAR plans and pins q under forced A&R and says whether its (first) leg is
// an exact one.
func pinAR(t testing.TB, c *Catalog, q Query) (*Pinned, bool) {
	t.Helper()
	pl, err := c.Plan(q, ModeAR)
	if err != nil {
		t.Fatal(err)
	}
	x, err := c.Pin(pl)
	if err != nil {
		t.Fatal(err)
	}
	return x, x.legs[0].pl.exactLeg(len(x.legs) == 1)
}

// runGeneral runs q A&R over c with its leg's exactness denied: the general
// path — interval fold, refinement, second fold — over the same data.
func runGeneral(t testing.TB, c *Catalog, q Query, opts ExecOpts) *Result {
	t.Helper()
	x, _ := pinAR(t, c, q)
	general := *x.legs[0].pl.legPlan
	general.resident = false
	x.legs[0].pl.legPlan = &general
	res, err := c.Run(context.Background(), x, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func degenerate(a ApproxAnswer) bool {
	for _, iv := range a.Aggs {
		if iv.Lo != iv.Hi {
			return false
		}
	}
	return a.Count.Lo == a.Count.Hi
}

// TestExactLegMatchesGeneralPathAndClassic is the exact leg's property test.
// Random statements run over one table three ways — every column resident
// (the exact leg), v holding residual bits (the general path: every statement
// aggregates v, most filter on it) and classic — and, on the resident table, a fourth: the general
// path forced over the very same data. Rows are byte-identical everywhere;
// the exact leg refines nothing away; its phase-A answer is a point, equal to
// what the forced general path reports, to the ungrouped statement's classic
// row, and inside the bounds the residual table gives; and against the forced
// general path the meter agrees field by field and the plan listing line by
// line — at 1 and 4 workers and a morsel that cuts through granule groups,
// before and after base-table and dimension deletions.
func TestExactLegMatchesGeneralPathAndClassic(t *testing.T) {
	const n = 150_000 // three device work-groups
	resident, residual := exactLegCatalog(t, n, 7, 32), exactLegCatalog(t, n, 7, 8)
	rng := rand.New(rand.NewSource(8))
	ctx := context.Background()
	sweeps := []ExecOpts{{}, {Threads: 2, Workers: 4, Morsel: 1000}}
	for round := 0; round < 3; round++ {
		switch round {
		case 1: // base deletions: the device masks them out, the leg stays exact
			for _, c := range []*Catalog{resident, residual} {
				if _, err := c.DeleteRows(nil, "fact", []Filter{{Col: "w", Lo: 1000, Hi: 1300}}); err != nil {
					t.Fatal(err)
				}
			}
		case 2: // dimension deletions: joined candidates are filtered by position
			for _, c := range []*Catalog{resident, residual} {
				if _, err := c.DeleteRows(nil, "dim", []Filter{{Col: "a", Lo: 30, Hi: 45}}); err != nil {
					t.Fatal(err)
				}
			}
		}
		for trial := 0; trial < 25; trial++ {
			q := randExactLegQuery(rng)
			label := fmt.Sprintf("round %d trial %d (%+v)", round, trial, q)
			if _, exact := pinAR(t, resident, q); !exact {
				t.Fatalf("%s: not an exact leg over resident columns", label)
			}
			if _, exact := pinAR(t, residual, q); exact { // every statement aggregates v
				t.Fatalf("%s: an exact leg over a column with residual bits", label)
			}

			classic, err := resident.ExecClassic(ctx, q, ExecOpts{})
			if err != nil {
				t.Fatal(err)
			}
			totalQ := q
			totalQ.GroupBy, totalQ.Having, totalQ.OrderBy, totalQ.Limit = nil, nil, nil, 0
			total, err := resident.ExecClassic(ctx, totalQ, ExecOpts{})
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range sweeps {
				got, err := resident.ExecAR(ctx, q, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				forced := runGeneral(t, resident, q, opts)
				loose, err := residual.ExecAR(ctx, q, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !EqualResults(got.Rows, classic.Rows) || !EqualResults(got.Rows, forced.Rows) || !EqualResults(got.Rows, loose.Rows) {
					t.Fatalf("%s workers %d: rows differ: exact %v, general %v, residual %v, classic %v",
						label, opts.Workers, got.Rows, forced.Rows, loose.Rows, classic.Rows)
				}
				if got.Refined != got.Candidates || got.Refined != forced.Refined || got.Refined != loose.Refined ||
					got.Refined != classic.Refined || got.Candidates != forced.Candidates {
					t.Fatalf("%s: exact %d -> %d, general %d -> %d, residual -> %d, classic %d", label,
						got.Candidates, got.Refined, forced.Candidates, forced.Refined, loose.Refined, classic.Refined)
				}
				if !degenerate(got.Approx) || got.Approx.Count != forced.Approx.Count || !slices.Equal(got.Approx.Aggs, forced.Approx.Aggs) {
					t.Fatalf("%s: exact leg answers %+v, the general path %+v", label, got.Approx, forced.Approx)
				}
				if got.Approx.Count.Lo != int64(got.Refined) {
					t.Fatalf("%s: answer counts %v, %d rows refined", label, got.Approx.Count, got.Refined)
				}
				for k, iv := range got.Approx.Aggs {
					if iv.Lo != total.Rows[0].Vals[k] {
						t.Fatalf("%s: aggregate %d answered %v, the ungrouped statement computes %d", label, k, iv, total.Rows[0].Vals[k])
					}
					if b := loose.Approx.Aggs[k]; iv.Lo < b.Lo || iv.Lo > b.Hi {
						t.Fatalf("%s: aggregate %d = %d outside the residual table's bounds %v", label, k, iv.Lo, b)
					}
				}
				if *got.Meter != *forced.Meter || got.InputBytes != forced.InputBytes {
					t.Fatalf("%s workers %d: exact leg billed %v, the general path %v", label, opts.Workers, got.Meter, forced.Meter)
				}
				if !slices.Equal(got.Plan(), forced.Plan()) {
					t.Fatalf("%s: plan listings differ:\n%s\n--\n%s", label, strings.Join(got.Plan(), "\n"), strings.Join(forced.Plan(), "\n"))
				}
			}
		}
	}
}

// TestExactLegTraceMatchesGeneralPath: operator by operator the exact leg
// records the events the general path records — same stages, operators,
// rows, estimates and simulated charges; only the wall clock differs.
func TestExactLegTraceMatchesGeneralPath(t *testing.T) {
	c := exactLegCatalog(t, 20_000, 9, 32)
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20; trial++ {
		q := randExactLegQuery(rng)
		got, err := c.ExecAR(context.Background(), q, ExecOpts{Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		forced := runGeneral(t, c, q, ExecOpts{Trace: true})
		if a, b := traceShape(got), traceShape(forced); a != b {
			t.Fatalf("trial %d (%+v): traces differ:\n%s\n--\n%s", trial, q, a, b)
		}
		if got.Trace.Candidates != forced.Trace.Candidates || got.Trace.Refined != forced.Trace.Refined ||
			got.Trace.EstCandidates != forced.Trace.EstCandidates {
			t.Fatalf("trial %d: trace footers differ: %+v vs %+v", trial, got.Trace, forced.Trace)
		}
	}
}

// TestExactLegFollowsTheData: the predicate is decided from the versions a
// statement pins. Live delta rows make the next run general, a merge makes it
// exact again, base deletions leave it exact, and a table scanned as two
// partition legs never is — while one pruned to a single leg is; every run
// agrees with classic.
func TestExactLegFollowsTheData(t *testing.T) {
	c := exactLegCatalog(t, 20_000, 11, 32)
	q := Query{
		Table:   "fact",
		Filters: []Filter{{Col: "v", Lo: 500, Hi: 3000}},
		GroupBy: []string{"g"},
		Aggs:    []AggSpec{{Name: "n", Func: Count}, {Name: "s", Func: Sum, Expr: Col("w")}},
	}
	check := func(step string, c *Catalog, q Query, want bool) {
		t.Helper()
		x, exact := pinAR(t, c, q)
		if exact != want {
			t.Fatalf("%s: exact leg = %v, want %v", step, exact, want)
		}
		if described := strings.Contains(strings.Join(x.Describe(), "\n"), "refine: nothing to refine"); described != want {
			t.Fatalf("%s: \\explain shows an exact leg = %v, want %v:\n%s", step, described, want, strings.Join(x.Describe(), "\n"))
		}
		got, err := c.Run(context.Background(), x, ExecOpts{})
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		classic, err := c.ExecClassic(context.Background(), q, ExecOpts{})
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if !EqualResults(got.Rows, classic.Rows) || got.Refined != classic.Refined {
			t.Fatalf("%s: A&R %v (%d refined), classic %v (%d)", step, got.Rows, got.Refined, classic.Rows, classic.Refined)
		}
		if want != degenerate(got.Approx) && got.Candidates != got.Refined {
			t.Fatalf("%s: phase-A answer %+v", step, got.Approx)
		}
	}
	check("loaded", c, q, true)
	if _, err := c.InsertRows(nil, "fact", [][]int64{{600, 1, 2, 3, 1, 5}, {9999, 1, 2, 3, 1, 5}}); err != nil {
		t.Fatal(err)
	}
	check("after INSERT", c, q, false)
	if _, err := c.MergeTable(nil, "fact", false); err != nil {
		t.Fatal(err)
	}
	check("after merge", c, q, true)
	if _, err := c.DeleteRows(nil, "fact", []Filter{{Col: "w", Lo: 0, Hi: 500}}); err != nil {
		t.Fatal(err)
	}
	check("after DELETE", c, q, true)
	if _, err := c.InsertRows(nil, "fact", [][]int64{{700, 1, 2, 3, 1, 5}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeleteRows(nil, "fact", []Filter{{Col: "v", Lo: 700, Hi: 700}, {Col: "x", Lo: 2, Hi: 2}}); err != nil {
		t.Fatal(err)
	}
	check("a delta segment, all of it deleted", c, q, false)

	// Two range partitions on v — the negative values and the rest: scanned
	// together they meet on the host.
	if _, err := c.CreatePartitionedTable("pfact", partFactDefs(), shard.Spec{Kind: shard.Range, Col: "v", N: 2}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	rows := make([][]int64, 4000)
	for i := range rows {
		rows[i] = []int64{int64(rng.Intn(4096) - 2048), int64(rng.Intn(4096)), int64(rng.Intn(5))}
	}
	if _, err := c.InsertRows(nil, "pfact", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MergeTable(nil, "pfact", false); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"v", "w", "g"} {
		if _, err := c.Decompose("pfact", col, 32); err != nil {
			t.Fatal(err)
		}
	}
	pq := q
	pq.Table, pq.Filters = "pfact", []Filter{{Col: "v", Lo: -1000, Hi: 1000}}
	check("two partition legs", c, pq, false)
	pq.Filters = []Filter{{Col: "v", Lo: 100, Hi: 1500}}
	check("pruned to one partition leg", c, pq, true)
}

// TestExactLegCancelAtEveryStage: a statement cancelled at any of its
// cooperative checkpoints — the exact leg keeps every one the general path
// has — returns the context's error and no result.
func TestExactLegCancelAtEveryStage(t *testing.T) {
	c := exactLegCatalog(t, 20_000, 13, 32)
	q := Query{
		Table:   "fact",
		Filters: []Filter{{Col: "v", Lo: 500, Hi: 3000}, {Col: "x", Lo: 10, Hi: 250}},
		Or:      [][]Filter{{{Col: "w", Lo: 0, Hi: 2000}, {Col: "v", Lo: 2500, Hi: NoHi}}},
		Joins:   []JoinSpec{{FKCol: "fk", Dim: "dim", DimPK: "id", DimFilters: []Filter{{Col: "a", Lo: 10, Hi: 90}}}},
		GroupBy: []string{"g", "h"},
		Aggs:    []AggSpec{{Name: "n", Func: Count}, {Name: "s", Func: Sum, Expr: Add(Col("w"), DimCol("dim", "a"))}},
	}
	var stages, general []Stage
	if _, err := c.ExecAR(context.Background(), q, ExecOpts{OnStage: func(s Stage) { stages = append(stages, s) }}); err != nil {
		t.Fatal(err)
	}
	runGeneral(t, c, q, ExecOpts{OnStage: func(s Stage) { general = append(general, s) }})
	if !slices.Equal(stages, general) || len(stages) < 10 {
		t.Fatalf("exact leg checkpoints %v, general path %v", stages, general)
	}
	for _, opts := range []ExecOpts{{}, {Threads: 2, Workers: 4, Morsel: 1000}} {
		for k := range stages {
			ctx, cancel := context.WithCancel(context.Background())
			seen := 0
			opts.OnStage = func(Stage) {
				if seen == k {
					cancel()
				}
				seen++
			}
			res, err := c.ExecAR(ctx, q, opts)
			cancel()
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("cancelled at checkpoint %d (%s): result %v, error %v", k, stages[k], res, err)
			}
			if seen != k+1 {
				t.Fatalf("cancelled at checkpoint %d: the statement went on to checkpoint %d", k, seen)
			}
		}
	}
}

// TestExactLegDisjunctionOverResidentColumns: an OR group whose members are
// all fully device resident leaves no candidate uncertain, so a statement of
// disjunctions alone forms an exact leg — its count a point, its rows the
// classic ones — while one member with residual bits keeps the general path
// and an honest interval.
func TestExactLegDisjunctionOverResidentColumns(t *testing.T) {
	q := Query{
		Table: "fact",
		Or: [][]Filter{
			{{Col: "v", Lo: NoLo, Hi: 700}, {Col: "w", Lo: 3500, Hi: NoHi}},
			{{Col: "x", Lo: 0, Hi: 100}, {Col: "x", Lo: 250, Hi: NoHi}},
		},
		Aggs: []AggSpec{{Name: "n", Func: Count}, {Name: "s", Func: Sum, Expr: Col("w")}},
	}
	for _, tc := range []struct {
		vBits uint
		exact bool
	}{{32, true}, {8, false}} {
		c := exactLegCatalog(t, 70_000, 14, tc.vBits)
		x, exact := pinAR(t, c, q)
		if exact != tc.exact {
			t.Fatalf("v at %d bits: exact leg = %v", tc.vBits, exact)
		}
		got, err := c.Run(context.Background(), x, ExecOpts{})
		if err != nil {
			t.Fatal(err)
		}
		classic, err := c.ExecClassic(context.Background(), q, ExecOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if !EqualResults(got.Rows, classic.Rows) || got.Refined != classic.Refined {
			t.Fatalf("v at %d bits: A&R %v, classic %v", tc.vBits, got.Rows, classic.Rows)
		}
		if degenerate(got.Approx) != tc.exact || (got.Candidates == got.Refined) != tc.exact {
			t.Fatalf("v at %d bits: %d candidates, %d refined, answer %+v", tc.vBits, got.Candidates, got.Refined, got.Approx)
		}
	}
}
