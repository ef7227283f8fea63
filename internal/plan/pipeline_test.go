package plan

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/device"
	"repro/internal/shard"
)

// buildStarCatalog creates a star schema — a fact table with two foreign
// keys into two dimension tables — with every touched column decomposed
// and FK indexes built, for the widened-query-surface tests.
func buildStarCatalog(t *testing.T, n int, seed int64) *Catalog {
	t.Helper()
	c := NewCatalog(device.PaperSystem())
	rng := rand.New(rand.NewSource(seed))

	addDim := func(name string, dimN int, attr string) {
		d := NewTable(name)
		pk := make([]int64, dimN)
		av := make([]int64, dimN)
		for i := range pk {
			pk[i] = int64(i)
			av[i] = int64(rng.Intn(100))
		}
		if err := d.AddColumn("id", pk, bat.Width32); err != nil {
			t.Fatal(err)
		}
		if err := d.AddColumn(attr, av, bat.Width32); err != nil {
			t.Fatal(err)
		}
		if err := c.AddTable(d); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Decompose(name, attr, 5); err != nil {
			t.Fatal(err)
		}
		if err := c.BuildFKIndex(name, "id"); err != nil {
			t.Fatal(err)
		}
	}
	addDim("dim1", 40, "a")
	addDim("dim2", 25, "b")

	fact := NewTable("fact")
	cols := map[string][]int64{}
	for _, name := range []string{"v", "w", "g", "fk1", "fk2"} {
		cols[name] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		cols["v"][i] = int64(rng.Intn(4096))
		cols["w"][i] = int64(rng.Intn(4096))
		cols["g"][i] = int64(rng.Intn(5))
		cols["fk1"][i] = int64(rng.Intn(40))
		cols["fk2"][i] = int64(rng.Intn(25))
	}
	for _, name := range []string{"v", "w", "g", "fk1", "fk2"} {
		if err := fact.AddColumn(name, cols[name], bat.Width32); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddTable(fact); err != nil {
		t.Fatal(err)
	}
	for col, bits := range map[string]uint{"v": 8, "w": 6, "g": 3, "fk1": 32, "fk2": 32} {
		if _, err := c.Decompose("fact", col, bits); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// starJoins is the two-dimension join chain of the star catalog.
func starJoins(dim1Filters, dim2Filters []Filter) []JoinSpec {
	return []JoinSpec{
		{FKCol: "fk1", Dim: "dim1", DimPK: "id", DimFilters: dim1Filters},
		{FKCol: "fk2", Dim: "dim2", DimPK: "id", DimFilters: dim2Filters},
	}
}

// newShapeQueries is the widened-surface query mix: multi-join, OR,
// HAVING, ORDER BY/LIMIT — alone and combined.
func newShapeQueries(rng *rand.Rand) []Query {
	lo := int64(rng.Intn(3000))
	hi := lo + int64(rng.Intn(2000))
	alo := int64(rng.Intn(60))
	return []Query{
		{ // two dimension joins with filters on both dimensions
			Table:   "fact",
			Filters: []Filter{{Col: "v", Lo: lo, Hi: hi}},
			Joins:   starJoins([]Filter{{Col: "a", Lo: alo, Hi: alo + 40}}, []Filter{{Col: "b", Lo: 10, Hi: 90}}),
			Aggs: []AggSpec{
				{Name: "n", Func: Count},
				{Name: "s", Func: Sum, Expr: Add(DimCol("dim1", "a"), DimCol("dim2", "b"))},
			},
		},
		{ // OR over ranges on two fact columns, with a conjunct
			Table:   "fact",
			Filters: []Filter{{Col: "g", Lo: 0, Hi: 3}},
			Or:      [][]Filter{{{Col: "v", Lo: 0, Hi: lo}, {Col: "w", Lo: hi, Hi: NoHi}}},
			Aggs:    []AggSpec{{Name: "n", Func: Count}, {Name: "s", Func: Sum, Expr: Col("w")}},
		},
		{ // OR alone (no conjunctive filters)
			Table: "fact",
			Or:    [][]Filter{{{Col: "v", Lo: 100, Hi: 400}, {Col: "v", Lo: 3000, Hi: 3600}}},
			Aggs:  []AggSpec{{Name: "n", Func: Count}},
		},
		{ // HAVING over a grouped aggregate, with a hidden aggregate
			Table:   "fact",
			Filters: []Filter{{Col: "v", Lo: lo, Hi: NoHi}},
			GroupBy: []string{"g"},
			Aggs: []AggSpec{
				{Name: "n", Func: Count},
				{Name: "hs", Func: Sum, Expr: Col("w"), Hidden: true},
			},
			Having: []HavingFilter{{Agg: 1, Lo: 1000, Hi: NoHi}},
		},
		{ // ORDER BY aggregate desc LIMIT 3 (top-k heap)
			Table:   "fact",
			GroupBy: []string{"g"},
			Aggs:    []AggSpec{{Name: "n", Func: Count}, {Name: "s", Func: Sum, Expr: Col("v")}},
			OrderBy: []OrderKey{{Index: 1, Desc: true}},
			Limit:   3,
		},
		{ // everything combined: joins + OR + HAVING + ORDER BY/LIMIT
			Table:   "fact",
			Filters: []Filter{{Col: "v", Lo: 0, Hi: 3500}},
			Or:      [][]Filter{{{Col: "w", Lo: 0, Hi: 2000}, {Col: "w", Lo: 3000, Hi: NoHi}}},
			Joins:   starJoins([]Filter{{Col: "a", Lo: 0, Hi: 80}}, nil),
			GroupBy: []string{"g"},
			Aggs: []AggSpec{
				{Name: "n", Func: Count},
				{Name: "s", Func: Sum, Expr: MulScaled(Col("w"), DimCol("dim1", "a"), 1)},
			},
			Having:  []HavingFilter{{Agg: 0, Lo: 2, Hi: NoHi}},
			OrderBy: []OrderKey{{Index: 1, Desc: true}, {Key: true, Index: 0}},
			Limit:   2,
		},
	}
}

// TestNewShapesARMatchesClassic asserts the widened query surface returns
// identical results under both scan strategies.
func TestNewShapesARMatchesClassic(t *testing.T) {
	c := buildStarCatalog(t, 20000, 11)
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 5; trial++ {
		for qi, q := range newShapeQueries(rng) {
			arRes, err := c.ExecAR(context.Background(), q, ExecOpts{})
			if err != nil {
				t.Fatalf("trial %d query %d ExecAR: %v", trial, qi, err)
			}
			clRes, err := c.ExecClassic(context.Background(), q, ExecOpts{})
			if err != nil {
				t.Fatalf("trial %d query %d ExecClassic: %v", trial, qi, err)
			}
			if !EqualResults(arRes.Rows, clRes.Rows) {
				t.Fatalf("trial %d query %d: A&R != classic\nAR:\n%s\nclassic:\n%s",
					trial, qi, FormatRows(arRes.Rows), FormatRows(clRes.Rows))
			}
		}
	}
}

// TestOrSemantics pins the disjunction semantics: OR of two ranges equals
// the union count computed from the separate range queries.
func TestOrSemantics(t *testing.T) {
	c := buildStarCatalog(t, 10000, 21)
	count := func(q Query) int64 {
		res, err := c.ExecClassic(context.Background(), q, ExecOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0].Vals[0]
	}
	aggs := []AggSpec{{Name: "n", Func: Count}}
	a := count(Query{Table: "fact", Filters: []Filter{{Col: "v", Lo: 0, Hi: 1000}}, Aggs: aggs})
	b := count(Query{Table: "fact", Filters: []Filter{{Col: "w", Lo: 2000, Hi: 3000}}, Aggs: aggs})
	both := count(Query{Table: "fact", Filters: []Filter{{Col: "v", Lo: 0, Hi: 1000}, {Col: "w", Lo: 2000, Hi: 3000}}, Aggs: aggs})
	union := count(Query{Table: "fact", Or: [][]Filter{{{Col: "v", Lo: 0, Hi: 1000}, {Col: "w", Lo: 2000, Hi: 3000}}}, Aggs: aggs})
	if union != a+b-both {
		t.Fatalf("OR union %d != %d + %d - %d (inclusion-exclusion)", union, a, b, both)
	}
	arRes, err := c.ExecAR(context.Background(), Query{Table: "fact", Or: [][]Filter{{{Col: "v", Lo: 0, Hi: 1000}, {Col: "w", Lo: 2000, Hi: 3000}}}, Aggs: aggs}, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if arRes.Rows[0].Vals[0] != union {
		t.Fatalf("A&R OR count %d != classic %d", arRes.Rows[0].Vals[0], union)
	}
	// The phase-A count bounds must contain the exact union.
	if !arRes.Approx.Count.Contains(union) {
		t.Fatalf("approx count %v excludes exact %d", arRes.Approx.Count, union)
	}
}

// TestHavingAndTopK pins HAVING filtering and deterministic top-k: the
// limited result is the prefix of the fully ordered result, hidden
// aggregates never surface, and ties break by group key.
func TestHavingAndTopK(t *testing.T) {
	c := buildStarCatalog(t, 15000, 31)
	base := Query{
		Table:   "fact",
		GroupBy: []string{"g"},
		Aggs: []AggSpec{
			{Name: "n", Func: Count},
			{Name: "s", Func: Sum, Expr: Col("v")},
		},
		OrderBy: []OrderKey{{Index: 1, Desc: true}},
	}
	full, err := c.ExecAR(context.Background(), base, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	limited := base
	limited.Limit = 2
	top, err := c.ExecAR(context.Background(), limited, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Rows) != 2 {
		t.Fatalf("LIMIT 2 returned %d rows", len(top.Rows))
	}
	if !EqualResults(top.Rows, full.Rows[:2]) {
		t.Fatalf("top-k %v is not the prefix of the full order %v", top.Rows, full.Rows[:2])
	}
	for i := 1; i < len(full.Rows); i++ {
		if full.Rows[i].Vals[1] > full.Rows[i-1].Vals[1] {
			t.Fatalf("rows not descending by s: %v", full.Rows)
		}
	}

	// HAVING with a hidden aggregate: the hidden value must not surface.
	hq := Query{
		Table:   "fact",
		GroupBy: []string{"g"},
		Aggs: []AggSpec{
			{Name: "n", Func: Count},
			{Name: "hs", Func: Sum, Expr: Col("v"), Hidden: true},
		},
		Having: []HavingFilter{{Agg: 1, Lo: 1, Hi: NoHi}},
	}
	res, err := c.ExecAR(context.Background(), hq, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if len(r.Vals) != 1 {
			t.Fatalf("hidden aggregate surfaced in row %v", r)
		}
	}
	cl, err := c.ExecClassic(context.Background(), hq, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !EqualResults(res.Rows, cl.Rows) {
		t.Fatalf("HAVING: A&R %v != classic %v", res.Rows, cl.Rows)
	}
}

// TestDimFilterOrderingBySelectivity is the satellite regression: the
// optimizer's selectivity-driven filter ordering must extend to
// dimension-side filters — the narrow dimension predicate executes before
// the wide one regardless of the written order.
func TestDimFilterOrderingBySelectivity(t *testing.T) {
	c := NewCatalog(device.PaperSystem())
	rng := rand.New(rand.NewSource(41))

	dim := NewTable("dim")
	n, dimN := 8000, 64
	pk := make([]int64, dimN)
	wide := make([]int64, dimN)
	narrow := make([]int64, dimN)
	for i := range pk {
		pk[i] = int64(i)
		wide[i] = int64(rng.Intn(5000))
		narrow[i] = int64(rng.Intn(5000))
	}
	for name, vals := range map[string][]int64{"id": pk, "wide": wide, "narrow": narrow} {
		if err := dim.AddColumn(name, vals, bat.Width32); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddTable(dim); err != nil {
		t.Fatal(err)
	}
	fact := NewTable("fact")
	fk := make([]int64, n)
	v := make([]int64, n)
	for i := range fk {
		fk[i] = int64(rng.Intn(dimN))
		v[i] = int64(rng.Intn(5000))
	}
	if err := fact.AddColumn("fk", fk, bat.Width32); err != nil {
		t.Fatal(err)
	}
	if err := fact.AddColumn("v", v, bat.Width32); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(fact); err != nil {
		t.Fatal(err)
	}
	for col, bits := range map[string]uint{"fk": 32, "v": 8} {
		if _, err := c.Decompose("fact", col, bits); err != nil {
			t.Fatal(err)
		}
	}
	// Equal decomposition widths, so the relaxed-range fraction is the
	// only thing separating the two dimension filters.
	for _, col := range []string{"wide", "narrow"} {
		if _, err := c.Decompose("dim", col, 10); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.BuildFKIndex("dim", "id"); err != nil {
		t.Fatal(err)
	}

	q := Query{
		Table:   "fact",
		Filters: []Filter{{Col: "v", Lo: 0, Hi: 4999}},
		Joins: []JoinSpec{{FKCol: "fk", Dim: "dim", DimPK: "id",
			// Written wide-first: the optimizer must flip them.
			DimFilters: []Filter{
				{Col: "wide", Lo: 0, Hi: 4999},
				{Col: "narrow", Lo: 0, Hi: 49},
			}}},
		Aggs: []AggSpec{{Name: "n", Func: Count}},
	}
	res, err := c.ExecAR(context.Background(), q, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var firstDim string
	for _, line := range res.Plan() {
		if strings.Contains(line, "uselectapproximate(dim.") {
			firstDim = line
			break
		}
	}
	if !strings.Contains(firstDim, "narrow") {
		t.Errorf("dimension-side filters not reordered by selectivity: first dim select = %q\nplan:\n%s",
			firstDim, strings.Join(res.Plan(), "\n"))
	}
	// The reorder must not change the answer.
	cl, err := c.ExecClassic(context.Background(), q, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	arRes, err := c.ExecAR(context.Background(), q, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !EqualResults(arRes.Rows, cl.Rows) {
		t.Fatal("dimension filter reorder changed the result")
	}
}

// explainQuery plans and pins q under mode and renders the pinned plan —
// what \explain prints.
func explainQuery(c *Catalog, q Query, mode Mode) ([]string, error) {
	pl, err := c.Plan(q, mode)
	if err != nil {
		return nil, err
	}
	x, err := c.Pin(pl)
	if err != nil {
		return nil, err
	}
	return x.Describe(), nil
}

// TestExplainQueryRendersPipeline checks the \explain rendering: scan
// strategy, cost-ordered filters with selectivities, join chain, delta
// and top-k stage markers.
func TestExplainQueryRendersPipeline(t *testing.T) {
	c := buildStarCatalog(t, 5000, 51)
	q := Query{
		Table:   "fact",
		Filters: []Filter{{Col: "v", Lo: 0, Hi: 100}},
		Or:      [][]Filter{{{Col: "w", Lo: 0, Hi: 50}, {Col: "w", Lo: 4000, Hi: NoHi}}},
		Joins:   starJoins([]Filter{{Col: "a", Lo: 0, Hi: 10}}, nil),
		GroupBy: []string{"g"},
		Aggs:    []AggSpec{{Name: "n", Func: Count}, {Name: "s", Func: Sum, Expr: Col("w")}},
		OrderBy: []OrderKey{{Index: 1, Desc: true}},
		Limit:   3,
	}
	lines, err := explainQuery(c, q, ModeAR)
	if err != nil {
		t.Fatal(err)
	}
	text := strings.Join(lines, "\n")
	for _, want := range []string{
		"mode=ar",
		"a&r bit-sliced base of fact",
		"est sel",
		"or: fact.w in [0,50] | fact.w in [4000,+inf]",
		"join 1/2: fact.fk1 -> dim1.id",
		"join 2/2: fact.fk2 -> dim2.id",
		"filter dim1.a in [0,10]",
		"delta: none",
		"group: g",
		"order: s desc (top-3 heap)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("explain output missing %q:\n%s", want, text)
		}
	}
	// Delta presence must be reflected.
	if _, err := c.InsertRows(nil, "fact", [][]int64{{1, 2, 3, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	lines, err = explainQuery(c, q, ModeClassic)
	if err != nil {
		t.Fatal(err)
	}
	text = strings.Join(lines, "\n")
	if !strings.Contains(text, "mode=classic") || !strings.Contains(text, "classic row-major base") {
		t.Errorf("classic explain missing scan strategy:\n%s", text)
	}
	if !strings.Contains(text, "delta: 1 rows") {
		t.Errorf("explain does not reflect the delta stage:\n%s", text)
	}
}

// TestOrderLimitWorkerSweep pins the top-k determinism guarantee: results
// are byte-stable and meters bit-identical across worker counts and
// morsel sizes for ORDER BY ... LIMIT queries.
func TestOrderLimitWorkerSweep(t *testing.T) {
	c := buildStarCatalog(t, 12000, 61)
	q := Query{
		Table:   "fact",
		Filters: []Filter{{Col: "v", Lo: 0, Hi: 4000}},
		GroupBy: []string{"g"},
		Aggs:    []AggSpec{{Name: "n", Func: Count}, {Name: "s", Func: Sum, Expr: Col("w")}},
		OrderBy: []OrderKey{{Index: 0, Desc: true}},
		Limit:   3,
	}
	serial, err := c.ExecAR(context.Background(), q, ExecOpts{Threads: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 7} {
		for _, morsel := range []int{64, 1024, 0} {
			res, err := c.ExecAR(context.Background(), q, ExecOpts{Threads: 1, Workers: workers, Morsel: morsel})
			if err != nil {
				t.Fatal(err)
			}
			if !EqualResults(res.Rows, serial.Rows) {
				t.Fatalf("workers=%d morsel=%d: %v != serial %v", workers, morsel, res.Rows, serial.Rows)
			}
			if *res.Meter != *serial.Meter {
				t.Fatalf("workers=%d morsel=%d: meter %v != serial %v", workers, morsel, res.Meter, serial.Meter)
			}
		}
	}
}

// TestOrderByTiesBreakOnKeys: groups that tie on every ORDER BY key come
// out in group-key order, whatever order the scan discovered them in — here
// descending, and every group ties.
func TestOrderByTiesBreakOnKeys(t *testing.T) {
	rows := make([][]int64, 40)
	for i := range rows {
		rows[i] = []int64{int64(i), 7, int64(len(rows) - 1 - i)} // v, w, g
	}
	for _, parts := range []int{0, 3} {
		c := partPropCatalog(t, parts, shard.Hash, rows)
		for _, limit := range []int{0, 3} {
			q := Query{
				Table:   "fact",
				Filters: []Filter{{Col: "v", Lo: 0, Hi: NoHi}},
				GroupBy: []string{"g"},
				Aggs:    []AggSpec{{Name: "n", Func: Count}},
				OrderBy: []OrderKey{{Index: 0, Desc: true}},
				Limit:   limit,
			}
			ar, err := c.ExecAR(context.Background(), q, ExecOpts{})
			if err != nil {
				t.Fatal(err)
			}
			cl, err := c.ExecClassic(context.Background(), q, ExecOpts{})
			if err != nil {
				t.Fatal(err)
			}
			want := len(rows)
			if limit > 0 {
				want = limit
			}
			if len(ar.Rows) != want || !EqualResults(ar.Rows, cl.Rows) {
				t.Fatalf("partitions=%d limit=%d: A&R %v, classic %v", parts, limit, ar.Rows, cl.Rows)
			}
			for i, r := range ar.Rows {
				if r.Keys[0] != int64(i) || r.Vals[0] != 1 {
					t.Fatalf("partitions=%d limit=%d: row %d is %v, want group %d", parts, limit, i, r, i)
				}
			}
		}
	}
}
