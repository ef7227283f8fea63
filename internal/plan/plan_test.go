package plan

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/device"
)

// buildFactCatalog creates a catalog with one fact table of shuffled
// integer columns and decomposes every column.
func buildFactCatalog(t *testing.T, n int, seed int64, bits map[string]uint) *Catalog {
	t.Helper()
	c := NewCatalog(device.PaperSystem())
	rng := rand.New(rand.NewSource(seed))
	tbl := NewTable("fact")
	for col, b := range bits {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(n))
		}
		if err := tbl.AddColumn(col, vals, bat.Width32); err != nil {
			t.Fatal(err)
		}
		_ = b
	}
	if err := c.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	for col, b := range bits {
		if _, err := c.Decompose("fact", col, b); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestARMatchesClassicSimpleCount(t *testing.T) {
	c := buildFactCatalog(t, 20000, 1, map[string]uint{"a": 8})
	q := Query{
		Table:   "fact",
		Filters: []Filter{{Col: "a", Lo: 1000, Hi: 7000}},
		Aggs:    []AggSpec{{Name: "n", Func: Count}},
	}
	arRes, err := c.ExecAR(context.Background(), q, ExecOpts{})
	if err != nil {
		t.Fatalf("ExecAR: %v", err)
	}
	clRes, err := c.ExecClassic(context.Background(), q, ExecOpts{})
	if err != nil {
		t.Fatalf("ExecClassic: %v", err)
	}
	if !EqualResults(arRes.Rows, clRes.Rows) {
		t.Fatalf("A&R != classic:\n%s\nvs\n%s", FormatRows(arRes.Rows), FormatRows(clRes.Rows))
	}
	if arRes.Candidates < arRes.Refined {
		t.Error("candidate set smaller than refined set")
	}
	if !arRes.Approx.Count.Contains(int64(arRes.Refined)) {
		t.Errorf("approximate count %v does not contain exact %d", arRes.Approx.Count, arRes.Refined)
	}
}

func TestARMatchesClassicSumWithArithmetic(t *testing.T) {
	c := buildFactCatalog(t, 15000, 2, map[string]uint{"date": 9, "price": 7, "disc": 6})
	// sum(price * (10000 - disc) / 10000): the Q6-like destructive case.
	q := Query{
		Table:   "fact",
		Filters: []Filter{{Col: "date", Lo: 2000, Hi: 9000}, {Col: "disc", Lo: 100, Hi: 12000}},
		Aggs: []AggSpec{
			{Name: "rev", Func: Sum, Expr: MulScaled(Col("price"), Sub(Const(20000), Col("disc")), 20000)},
			{Name: "n", Func: Count},
			{Name: "lo", Func: Min, Expr: Col("price")},
			{Name: "hi", Func: Max, Expr: Col("price")},
			{Name: "mean", Func: Avg, Expr: Col("price")},
		},
	}
	arRes, err := c.ExecAR(context.Background(), q, ExecOpts{})
	if err != nil {
		t.Fatalf("ExecAR: %v", err)
	}
	clRes, err := c.ExecClassic(context.Background(), q, ExecOpts{})
	if err != nil {
		t.Fatalf("ExecClassic: %v", err)
	}
	if !EqualResults(arRes.Rows, clRes.Rows) {
		t.Fatalf("A&R != classic:\n%s\nvs\n%s", FormatRows(arRes.Rows), FormatRows(clRes.Rows))
	}
	// Exact sum must lie inside the phase-A bounds.
	if !arRes.Approx.Aggs[0].Contains(arRes.Rows[0].Vals[0]) {
		t.Errorf("approximate sum %v does not contain exact %d",
			arRes.Approx.Aggs[0], arRes.Rows[0].Vals[0])
	}
}

func TestARMatchesClassicGrouped(t *testing.T) {
	n := 20000
	c := NewCatalog(device.PaperSystem())
	rng := rand.New(rand.NewSource(3))
	tbl := NewTable("fact")
	flag := make([]int64, n)
	status := make([]int64, n)
	qty := make([]int64, n)
	date := make([]int64, n)
	for i := 0; i < n; i++ {
		flag[i] = int64(rng.Intn(3))
		status[i] = int64(rng.Intn(2))
		qty[i] = int64(rng.Intn(50)) + 1
		date[i] = int64(rng.Intn(2526))
	}
	for name, vals := range map[string][]int64{"flag": flag, "status": status, "qty": qty, "date": date} {
		if err := tbl.AddColumn(name, vals, bat.Width32); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"flag", "status", "qty"} {
		if _, err := c.Decompose("fact", col, 32); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Decompose("fact", "date", 8); err != nil {
		t.Fatal(err)
	}

	q := Query{
		Table:   "fact",
		Filters: []Filter{{Col: "date", Lo: 0, Hi: 2000}},
		GroupBy: []string{"flag", "status"},
		Aggs: []AggSpec{
			{Name: "sum_qty", Func: Sum, Expr: Col("qty")},
			{Name: "n", Func: Count},
			{Name: "avg_qty", Func: Avg, Expr: Col("qty")},
		},
	}
	arRes, err := c.ExecAR(context.Background(), q, ExecOpts{})
	if err != nil {
		t.Fatalf("ExecAR: %v", err)
	}
	clRes, err := c.ExecClassic(context.Background(), q, ExecOpts{})
	if err != nil {
		t.Fatalf("ExecClassic: %v", err)
	}
	if !EqualResults(arRes.Rows, clRes.Rows) {
		t.Fatalf("grouped A&R != classic:\n%s\nvs\n%s", FormatRows(arRes.Rows), FormatRows(clRes.Rows))
	}
	if len(arRes.Rows) != 6 {
		t.Errorf("expected 6 groups (3 flags x 2 statuses), got %d", len(arRes.Rows))
	}
}

func TestARMatchesClassicDecomposedGroupColumn(t *testing.T) {
	c := buildFactCatalog(t, 10000, 4, map[string]uint{"g": 5, "sel": 8, "v": 9})
	q := Query{
		Table:   "fact",
		Filters: []Filter{{Col: "sel", Lo: 100, Hi: 6000}},
		GroupBy: []string{"g"},
		Aggs:    []AggSpec{{Name: "s", Func: Sum, Expr: Col("v")}, {Name: "n", Func: Count}},
	}
	arRes, err := c.ExecAR(context.Background(), q, ExecOpts{})
	if err != nil {
		t.Fatalf("ExecAR: %v", err)
	}
	clRes, err := c.ExecClassic(context.Background(), q, ExecOpts{})
	if err != nil {
		t.Fatalf("ExecClassic: %v", err)
	}
	if !EqualResults(arRes.Rows, clRes.Rows) {
		t.Fatal("A&R with decomposed grouping column != classic")
	}
}

func TestARMatchesClassicJoin(t *testing.T) {
	// Fact with FK into a dimension; filter on a dimension attribute.
	n, dimN := 20000, 125
	c := NewCatalog(device.PaperSystem())
	rng := rand.New(rand.NewSource(5))

	dim := NewTable("part")
	pk := make([]int64, dimN)
	ptype := make([]int64, dimN)
	for i := 0; i < dimN; i++ {
		pk[i] = int64(i) + 1
		ptype[i] = int64(i % 25)
	}
	if err := dim.AddColumn("p_partkey", pk, bat.Width32); err != nil {
		t.Fatal(err)
	}
	if err := dim.AddColumn("p_type", ptype, bat.Width32); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(dim); err != nil {
		t.Fatal(err)
	}

	fact := NewTable("fact")
	fk := make([]int64, n)
	date := make([]int64, n)
	price := make([]int64, n)
	for i := 0; i < n; i++ {
		fk[i] = int64(rng.Intn(dimN)) + 1
		date[i] = int64(rng.Intn(2526))
		price[i] = int64(rng.Intn(100000))
	}
	for name, vals := range map[string][]int64{"fk": fk, "date": date, "price": price} {
		if err := fact.AddColumn(name, vals, bat.Width32); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddTable(fact); err != nil {
		t.Fatal(err)
	}

	for col, bits := range map[string]uint{"fk": 32, "date": 8, "price": 10} {
		if _, err := c.Decompose("fact", col, bits); err != nil {
			t.Fatal(err)
		}
	}
	for col, bits := range map[string]uint{"p_type": 32} {
		if _, err := c.Decompose("part", col, bits); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.BuildFKIndex("part", "p_partkey"); err != nil {
		t.Fatal(err)
	}

	q := Query{
		Table:   "fact",
		Filters: []Filter{{Col: "date", Lo: 300, Hi: 600}},
		Joins: []JoinSpec{{
			FKCol: "fk", Dim: "part", DimPK: "p_partkey",
			DimFilters: []Filter{{Col: "p_type", Lo: 5, Hi: 9}},
		}},
		Aggs: []AggSpec{
			{Name: "rev", Func: Sum, Expr: Col("price")},
			{Name: "promo", Func: Sum, Expr: CaseRange(DimCol("part", "p_type"), 5, 7, Col("price"), Const(0))},
			{Name: "n", Func: Count},
		},
	}
	arRes, err := c.ExecAR(context.Background(), q, ExecOpts{})
	if err != nil {
		t.Fatalf("ExecAR: %v", err)
	}
	clRes, err := c.ExecClassic(context.Background(), q, ExecOpts{})
	if err != nil {
		t.Fatalf("ExecClassic: %v", err)
	}
	if !EqualResults(arRes.Rows, clRes.Rows) {
		t.Fatalf("join A&R != classic:\n%s\nvs\n%s", FormatRows(arRes.Rows), FormatRows(clRes.Rows))
	}
}

// TestARMatchesClassicRandomized is invariant 9 of DESIGN.md: arbitrary
// supported queries produce identical results under both execution models.
func TestARMatchesClassicRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 25; trial++ {
		bits := map[string]uint{
			"a": uint(rng.Intn(12)) + 4,
			"b": uint(rng.Intn(12)) + 4,
			"g": uint(rng.Intn(28)) + 4,
		}
		c := buildFactCatalog(t, 5000, int64(trial+100), bits)
		q := Query{Table: "fact"}
		nf := rng.Intn(3)
		cols := []string{"a", "b"}
		for f := 0; f <= nf && f < 2; f++ {
			lo := int64(rng.Intn(5000))
			hi := lo + int64(rng.Intn(5000))
			q.Filters = append(q.Filters, Filter{Col: cols[f], Lo: lo, Hi: hi})
		}
		if rng.Intn(2) == 0 {
			q.GroupBy = []string{"g"}
		}
		q.Aggs = []AggSpec{
			{Name: "n", Func: Count},
			{Name: "s", Func: Sum, Expr: Add(Col("a"), Col("b"))},
			{Name: "m", Func: Max, Expr: Col("b")},
		}
		arRes, err := c.ExecAR(context.Background(), q, ExecOpts{})
		if err != nil {
			t.Fatalf("trial %d ExecAR: %v", trial, err)
		}
		clRes, err := c.ExecClassic(context.Background(), q, ExecOpts{})
		if err != nil {
			t.Fatalf("trial %d ExecClassic: %v", trial, err)
		}
		if !EqualResults(arRes.Rows, clRes.Rows) {
			t.Fatalf("trial %d: A&R != classic\nquery: %+v\nAR:\n%s\nclassic:\n%s",
				trial, q, FormatRows(arRes.Rows), FormatRows(clRes.Rows))
		}
		c.ReleaseDecompositions()
	}
}

func TestMeterSeparation(t *testing.T) {
	c := buildFactCatalog(t, 10000, 7, map[string]uint{"a": 8, "v": 8})
	q := Query{
		Table:   "fact",
		Filters: []Filter{{Col: "a", Lo: 0, Hi: 3000}},
		Aggs:    []AggSpec{{Name: "s", Func: Sum, Expr: Col("v")}},
	}
	arRes, err := c.ExecAR(context.Background(), q, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if arRes.Meter.GPU == 0 || arRes.Meter.PCI == 0 || arRes.Meter.CPU == 0 {
		t.Errorf("A&R must involve all three resources: %v", arRes.Meter)
	}
	clRes, err := c.ExecClassic(context.Background(), q, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if clRes.Meter.GPU != 0 || clRes.Meter.PCI != 0 {
		t.Errorf("classic plan charged device/bus time: %v", clRes.Meter)
	}
	if clRes.Meter.CPU == 0 {
		t.Error("classic plan charged no CPU time")
	}
	if arRes.InputBytes != clRes.InputBytes {
		t.Errorf("input-byte accounting differs: %d vs %d", arRes.InputBytes, clRes.InputBytes)
	}
	if arRes.InputBytes != 2*10000*4 {
		t.Errorf("InputBytes = %d, want %d", arRes.InputBytes, 2*10000*4)
	}
}

func TestPlanListingMALStyle(t *testing.T) {
	c := buildFactCatalog(t, 5000, 8, map[string]uint{"shipdate": 8, "price": 8})
	q := Query{
		Table:   "fact",
		Filters: []Filter{{Col: "shipdate", Lo: 100, Hi: 2000}},
		Aggs:    []AggSpec{{Name: "s", Func: Sum, Expr: Col("price")}},
	}
	res, err := c.ExecAR(context.Background(), q, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	planText := strings.Join(res.Plan(), "\n")
	// The Fig 7 shape: paired approximate/refine operators, approximations
	// strictly before refinements.
	for _, want := range []string{
		"bwd.uselectapproximate(fact.shipdate)",
		"bwd.uselectrefine(fact.shipdate)",
		"bwd.leftjoinapproximate(fact.price)",
		"bwd.sumapproximate(s)",
		"bwd.sumrefine(s)",
	} {
		if !strings.Contains(planText, want) {
			t.Errorf("plan listing missing %q:\n%s", want, planText)
		}
	}
	lastApprox, firstRefine := -1, len(res.Plan())
	for i, line := range res.Plan() {
		if strings.Contains(line, "approximate") && i > lastApprox {
			lastApprox = i
		}
		if strings.Contains(line, "refine") && i < firstRefine {
			firstRefine = i
		}
	}
	if lastApprox > firstRefine {
		t.Error("an approximate operator depends on a refine operator (violates Fig 7)")
	}
}

func TestOptimizerOrdersBySelectivity(t *testing.T) {
	c := buildFactCatalog(t, 5000, 9, map[string]uint{"wide": 10, "narrow": 10})
	// "narrow" filter admits 1% of codes, "wide" admits ~100%.
	q := Query{
		Table: "fact",
		Filters: []Filter{
			{Col: "wide", Lo: 0, Hi: 4999},
			{Col: "narrow", Lo: 0, Hi: 49},
		},
		Aggs: []AggSpec{{Name: "n", Func: Count}},
	}
	res, err := c.ExecAR(context.Background(), q, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// The narrow selection must have been pushed first.
	var first string
	for _, line := range res.Plan() {
		if strings.Contains(line, "uselectapproximate") {
			first = line
			break
		}
	}
	if !strings.Contains(first, "narrow") {
		t.Errorf("optimizer did not push the selective filter down: first select = %q", first)
	}
}

func TestValidationErrors(t *testing.T) {
	c := buildFactCatalog(t, 100, 10, map[string]uint{"a": 8})
	if _, err := c.ExecAR(context.Background(), Query{Table: "nope"}, ExecOpts{}); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := c.ExecAR(context.Background(), Query{Table: "fact", Filters: []Filter{{Col: "missing", Lo: 0, Hi: 1}}}, ExecOpts{}); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := c.ExecAR(context.Background(), Query{Table: "fact"}, ExecOpts{}); err == nil {
		t.Error("empty query accepted")
	}
	// Undecomposed column in an A&R plan must error; classic must work.
	c2 := NewCatalog(device.PaperSystem())
	tbl := NewTable("fact")
	if err := tbl.AddColumn("raw", make([]int64, 100), bat.Width32); err != nil {
		t.Fatal(err)
	}
	if err := c2.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	q := Query{Table: "fact", Filters: []Filter{{Col: "raw", Lo: 0, Hi: 1}}, Aggs: []AggSpec{{Name: "n", Func: Count}}}
	if _, err := c2.ExecAR(context.Background(), q, ExecOpts{}); err == nil {
		t.Error("undecomposed column accepted by A&R plan")
	}
	if _, err := c2.ExecClassic(context.Background(), q, ExecOpts{}); err != nil {
		t.Errorf("classic plan rejected undecomposed column: %v", err)
	}
}

func TestCatalogBasics(t *testing.T) {
	c := NewCatalog(device.PaperSystem())
	tbl := NewTable("t")
	if err := tbl.AddColumn("a", []int64{1, 2, 3}, bat.Width32); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddColumn("a", []int64{1, 2, 3}, bat.Width32); err == nil {
		t.Error("duplicate column accepted")
	}
	if err := tbl.AddColumn("b", []int64{1}, bat.Width32); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := c.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(tbl); err == nil {
		t.Error("duplicate table accepted")
	}
	if got := tbl.Columns(); len(got) != 1 || got[0] != "a" {
		t.Errorf("Columns = %v", got)
	}
	if _, err := c.Decompose("t", "a", 8); err != nil {
		t.Fatal(err)
	}
	// Re-decomposition replaces and releases the old one.
	gpuUsed := c.System().GPU.Used()
	if _, err := c.Decompose("t", "a", 4); err != nil {
		t.Fatal(err)
	}
	if c.System().GPU.Used() > gpuUsed {
		t.Error("re-decomposition leaked GPU memory")
	}
	c.ReleaseDecompositions()
	if c.System().GPU.Used() != 0 {
		t.Error("ReleaseDecompositions left GPU memory allocated")
	}
}
