package sql

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/device"
	"repro/internal/plan"
)

func testCatalog(t *testing.T) *plan.Catalog {
	t.Helper()
	c := plan.NewCatalog(device.PaperSystem())
	rng := rand.New(rand.NewSource(3))
	n := 10000

	li := plan.NewTable("lineitem")
	cols := map[string][]int64{}
	for _, name := range []string{"l_shipdate", "l_discount", "l_quantity", "l_extendedprice", "l_partkey", "l_returnflag"} {
		vals := make([]int64, n)
		for i := range vals {
			switch name {
			case "l_discount":
				vals[i] = int64(rng.Intn(10)) + 1
			case "l_quantity":
				vals[i] = int64(rng.Intn(50)) + 1
			case "l_partkey":
				vals[i] = int64(rng.Intn(100)) + 1
			case "l_returnflag":
				vals[i] = int64(rng.Intn(3))
			default:
				vals[i] = int64(rng.Intn(2526))
			}
		}
		cols[name] = vals
		if err := li.AddColumn(name, vals, bat.Width32); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddTable(li); err != nil {
		t.Fatal(err)
	}

	part := plan.NewTable("part")
	pk := make([]int64, 100)
	ptype := make([]int64, 100)
	for i := range pk {
		pk[i] = int64(i) + 1
		ptype[i] = int64(i % 10)
	}
	if err := part.AddColumn("p_partkey", pk, bat.Width32); err != nil {
		t.Fatal(err)
	}
	if err := part.AddColumn("p_type", ptype, bat.Width32); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(part); err != nil {
		t.Fatal(err)
	}
	if err := c.BuildFKIndex("part", "p_partkey"); err != nil {
		t.Fatal(err)
	}
	return c
}

func mustRun(t *testing.T, c *plan.Catalog, src string) *plan.Result {
	t.Helper()
	res, err := Run(c, src, plan.ExecOpts{})
	if err != nil {
		t.Fatalf("Run(%q): %v", src, err)
	}
	return res
}

func TestBWDecomposeStatement(t *testing.T) {
	c := testCatalog(t)
	res := mustRun(t, c, "select bwdecompose(l_shipdate, 24), bwdecompose(l_discount, 24) from lineitem")
	if res == nil || res.Rows != nil || len(res.Plan()) != 1 || res.Plan()[0] != "decomposed" {
		t.Fatalf("bwdecompose should return a rowless 'decomposed' result, got %+v", res)
	}
	if res.Meter == nil {
		t.Fatal("bwdecompose result carries no meter (implicit compaction would go uncharged)")
	}
	if _, err := c.Decomposition("lineitem", "l_shipdate"); err != nil {
		t.Fatalf("decomposition not applied: %v", err)
	}
}

func TestSimpleAggregate(t *testing.T) {
	c := testCatalog(t)
	mustRun(t, c, "select bwdecompose(l_shipdate, 8) from lineitem")
	res := mustRun(t, c, "select count(*) as n from lineitem where l_shipdate between 100 and 500")

	q := plan.Query{
		Table:   "lineitem",
		Filters: []plan.Filter{{Col: "l_shipdate", Lo: 100, Hi: 500}},
		Aggs:    []plan.AggSpec{{Name: "n", Func: plan.Count}},
	}
	want, err := c.ExecClassic(context.Background(), q, plan.ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.EqualResults(res.Rows, want.Rows) {
		t.Fatalf("SQL result %v != engine result %v", res.Rows, want.Rows)
	}
	if want.Rows[0].Vals[0] == 0 {
		t.Fatal("count is zero; bad test data")
	}
}

func TestQ6Shape(t *testing.T) {
	c := testCatalog(t)
	for _, col := range []string{"l_shipdate", "l_discount", "l_quantity", "l_extendedprice"} {
		mustRun(t, c, "select bwdecompose("+col+", 32) from lineitem")
	}
	res := mustRun(t, c, `
		select sum(l_extendedprice * l_discount) as revenue
		from lineitem
		where l_shipdate between 731 and 1095
		  and l_discount between 5 and 7
		  and l_quantity < 24`)
	if len(res.Rows) != 1 || res.Rows[0].Vals[0] <= 0 {
		t.Fatalf("unexpected revenue result: %v", res.Rows)
	}
}

func TestGroupByWithKeysInSelect(t *testing.T) {
	c := testCatalog(t)
	for _, col := range []string{"l_shipdate", "l_returnflag", "l_quantity"} {
		mustRun(t, c, "select bwdecompose("+col+", 32) from lineitem")
	}
	res := mustRun(t, c, `
		select l_returnflag, sum(l_quantity) as q, count(*) as n, avg(l_quantity) as aq,
		       min(l_quantity) as lo, max(l_quantity) as hi
		from lineitem where l_shipdate <= 2000 group by l_returnflag`)
	if len(res.Rows) != 3 {
		t.Fatalf("expected 3 returnflag groups, got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Vals[1] == 0 {
			t.Error("empty group emitted")
		}
	}
}

func TestJoinQuery(t *testing.T) {
	c := testCatalog(t)
	for _, col := range []string{"l_shipdate", "l_partkey", "l_extendedprice"} {
		mustRun(t, c, "select bwdecompose("+col+", 32) from lineitem")
	}
	mustRun(t, c, "select bwdecompose(part.p_type, 32) from part")
	res := mustRun(t, c, `
		select sum(l_extendedprice) as rev, count(*) as n
		from lineitem join part on lineitem.l_partkey = part.p_partkey
		where l_shipdate < 1000 and part.p_type between 2 and 4`)
	if len(res.Rows) != 1 || res.Rows[0].Vals[1] == 0 {
		t.Fatalf("join query found nothing: %v", res.Rows)
	}

	// Cross-check against the classic engine.
	q := plan.Query{
		Table:   "lineitem",
		Filters: []plan.Filter{{Col: "l_shipdate", Lo: plan.NoLo, Hi: 999}},
		Joins: []plan.JoinSpec{{FKCol: "l_partkey", Dim: "part", DimPK: "p_partkey",
			DimFilters: []plan.Filter{{Col: "p_type", Lo: 2, Hi: 4}}}},
		Aggs: []plan.AggSpec{
			{Name: "rev", Func: plan.Sum, Expr: plan.Col("l_extendedprice")},
			{Name: "n", Func: plan.Count},
		},
	}
	want, err := c.ExecClassic(context.Background(), q, plan.ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.EqualResults(res.Rows, want.Rows) {
		t.Fatalf("SQL join %v != engine %v", res.Rows, want.Rows)
	}
}

func TestExplain(t *testing.T) {
	c := testCatalog(t)
	mustRun(t, c, "select bwdecompose(l_shipdate, 8) from lineitem")
	res := mustRun(t, c, "explain select count(*) from lineitem where l_shipdate < 100")
	text := strings.Join(res.Plan(), "\n")
	if !strings.Contains(text, "bwd.uselectapproximate(lineitem.l_shipdate)") {
		t.Errorf("explain output missing approximate select:\n%s", text)
	}
	if !strings.Contains(text, "bwd.uselectrefine(lineitem.l_shipdate)") {
		t.Errorf("explain output missing refine:\n%s", text)
	}
}

func TestDecimalLiteralScaling(t *testing.T) {
	stmt, err := Parse("select count(*) from trips where lon between 2.68288 and 2.70228")
	if err != nil {
		t.Fatal(err)
	}
	p := stmt.Select.Where[0].Preds[0]
	if p.Lo != 268288 || p.Hi != 270228 {
		t.Errorf("decimal literals scaled to %d, %d; want 268288, 270228", p.Lo, p.Hi)
	}
}

func TestOperatorCanonicalization(t *testing.T) {
	c := testCatalog(t)
	mustRun(t, c, "select bwdecompose(l_quantity, 32) from lineitem")
	lt := mustRun(t, c, "select count(*) as n from lineitem where l_quantity < 24")
	le := mustRun(t, c, "select count(*) as n from lineitem where l_quantity <= 23")
	if !plan.EqualResults(lt.Rows, le.Rows) {
		t.Error("v < 24 must equal v <= 23")
	}
	gt := mustRun(t, c, "select count(*) as n from lineitem where l_quantity > 24")
	ge := mustRun(t, c, "select count(*) as n from lineitem where l_quantity >= 25")
	if !plan.EqualResults(gt.Rows, ge.Rows) {
		t.Error("v > 24 must equal v >= 25")
	}
	eq := mustRun(t, c, "select count(*) as n from lineitem where l_quantity = 24")
	total := mustRun(t, c, "select count(*) as n from lineitem where l_quantity between 1 and 50")
	sum := lt.Rows[0].Vals[0] + gt.Rows[0].Vals[0] + eq.Rows[0].Vals[0]
	if sum != total.Rows[0].Vals[0] {
		t.Errorf("partition by <,=,> does not cover: %d != %d", sum, total.Rows[0].Vals[0])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"select",
		"select from lineitem",
		"select count(* from lineitem",
		"select sum(*) from lineitem",
		"select count(*) from lineitem where",
		"select count(*) from lineitem where l_shipdate ! 5",
		"select count(*) from lineitem where l_shipdate between 1",
		"select count(*) lineitem",
		"select count(*) from lineitem group l_returnflag",
		"select count(*) from lineitem trailing",
		"select count(*) from lineitem where l_shipdate < 'abc",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) did not fail", src)
		}
	}
}

func TestBindErrors(t *testing.T) {
	c := testCatalog(t)
	bad := []string{
		"select count(*) from nope",
		"select l_shipdate from lineitem",                                         // bare column without grouping
		"select count(*) from lineitem where bogus.l_shipdate < 5",                // unknown qualifier
		"select bwdecompose(l_shipdate, 99) from lineitem",                        // bits out of range
		"select bwdecompose(l_shipdate, 8), count(*) from lineitem",               // mixed bwdecompose
		"select count(*) from lineitem join part on part.p_type = part.p_partkey", // join not relating tables
		"select count(*) from lineitem group by part.p_type",
	}
	for _, src := range bad {
		stmt, err := Parse(src)
		if err != nil {
			continue // some are parse-level failures, fine
		}
		if _, err := Bind(stmt, c); err == nil {
			t.Errorf("Bind(%q) did not fail", src)
		}
	}
}

func TestRunUndedecomposedColumnFails(t *testing.T) {
	c := testCatalog(t)
	if _, err := Run(c, "select count(*) from lineitem where l_tax < 5", plan.ExecOpts{}); err == nil {
		t.Error("query over unknown column did not fail")
	}
	if _, err := Run(c, "select count(*) from lineitem where l_shipdate < 5", plan.ExecOpts{}); err == nil {
		t.Error("query over undecomposed column did not fail (A&R needs bwdecompose)")
	}
}

// TestSQLFuzzARMatchesClassic drives randomly generated SQL through the
// full stack (lex -> parse -> bind -> A&R execution) and cross-checks
// every query against the classic engine: the end-to-end version of
// DESIGN.md invariant 9.
func TestSQLFuzzARMatchesClassic(t *testing.T) {
	c := testCatalog(t)
	for _, col := range []string{"l_shipdate", "l_discount", "l_quantity", "l_extendedprice", "l_returnflag"} {
		mustRun(t, c, "select bwdecompose("+col+", 9) from lineitem")
	}
	rng := rand.New(rand.NewSource(99))
	filterCols := []string{"l_shipdate", "l_discount", "l_quantity"}
	maxVal := map[string]int{"l_shipdate": 2600, "l_discount": 11, "l_quantity": 51}
	aggs := []string{
		"count(*) as n",
		"sum(l_extendedprice) as s",
		"min(l_quantity) as lo",
		"max(l_quantity) as hi",
		"avg(l_discount) as d",
		"sum(l_extendedprice * l_discount) as rev",
		"sum(l_extendedprice - l_quantity) as diff",
	}
	for trial := 0; trial < 40; trial++ {
		sqlText := "select " + aggs[trial%len(aggs)] + ", count(*) as cnt from lineitem"
		nf := rng.Intn(3)
		for f := 0; f <= nf && f < len(filterCols); f++ {
			col := filterCols[f]
			lo := rng.Intn(maxVal[col])
			hi := lo + rng.Intn(maxVal[col]-lo)
			kw := " and "
			if f == 0 {
				kw = " where "
			}
			sqlText += fmt.Sprintf("%s%s between %d and %d", kw, col, lo, hi)
		}
		grouped := rng.Intn(2) == 0
		if grouped {
			sqlText += " group by l_returnflag"
		}

		stmt, err := Parse(sqlText)
		if err != nil {
			t.Fatalf("trial %d: Parse(%q): %v", trial, sqlText, err)
		}
		binding, err := Bind(stmt, c)
		if err != nil {
			t.Fatalf("trial %d: Bind(%q): %v", trial, sqlText, err)
		}
		arRes, err := c.ExecAR(context.Background(), binding.Query, plan.ExecOpts{})
		if err != nil {
			t.Fatalf("trial %d: ExecAR: %v", trial, err)
		}
		clRes, err := c.ExecClassic(context.Background(), binding.Query, plan.ExecOpts{})
		if err != nil {
			t.Fatalf("trial %d: ExecClassic: %v", trial, err)
		}
		if !plan.EqualResults(arRes.Rows, clRes.Rows) {
			t.Fatalf("trial %d: %q\nA&R: %sclassic: %s", trial, sqlText,
				plan.FormatRows(arRes.Rows), plan.FormatRows(clRes.Rows))
		}
	}
}
