package sql

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/device"
	"repro/internal/plan"
)

// starCatalog builds a two-dimension star schema for the widened SQL
// surface tests (multi-join, OR, HAVING, ORDER BY/LIMIT).
func starCatalog(t *testing.T) *plan.Catalog {
	t.Helper()
	c := plan.NewCatalog(device.PaperSystem())
	rng := rand.New(rand.NewSource(9))
	n := 8000

	addDim := func(name, attr string, dimN int) {
		d := plan.NewTable(name)
		pk := make([]int64, dimN)
		av := make([]int64, dimN)
		for i := range pk {
			pk[i] = int64(i)
			av[i] = int64(rng.Intn(100))
		}
		if err := d.AddColumn("id", bat.NewDense(pk, bat.Width32)); err != nil {
			t.Fatal(err)
		}
		if err := d.AddColumn(attr, bat.NewDense(av, bat.Width32)); err != nil {
			t.Fatal(err)
		}
		if err := c.AddTable(d); err != nil {
			t.Fatal(err)
		}
		if err := c.BuildFKIndex(name, "id"); err != nil {
			t.Fatal(err)
		}
	}
	addDim("dcust", "region", 40)
	addDim("ditem", "kind", 25)

	fact := plan.NewTable("sales")
	cols := map[string]func() int64{
		"qty":   func() int64 { return int64(rng.Intn(100)) },
		"price": func() int64 { return int64(rng.Intn(5000)) },
		"day":   func() int64 { return int64(rng.Intn(365)) },
		"cust":  func() int64 { return int64(rng.Intn(40)) },
		"item":  func() int64 { return int64(rng.Intn(25)) },
	}
	for _, name := range []string{"qty", "price", "day", "cust", "item"} {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = cols[name]()
		}
		if err := fact.AddColumn(name, bat.NewDense(vals, bat.Width32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddTable(fact); err != nil {
		t.Fatal(err)
	}
	return c
}

func decomposeStar(t *testing.T, c *plan.Catalog) {
	t.Helper()
	for _, stmt := range []string{
		"select bwdecompose(qty, 7), bwdecompose(price, 8), bwdecompose(day, 6), bwdecompose(cust, 32), bwdecompose(item, 32) from sales",
		"select bwdecompose(region, 5) from dcust",
		"select bwdecompose(kind, 5) from ditem",
	} {
		mustRun(t, c, stmt)
	}
}

// TestMultiJoinSQL runs a two-dimension star query through SQL and
// cross-checks it against the equivalent logical plan in classic mode.
func TestMultiJoinSQL(t *testing.T) {
	c := starCatalog(t)
	decomposeStar(t, c)
	res := mustRun(t, c, `
		select count(*) as n, sum(price) as rev
		from sales
		join dcust on sales.cust = dcust.id
		join ditem on sales.item = ditem.id
		where day < 200 and dcust.region < 50 and ditem.kind >= 20`)
	q := plan.Query{
		Table:   "sales",
		Filters: []plan.Filter{{Col: "day", Lo: plan.NoLo, Hi: 199}},
		Joins: []plan.JoinSpec{
			{FKCol: "cust", Dim: "dcust", DimPK: "id", DimFilters: []plan.Filter{{Col: "region", Lo: plan.NoLo, Hi: 49}}},
			{FKCol: "item", Dim: "ditem", DimPK: "id", DimFilters: []plan.Filter{{Col: "kind", Lo: 20, Hi: plan.NoHi}}},
		},
		Aggs: []plan.AggSpec{{Name: "n", Func: plan.Count}, {Name: "rev", Func: plan.Sum, Expr: plan.Col("price")}},
	}
	want, err := c.ExecClassic(context.Background(), q, plan.ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.EqualResults(res.Rows, want.Rows) {
		t.Fatalf("SQL star join %v != engine %v", res.Rows, want.Rows)
	}
	if res.Rows[0].Vals[0] == 0 {
		t.Fatal("star join matched nothing; bad test data")
	}
	// Aggregating over both dimensions' attributes in one expression.
	res2 := mustRun(t, c, `
		select sum(dcust.region + ditem.kind) as s
		from sales join dcust on sales.cust = dcust.id join ditem on sales.item = ditem.id
		where day < 100`)
	if res2.Rows[0].Vals[0] == 0 {
		t.Fatal("cross-dimension aggregate is zero; bad test data")
	}
}

// TestOrSQL checks the disjunction surface: parenthesized OR groups mixed
// with AND, a whole-clause bare OR, and the inclusion-exclusion identity.
func TestOrSQL(t *testing.T) {
	c := starCatalog(t)
	decomposeStar(t, c)
	count := func(src string) int64 {
		res := mustRun(t, c, src)
		return res.Rows[0].Vals[0]
	}
	a := count("select count(*) as n from sales where qty < 20")
	b := count("select count(*) as n from sales where price >= 4000")
	both := count("select count(*) as n from sales where qty < 20 and price >= 4000")
	union := count("select count(*) as n from sales where qty < 20 or price >= 4000")
	if union != a+b-both {
		t.Fatalf("OR union %d != %d + %d - %d", union, a, b, both)
	}
	mixed := count("select count(*) as n from sales where (qty < 20 or price >= 4000) and day < 100")
	if mixed <= 0 || mixed > union {
		t.Fatalf("parenthesized OR with AND conjunct: implausible count %d (union %d)", mixed, union)
	}
}

// TestHavingOrderLimitSQL checks HAVING (aliased and hidden aggregates),
// ORDER BY over aliases/keys/aggregate calls, and LIMIT.
func TestHavingOrderLimitSQL(t *testing.T) {
	c := starCatalog(t)
	decomposeStar(t, c)
	full := mustRun(t, c, `
		select day, count(*) as n, sum(price) as rev from sales
		where qty < 90 group by day having count(*) > 10
		order by rev desc, day asc`)
	if len(full.Rows) == 0 {
		t.Fatal("HAVING filtered everything; bad test data")
	}
	for _, r := range full.Rows {
		if r.Vals[0] <= 10 {
			t.Fatalf("HAVING count(*) > 10 leaked group %v", r)
		}
		if len(r.Vals) != 2 {
			t.Fatalf("row has %d values, want 2 (day key + n + rev)", len(r.Vals))
		}
	}
	for i := 1; i < len(full.Rows); i++ {
		a, b := full.Rows[i-1], full.Rows[i]
		if b.Vals[1] > a.Vals[1] || (b.Vals[1] == a.Vals[1] && b.Keys[0] < a.Keys[0]) {
			t.Fatalf("rows out of order at %d: %v then %v", i, a, b)
		}
	}
	top := mustRun(t, c, `
		select day, count(*) as n, sum(price) as rev from sales
		where qty < 90 group by day having count(*) > 10
		order by rev desc, day asc limit 5`)
	if len(top.Rows) != 5 {
		t.Fatalf("LIMIT 5 returned %d rows", len(top.Rows))
	}
	if !plan.EqualResults(top.Rows, full.Rows[:5]) {
		t.Fatalf("top-k %v != prefix of full order %v", top.Rows, full.Rows[:5])
	}

	// HAVING on an aggregate that is not selected: computed hidden.
	hidden := mustRun(t, c, `
		select day, count(*) as n from sales group by day
		having sum(price) > 100000 order by n desc limit 3`)
	for _, r := range hidden.Rows {
		if len(r.Vals) != 1 {
			t.Fatalf("hidden aggregate surfaced: %v", r)
		}
	}

	// ORDER BY a group key alone; LIMIT without ORDER BY.
	if res := mustRun(t, c, "select day, count(*) as n from sales group by day order by day desc limit 2"); len(res.Rows) != 2 ||
		res.Rows[0].Keys[0] < res.Rows[1].Keys[0] {
		t.Fatalf("order by key desc limit 2 returned %v", res.Rows)
	}
	if res := mustRun(t, c, "select day, count(*) as n from sales group by day limit 4"); len(res.Rows) != 4 {
		t.Fatalf("bare LIMIT returned %d rows", len(res.Rows))
	}
}

// TestNewShapesEquivalenceSQL runs the widened surface through both
// executors via SQL and asserts identical results.
func TestNewShapesEquivalenceSQL(t *testing.T) {
	c := starCatalog(t)
	decomposeStar(t, c)
	stmts := []string{
		"select count(*) as n, sum(qty) as s from sales where qty < 30 or price > 2500",
		`select count(*) as n from sales join dcust on sales.cust = dcust.id
		 join ditem on sales.item = ditem.id where dcust.region < 60 and ditem.kind < 15`,
		`select day, sum(price) as rev from sales where (qty < 10 or qty > 80) and day < 300
		 group by day having count(*) >= 2 order by rev desc limit 7`,
	}
	for _, src := range stmts {
		b, err := Compile(c, src)
		if err != nil {
			t.Fatalf("Compile(%q): %v", src, err)
		}
		arRes, err := Exec(context.Background(), c, b, plan.ExecOpts{}, false)
		if err != nil {
			t.Fatalf("AR %q: %v", src, err)
		}
		clRes, err := Exec(context.Background(), c, b, plan.ExecOpts{}, true)
		if err != nil {
			t.Fatalf("classic %q: %v", src, err)
		}
		if !plan.EqualResults(arRes.Rows, clRes.Rows) {
			t.Fatalf("%q: A&R %v != classic %v", src, arRes.Rows, clRes.Rows)
		}
	}
}

// TestParseErrorPositions is the satellite regression: malformed ORDER
// BY / OR / JOIN statements must report the token offset and nearby text,
// not a bare message.
func TestParseErrorPositions(t *testing.T) {
	cases := []struct {
		src  string
		want string // substring of the message after the position prefix
	}{
		{"select count(*) from t order day", "expected BY"},
		{"select count(*) from t order by", "expected"},
		{"select count(*) from t order by sum(", "unexpected"},
		{"select count(*) from t order by n limit", "expected number"},
		{"select count(*) from t order by n limit 0", "positive integer"},
		{"select count(*) from t where a < 1 or b > 2 and c = 3", "parenthesize the OR group"},
		{"select count(*) from t where (a < 1 and b > 2) or c = 3", "conjunctive normal form"},
		{"select count(*) from t where (a < 1 or ) and c = 3", "expected"},
		{"select count(*) from t join", "expected name"},
		{"select count(*) from t join d on", "expected name"},
		{"select count(*) from t join d on a = ", "expected name"},
		{"select count(*) from t join d on a b", `expected "="`},
		{"select count(*) from t having count(*)", "expected comparison"},
		{"select count(*) from t having day > 3", "expected an aggregate call"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("Parse(%q) did not fail", tc.src)
			continue
		}
		msg := err.Error()
		if !strings.Contains(msg, "offset ") || !strings.Contains(msg, "near ") {
			t.Errorf("Parse(%q) error lacks position info: %v", tc.src, err)
		}
		if !strings.Contains(msg, tc.want) {
			t.Errorf("Parse(%q) = %v, want substring %q", tc.src, err, tc.want)
		}
	}
}

// TestNormalizeNewClauses keeps plan-cache keying stable over the new
// grammar: case and whitespace variants of the same statement must
// normalize identically.
func TestNormalizeNewClauses(t *testing.T) {
	a := Normalize("select day, sum(price) as r from sales where (qty<10 OR qty>80) group by day having count(*)>=2 order by r desc limit 7")
	b := Normalize("SELECT day , SUM(price) AS r FROM sales WHERE ( qty < 10 or qty > 80 ) GROUP BY day HAVING COUNT(*) >= 2 ORDER BY r DESC LIMIT 7")
	if a != b {
		t.Fatalf("normalization differs:\n%s\n%s", a, b)
	}
}

// TestBindParamsSharedAST: a parameterized statement is parsed once and
// bound any number of times — each binding equals compiling the text with
// the literals written in, and binding never touches the parsed statement.
func TestBindParamsSharedAST(t *testing.T) {
	c := testCatalog(t)
	const src = "select sum(l_extendedprice * $3) as s, count(*) as n from lineitem where l_shipdate between $1 and $2 and l_discount < $3 having sum(l_quantity) > $1"
	ast, err := Parse(src)
	if err != nil || ast.Params != 3 {
		t.Fatalf("Parse: %d params, %v", ast.Params, err)
	}
	pristine, _ := Parse(src)
	for _, vals := range [][3]string{{"731", "1095", "7"}, {"-5", "2000", "3"}} {
		var lits []Lit
		for _, v := range vals {
			l, err := ParseLit(v)
			if err != nil {
				t.Fatal(err)
			}
			lits = append(lits, l)
		}
		got, err := BindParams(ast, c, lits)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Compile(c, strings.NewReplacer("$1", vals[0], "$2", vals[1], "$3", vals[2]).Replace(src))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("params %v bind to\n%#v\nthe spliced text compiles to\n%#v", vals, got.Query, want.Query)
		}
	}
	if !reflect.DeepEqual(ast, pristine) {
		t.Fatal("binding mutated the shared parsed statement")
	}
	if _, err := BindParams(ast, c, nil); err == nil {
		t.Fatal("binding a parameterized statement without its parameters must fail")
	}
	for _, bad := range []string{"limit $1", "select bwdecompose(l_tax, $1) from lineitem"} {
		if _, err := Parse("select count(*) from lineitem " + bad); err == nil {
			t.Fatalf("%q: a placeholder is a literal, not a count; it must not parse", bad)
		}
	}
}

// TestAppendNormalized: normalizing into a reused buffer is Normalize, and
// allocates nothing — what lets a plan-cache hit look its key up for free.
func TestAppendNormalized(t *testing.T) {
	const src = "SELECT  Count(lon)\tFROM trips WHERE lon BETWEEN 2.68288 AND $1 and name = 'Ab c'"
	buf := make([]byte, 0, 256)
	if allocs := testing.AllocsPerRun(100, func() { buf = AppendNormalized(buf[:0], src) }); allocs != 0 {
		t.Errorf("AppendNormalized into a buffer with room allocates %.0f objects", allocs)
	}
	want := "select count ( lon ) from trips where lon between 2.68288 and $1 and name = 'Ab c'"
	if string(buf) != want || Normalize(src) != want {
		t.Errorf("normalized to %q / %q, want %q", buf, Normalize(src), want)
	}
	if got := string(AppendNormalized([]byte("key: "), "select ~")); got != "key: select ~" {
		t.Errorf("unlexable text must append unchanged, got %q", got)
	}
}
