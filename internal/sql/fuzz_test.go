package sql

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/bat"
	"repro/internal/device"
	"repro/internal/plan"
)

// fuzzCatalog is a tiny fixed catalog for binding fuzzed statements: one
// fact table with scaled and unscaled columns and one joinable dimension,
// so qualified names, joins and decimal-literal alignment are reachable.
var fuzzCatalog = sync.OnceValue(func() *plan.Catalog {
	c := plan.NewCatalog(device.PaperSystem())
	fact := plan.NewTable("t")
	n := 16
	mk := func() []int64 {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(i)
		}
		return vals
	}
	if err := fact.AddColumn("a", mk(), bat.Width32); err != nil {
		panic(err)
	}
	if err := fact.AddColumn("fk", mk(), bat.Width32); err != nil {
		panic(err)
	}
	if err := fact.AddColumnScaled("price", mk(), bat.Width32, 100); err != nil {
		panic(err)
	}
	if err := c.AddTable(fact); err != nil {
		panic(err)
	}
	dim := plan.NewTable("d")
	if err := dim.AddColumn("id", mk(), bat.Width32); err != nil {
		panic(err)
	}
	if err := dim.AddColumn("v", mk(), bat.Width32); err != nil {
		panic(err)
	}
	if err := c.AddTable(dim); err != nil {
		panic(err)
	}
	return c
})

// FuzzParseNormalize guards the SQL front end and the plan-cache keying
// contract: Parse must never panic on arbitrary input, Normalize must be
// idempotent (a cache key re-normalizes to itself), and any statement that
// compiles must compile from its normalized text to an equivalent binding
// — otherwise a cache hit on normalized text could execute a different
// plan than compiling the original would have.
func FuzzParseNormalize(f *testing.F) {
	seeds := []string{
		"select count(*) from t",
		"select count(a) as n, sum(price) from t where price between 1.00 and 60.00",
		"SELECT  Sum(a)  FROM t WHERE a >= 3 AND a < 12 GROUP BY a",
		"select bwdecompose(a, 24), bwdecompose(price, 12) from t",
		"explain select min(a), max(a) from t where a = 7",
		"select sum(price * (1 - a)) from t join d on t.fk = d.id where d.v > 2",
		"select avg(a + 2) from t group by a, fk",
		"select sum(case when a between 1 and 3 then price else 0 end) from t",
		"select count(*) from t where a between -5 and 'x'",
		"select !! from",
		"select count(*) from t where price between 1.000000 and 2",
		"  select\tcount ( * )\nfrom t  ",
		"'unterminated",
		"select 1e9 from t",
		"$1 $2 $9",
		"select count(*) from t where a between $1 and $2 and price < $3",
		"insert into t values ($1, $2, $12)",
		"insert into t values (1, 2, 3.50), (-4, 5, 6)",
		"insert into t (price, a, fk) values (1.25, 2, 3)",
		"delete from t where a between 3 and 7 and price >= 1.50",
		"delete from t",
		"create table fresh (id int, amount decimal2)",
		"insert into t values ()",
		"create table broken (x blob)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	cat := fuzzCatalog()
	f.Fuzz(func(t *testing.T, src string) {
		// Normalize is total and idempotent: normalizing a cache key must
		// reproduce it byte for byte.
		n1 := Normalize(src)
		if n2 := Normalize(n1); n2 != n1 {
			t.Fatalf("Normalize not idempotent:\n src %q\n n1  %q\n n2  %q", src, n1, n2)
		}

		// Parse must not panic, whatever the input.
		stmt, err := Parse(src)
		if err != nil {
			return
		}

		// If the statement binds (its placeholders, if any, to literals), its
		// normalized text must bind to an equivalent (deep-equal) binding —
		// the plan-cache keying contract.
		params := make([]Lit, stmt.Params)
		for i := range params {
			params[i] = Lit{V: int64(i + 1), Scale: 1}
		}
		b1, err := BindParams(stmt, cat, params)
		if err != nil {
			return
		}
		var b2 *Binding
		if stmt, err = Parse(n1); err == nil {
			b2, err = BindParams(stmt, cat, params)
		}
		if err != nil {
			t.Fatalf("source compiles but normalized text does not:\n src %q\n norm %q\n err %v", src, n1, err)
		}
		if !reflect.DeepEqual(b1, b2) {
			t.Fatalf("normalized text compiles to a different binding:\n src %q\n norm %q\n b1 %#v\n b2 %#v", src, n1, b1, b2)
		}
	})
}
