package engine

import (
	"context"
	"fmt"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"weak"

	"repro/internal/plan"
)

// cachedPlanCatalog is the star schema of the explain tests plus a 4-way
// hash-partitioned fact table with base rows, delta rows and deletions.
func cachedPlanCatalog(t *testing.T) *plan.Catalog {
	t.Helper()
	c := starEngineCatalog(t)
	eng := New(c, Options{})
	run := func(src string) {
		t.Helper()
		if _, err := eng.Query(context.Background(), src); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
	rows := func(lo, hi int) string {
		var sb strings.Builder
		for i := lo; i < hi; i++ {
			fmt.Fprintf(&sb, "%s(%d, %d, %d)", map[bool]string{true: ", "}[i > lo], i, i%17, i%101)
		}
		return sb.String()
	}
	run("create table ev (ts int, k int, v int) partition by hash(ts) partitions 4")
	run("insert into ev values " + rows(0, 600))
	if _, err := c.MergeTable(nil, "ev", false); err != nil {
		t.Fatal(err)
	}
	run("select bwdecompose(ts, 8), bwdecompose(k, 8), bwdecompose(v, 8) from ev")
	run("insert into ev values " + rows(600, 640))
	run("delete from ev where ts between 10 and 19")
	return c
}

// cachedPlanStatements covers the statement shapes of the plan tests: range
// count, aggregates over expressions, grouping with HAVING / ORDER BY /
// LIMIT, a disjunction, a star join, and a scatter over four partitions.
var cachedPlanStatements = []string{
	"select count(*) as n from f where v between 100 and 300",
	"select sum(v * fk1) as s, min(v) as lo, max(v) as hi, avg(v) as m from f where v < 700 and fk1 between 2 and 15",
	"select fk1, count(*) as n, sum(v) as s from f where v < 900 group by fk1 having count(*) > 10 order by s desc limit 5",
	"select count(*) as n, sum(v) as s from f where (v < 50 or fk2 > 7) and fk1 < 18",
	starQuery,
	"select k, count(*) as n, sum(v) as s from ev where v between 5 and 90 group by k order by n desc limit 10",
	"explain select count(*) as n from ev where v < 40",
}

var wallText = regexp.MustCompile(`wall[= ]\S+`)

// observe runs one statement and its \explain analyze on sess and returns
// everything a client can see of them, wall times masked.
func observe(t *testing.T, sess *Session, src string) []any {
	t.Helper()
	ctx := context.Background()
	res, err := sess.Query(ctx, src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	analyzed, _, _, err := sess.Meta(ctx, `\explain analyze `+strings.TrimPrefix(src, "explain "))
	if err != nil {
		t.Fatalf("analyze %s: %v", src, err)
	}
	return []any{res.Rows, res.Approx, *res.Meter, res.Candidates, res.Refined, res.Route, res.Plan(),
		wallText.ReplaceAllString(strings.Join(analyzed, "\n"), "wall X")}
}

// TestCachedPlanEquivalence: executing a cached plan is indistinguishable
// from planning afresh. For every statement shape and every mode, rows,
// phase-A bounds, meter, candidate counts, plan listing and \explain analyze
// text are identical with the cache off, on first execution and on the tenth.
func TestCachedPlanEquivalence(t *testing.T) {
	c := cachedPlanCatalog(t)
	uncached, cached := New(c, Options{CacheSize: -1}), New(c, Options{})
	for _, mode := range []Mode{ModeAuto, ModeAR, ModeClassic} {
		fresh, warm := uncached.SessionFor(mode), cached.SessionFor(mode)
		for _, src := range cachedPlanStatements {
			want := observe(t, fresh, src)
			for run := 1; run <= 10; run++ {
				if got := observe(t, warm, src); !reflect.DeepEqual(got, want) {
					t.Fatalf("mode %s, execution %d of %q differs from the uncached one:\n got %v\nwant %v", mode, run, src, got, want)
				}
			}
		}
	}
	if st := cached.Cache().Stats(); st.Hits == 0 {
		t.Fatal("the cached engine never hit its plan cache")
	}
}

// TestCachedPlanReprices: every change to a table a cached plan reads —
// INSERT, DELETE, merge, bwdecompose at another width, drop and re-create —
// makes exactly the next execution price again, and the one after reuse that
// pricing; nothing else plans. The count is an operator's signal too.
func TestCachedPlanReprices(t *testing.T) {
	ctx := context.Background()
	c := dmlCatalog(t)
	eng := New(c, Options{})
	sess := eng.Session()
	defer sess.Close()
	const q = "select count(*) from t where v < 100"
	planned := func() (plans, replans int64) {
		st := c.PlannerStats()
		return st.Plans, st.Replans
	}
	mustCount(t, sess, q)
	mustCount(t, sess, q)
	if plans, replans := planned(); plans != 1 || replans != 0 {
		t.Fatalf("two executions of one statement: %d plans, %d re-plans; want 1 and 0", plans, replans)
	}
	for _, change := range []string{
		"insert into t values (5), (2000)",
		"delete from t where v between 40 and 49",
		`\merge t`,
		"select bwdecompose(v, 6) from t",
	} {
		if _, _, handled, err := sess.Meta(ctx, change); err != nil {
			t.Fatal(err)
		} else if !handled {
			if _, err := sess.Query(ctx, change); err != nil {
				t.Fatal(err)
			}
		}
		plans, replans := planned()
		mustCount(t, sess, q)
		if p, r := planned(); p != plans || r != replans+1 {
			t.Fatalf("after %q the next hit made %d plans and %d re-plans, want 0 and 1", change, p-plans, r-replans)
		}
		mustCount(t, sess, q)
		if p, r := planned(); p != plans || r != replans+1 {
			t.Fatalf("after %q the second hit planned again (%d plans, %d re-plans)", change, p-plans, r-replans-1)
		}
	}
	if got := metricValue(t, eng.Metrics().Text(), "ar_plan_replans_total"); got != 4 {
		t.Errorf("ar_plan_replans_total = %v, want 4", got)
	}

	// A plan held across a drop and re-create prices again on its own: its
	// stamp carries the table's identity, not just its data epoch.
	pl, err := c.Plan(plan.Query{Table: "t", Filters: []plan.Filter{{Col: "v", Lo: 0, Hi: 99}}, Aggs: []plan.AggSpec{{Name: "n", Func: plan.Count}}}, plan.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Pin(pl); err != nil {
		t.Fatal(err)
	}
	if err := c.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"create table t (v int)", "insert into t values (1), (2), (3)"} {
		if _, err := sess.Query(ctx, src); err != nil {
			t.Fatal(err)
		}
	}
	plans, replans := planned()
	for run, want := range []int64{1, 1} {
		x, err := c.Pin(pl)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(ctx, x, plan.ExecOpts{})
		if err != nil || res.Rows[0].Vals[0] != 3 {
			t.Fatalf("held plan over the re-created table: %v, %v", res, err)
		}
		if p, r := planned(); p != plans || r != replans+want {
			t.Fatalf("held plan, execution %d after drop and re-create: %d plans, %d re-plans; want 0 and %d", run+1, p-plans, r-replans, want)
		}
	}
	// Through the engine the cached binding itself is stale (its literals
	// were aligned to the old schema), so the statement is compiled and
	// planned anew — once.
	plans, replans = planned()
	for i := 0; i < 2; i++ {
		if got := mustCount(t, sess, q); got != 3 {
			t.Fatalf("count over the re-created table = %d, want 3", got)
		}
	}
	if p, r := planned(); p != plans+1 || r != replans {
		t.Fatalf("two executions after drop and re-create: %d plans, %d re-plans; want 1 and 0", p-plans, r-replans)
	}
}

// TestPlanCacheHoldsNoSnapshot: a cached plan is stamped with epochs and
// holds no table version. Once a merge supersedes the base segment a
// statement was planned and executed against, nothing keeps it alive.
func TestPlanCacheHoldsNoSnapshot(t *testing.T) {
	ctx := context.Background()
	c := dmlCatalog(t)
	eng := New(c, Options{})
	sess := eng.Session()
	defer sess.Close()
	const q = "select count(*) from t where v < 100"
	if _, err := sess.Query(ctx, "insert into t values (7), (8)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustCount(t, sess, q)
	}
	tbl, err := c.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	old := weak.Make(tbl.Snapshot())
	if _, _, _, err := sess.Meta(ctx, `\merge t`); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if old.Value() != nil {
		t.Fatal("the superseded snapshot is still reachable after a merge and a GC: something cached pins it")
	}
	if eng.Cache().Stats().Len == 0 {
		t.Fatal("the statement is no longer cached: the test proves nothing")
	}
	if got := mustCount(t, sess, q); got != 102 {
		t.Fatalf("count after merge = %d, want 102", got)
	}
}

// TestCachedPlanConcurrentDML hammers one cached statement from sessions in
// all three modes while a writer inserts and merges underneath them (run it
// under -race). Every row satisfies w = 2v and rows only arrive, in whole
// statements: whichever snapshot an execution pins, under whichever pricing,
// sum(w) = 2·sum(v) and no reader ever sees the count go down — and once the
// writer is done, A&R and classic agree on the final table.
func TestCachedPlanConcurrentDML(t *testing.T) {
	ctx := context.Background()
	c := plan.NewCatalog(testCatalog(t).System())
	eng := New(c, Options{MergeThreshold: -1})
	setup := eng.Session()
	for _, src := range []string{
		"create table pairs (v int, w int)",
		"insert into pairs values (1, 2), (2, 4), (3, 6), (400, 800)",
		`\merge pairs`,
		"select bwdecompose(v, 6), bwdecompose(w, 6) from pairs",
	} {
		if _, _, handled, err := setup.Meta(ctx, src); err != nil {
			t.Fatal(err)
		} else if !handled {
			if _, err := setup.Query(ctx, src); err != nil {
				t.Fatal(err)
			}
		}
	}
	const q = "select count(*) as n, sum(v) as sv, sum(w) as sw from pairs where v between 1 and 300"
	const writes = 60
	var wg sync.WaitGroup
	done := make(chan struct{})
	for _, mode := range []Mode{ModeAuto, ModeAR, ModeClassic, ModeAuto} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := eng.SessionFor(mode)
			defer sess.Close()
			last := int64(0)
			for {
				res, err := sess.Query(ctx, q)
				if err != nil {
					t.Errorf("mode %s: %v", mode, err)
					return
				}
				n, sv, sw := res.Rows[0].Vals[0], res.Rows[0].Vals[1], res.Rows[0].Vals[2]
				if sw != 2*sv || n < last {
					t.Errorf("mode %s: n=%d (was %d) sum(v)=%d sum(w)=%d: not one consistent snapshot", mode, n, last, sv, sw)
					return
				}
				last = n
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for i := 0; i < writes; i++ {
		v := 1 + i%250
		if _, err := setup.Query(ctx, fmt.Sprintf("insert into pairs values (%d, %d), (%d, %d)", v, 2*v, v+1, 2*v+2)); err != nil {
			t.Fatal(err)
		}
		if i%7 == 6 {
			if _, _, _, err := setup.Meta(ctx, `\merge pairs`); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(done)
	wg.Wait()
	var final [][]plan.Row
	for _, mode := range []Mode{ModeAR, ModeClassic} {
		res, err := eng.SessionFor(mode).Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		final = append(final, res.Rows)
	}
	if !plan.EqualResults(final[0], final[1]) || final[0][0].Vals[0] != 3+2*writes {
		t.Fatalf("after the writer finished: a&r %v, classic %v, want %d rows in range", final[0], final[1], 3+2*writes)
	}
}
