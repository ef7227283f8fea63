package engine

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/device"
	"repro/internal/plan"
)

func dmlCatalog(t *testing.T) *plan.Catalog {
	t.Helper()
	c := plan.NewCatalog(device.PaperSystem())
	tbl := plan.NewTable("t")
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i)
	}
	if err := tbl.AddColumn("v", vals, bat.Width32); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decompose("t", "v", 8); err != nil {
		t.Fatal(err)
	}
	return c
}

func mustCount(t *testing.T, sess *Session, src string) int64 {
	t.Helper()
	res, err := sess.Query(context.Background(), src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0].Vals) != 1 {
		t.Fatalf("%s: unexpected shape", src)
	}
	return res.Rows[0].Vals[0]
}

// TestPlanCacheInvalidationOnSchemaChange is the epoch regression test: a
// cached binding must not survive its table being dropped and re-created
// with different scales.
func TestPlanCacheInvalidationOnSchemaChange(t *testing.T) {
	ctx := context.Background()
	c := dmlCatalog(t)
	eng := New(c, Options{})
	sess := eng.Session()
	defer sess.Close()

	const q = "select count(*) from t where v < 100"
	if got := mustCount(t, sess, q); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	if got := mustCount(t, sess, q); got != 100 { // cache hit
		t.Fatalf("count = %d, want 100", got)
	}
	if st := eng.cache.Stats(); st.Hits == 0 {
		t.Fatal("expected a cache hit before the schema change")
	}

	// Drop and re-create t with a decimal2 column of the same name: the
	// literal 100 now aligns to 10000 — a stale binding would use 100.
	if err := c.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(ctx, "create table t (v decimal2)"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(ctx, "insert into t values (50.00), (150.00)"); err != nil {
		t.Fatal(err)
	}
	if got := mustCount(t, sess, q); got != 1 {
		t.Fatalf("count after re-create = %d, want 1 (stale binding served?)", got)
	}
	if st := eng.cache.Stats(); st.Invalidations == 0 {
		t.Fatal("no cache invalidation recorded")
	}
}

// TestPreparedStatementRecompilesAfterSchemaChange covers the prepared
// path of the same regression.
func TestPreparedStatementRecompilesAfterSchemaChange(t *testing.T) {
	ctx := context.Background()
	c := dmlCatalog(t)
	eng := New(c, Options{})
	sess := eng.Session()
	defer sess.Close()

	st, err := sess.Prepare(ctx, "select count(*) from t where v < 100")
	if err != nil {
		t.Fatal(err)
	}
	if res, err := st.Exec(ctx); err != nil || res.Rows[0].Vals[0] != 100 {
		t.Fatalf("prepared exec: %v %v", res, err)
	}
	if err := c.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(ctx, "create table t (v decimal2)"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(ctx, "insert into t values (50.00), (150.00)"); err != nil {
		t.Fatal(err)
	}
	res, err := st.Exec(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0].Vals[0]; got != 1 {
		t.Fatalf("prepared count after re-create = %d, want 1", got)
	}
}

// TestDMLAndStatsSurface drives the acceptance checklist through the
// session surface: INSERT and DELETE through SQL, \merge through Meta,
// and \stats showing the store counters.
func TestDMLAndStatsSurface(t *testing.T) {
	ctx := context.Background()
	eng := New(dmlCatalog(t), Options{})
	sess := eng.Session()
	defer sess.Close()

	if _, err := sess.Query(ctx, "insert into t values (2000), (2001), (2002)"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Query(ctx, "delete from t where v = 0"); err != nil {
		t.Fatal(err)
	}
	if got := mustCount(t, sess, "select count(*) from t where v >= 0"); got != 1002 {
		t.Fatalf("count = %d, want 1002", got)
	}

	out, _, _, err := sess.Meta(ctx, `\stats`)
	if err != nil {
		t.Fatal(err)
	}
	stats := strings.Join(out, "\n")
	if !strings.Contains(stats, "3 delta rows") || !strings.Contains(stats, "2 segments") || !strings.Contains(stats, "1 deleted") {
		t.Fatalf("\\stats missing store state:\n%s", stats)
	}

	out, _, _, err = sess.Meta(ctx, `\merge t`)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || !strings.Contains(out[0], "merged t: 3 delta rows") {
		t.Fatalf("\\merge output %v", out)
	}
	if got := mustCount(t, sess, "select count(*) from t where v >= 0"); got != 1002 {
		t.Fatalf("count after merge = %d, want 1002", got)
	}
	out, _, _, _ = sess.Meta(ctx, `\stats`)
	stats = strings.Join(out, "\n")
	if !strings.Contains(stats, "1 merges") || !strings.Contains(stats, "0 delta rows") {
		t.Fatalf("\\stats after merge:\n%s", stats)
	}
	if !strings.Contains(stats, "merge shipped") || strings.Contains(stats, "merge shipped 0 B") {
		t.Fatalf("\\stats shows no merge bus traffic:\n%s", stats)
	}

	// Idempotent \merge reports nothing to do.
	out, _, _, _ = sess.Meta(ctx, `\merge t`)
	if len(out) != 1 || !strings.Contains(out[0], "nothing to merge") {
		t.Fatalf("repeat \\merge output %v", out)
	}
}

// TestBackgroundMergerCompacts exercises StartMaintenance end to end.
func TestBackgroundMergerCompacts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := New(dmlCatalog(t), Options{MergeThreshold: 10, MergeInterval: 2 * time.Millisecond})
	eng.StartMaintenance(ctx)
	sess := eng.Session()
	defer sess.Close()

	if _, err := sess.Query(ctx, "insert into t values (1), (2), (3), (4), (5), (6), (7), (8), (9), (10), (11), (12)"); err != nil {
		t.Fatal(err)
	}
	tbl, err := eng.Catalog().Table("t")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tbl.DeltaLive() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background merger never compacted; %d delta rows left", tbl.DeltaLive())
		}
		time.Sleep(time.Millisecond)
	}
	if st := tbl.Stats(); st.AutoMerges == 0 {
		t.Fatalf("merge not attributed to the background merger: %+v", st)
	}
	if got := mustCount(t, sess, "select count(*) from t where v >= 0"); got != 1012 {
		t.Fatalf("count after background merge = %d, want 1012", got)
	}
}

// TestBackgroundMergerSurfacesFailures: a merge that cannot proceed (an
// indexed dimension key broken by deletes) must be counted, shown in
// \stats, and not hot-retried until the table changes again.
func TestBackgroundMergerSurfacesFailures(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := plan.NewCatalog(device.PaperSystem())
	dim := plan.NewTable("dim")
	ids := make([]int64, 100)
	for i := range ids {
		ids[i] = int64(i)
	}
	if err := dim.AddColumn("id", ids, bat.Width32); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(dim); err != nil {
		t.Fatal(err)
	}
	if err := c.BuildFKIndex("dim", "id"); err != nil {
		t.Fatal(err)
	}
	eng := New(c, Options{MergeThreshold: 1, MergeInterval: 2 * time.Millisecond})
	eng.StartMaintenance(ctx)
	sess := eng.Session()
	defer sess.Close()

	// Break the dense key, then push the delta over the threshold: the
	// background merge must fail (compaction would punch a hole) and say so.
	if _, err := sess.Query(ctx, "delete from dim where id = 3"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Query(ctx, "insert into dim values (100), (101)"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		eng.mu.Lock()
		failures := eng.mergeFailures
		eng.mu.Unlock()
		if failures > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background merge failure never recorded")
		}
		time.Sleep(time.Millisecond)
	}
	out, _, _, err := sess.Meta(ctx, `\stats`)
	if err != nil {
		t.Fatal(err)
	}
	stats := strings.Join(out, "\n")
	if !strings.Contains(stats, "maintenance:") || !strings.Contains(stats, "dense key") {
		t.Fatalf("\\stats does not surface the merge failure:\n%s", stats)
	}
	// The failed table must not be hot-retried: with an unchanged epoch
	// the failure count stays put across many intervals.
	eng.mu.Lock()
	before := eng.mergeFailures
	eng.mu.Unlock()
	time.Sleep(20 * time.Millisecond)
	eng.mu.Lock()
	after := eng.mergeFailures
	eng.mu.Unlock()
	if after != before {
		t.Fatalf("failed merge hot-retried: %d -> %d failures with no table change", before, after)
	}
}

// TestDecompositionRecoversAfterEmptyingMerge: deleting every row and
// merging drops the (undecomposable-when-empty) decompositions; once new
// rows arrive, the background merger must re-decompose without waiting for
// the delta threshold, restoring A&R routing.
func TestDecompositionRecoversAfterEmptyingMerge(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := dmlCatalog(t)
	eng := New(c, Options{MergeThreshold: 100000, MergeInterval: 2 * time.Millisecond})
	eng.StartMaintenance(ctx)
	sess := eng.Session()
	defer sess.Close()

	if _, err := sess.Query(ctx, "delete from t"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MergeTable(nil, "t", false); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Query(ctx, "insert into t values (5), (50)"); err != nil {
		t.Fatal(err)
	}
	tbl, _ := c.Table("t")
	deadline := time.Now().Add(5 * time.Second)
	for tbl.PendingDecompose() || tbl.DeltaLive() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("background merger never re-decomposed the refilled table")
		}
		time.Sleep(time.Millisecond)
	}
	arSess := eng.SessionFor(ModeAR)
	defer arSess.Close()
	res, err := arSess.Query(ctx, "select count(*) from t where v between 0 and 100")
	if err != nil {
		t.Fatalf("A&R routing did not recover: %v", err)
	}
	if res.Rows[0].Vals[0] != 2 {
		t.Fatalf("count = %d, want 2", res.Rows[0].Vals[0])
	}
}
