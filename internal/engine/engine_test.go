package engine

import (
	"context"
	"repro/internal/sql"
	"strings"
	"testing"
)

// TestEngineFacade exercises the embeddable surface end to end: Query,
// Prepare/Exec with parameters, per-session mode and totals, plan-cache
// sharing, and stats rendering.
func TestEngineFacade(t *testing.T) {
	c := testCatalog(t)
	eng := New(c, Options{})
	ctx := context.Background()

	// Engine-level Query on the default session.
	res, err := eng.Query(ctx, tripCount)
	if err != nil {
		t.Fatal(err)
	}
	if res.Route != RouteAR {
		t.Fatalf("decomposed catalog should route A&R, got %v", res.Route)
	}
	if len(res.Rows) != 1 || res.Rows[0].Vals[0] <= 0 {
		t.Fatalf("unexpected rows %v", res.Rows)
	}
	want := res.Rows[0].Vals[0]

	// Sessions carry their own mode; classic must agree with A&R.
	sess := eng.Session()
	defer sess.Close()
	sess.SetMode(ModeClassic)
	res2, err := sess.Query(ctx, tripCount)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Route != RouteClassic {
		t.Fatalf("forced classic session routed %v", res2.Route)
	}
	if res2.Rows[0].Vals[0] != want {
		t.Fatalf("executors disagree: %d vs %d", res2.Rows[0].Vals[0], want)
	}
	if _, _, _, q := sess.Totals.Totals(); q != 1 {
		t.Fatalf("session totals should count 1 query, got %d", q)
	}

	// Identical normalized text must hit the shared plan cache.
	if _, err := sess.Query(ctx, strings.ToUpper(tripCount[:6])+tripCount[6:]); err != nil {
		t.Fatal(err)
	}
	if st := eng.cache.Stats(); st.Hits == 0 {
		t.Fatalf("expected a plan-cache hit, got %+v", st)
	}

	// Prepared statement with parameters.
	st, err := sess.Prepare(ctx, "select count(lon) from trips where lon between $1 and $2")
	if err != nil {
		t.Fatal(err)
	}
	pres, err := st.Exec(ctx, 200000, 240000)
	if err != nil {
		t.Fatal(err)
	}
	dres, err := sess.Query(ctx, "select count(lon) from trips where lon between 200000 and 240000")
	if err != nil {
		t.Fatal(err)
	}
	if pres.Rows[0].Vals[0] != dres.Rows[0].Vals[0] {
		t.Fatalf("parameterized exec %d != direct %d", pres.Rows[0].Vals[0], dres.Rows[0].Vals[0])
	}
	if _, err := st.Exec(ctx, 1); err == nil {
		t.Fatal("wrong parameter arity must error")
	}
	if _, err := st.Exec(ctx, "drop table", 2); err == nil {
		t.Fatal("non-literal parameter must error")
	}

	// Stats lines cover sessions, cache, scheduler, the granule scan, and
	// totals.
	lines := strings.Join(eng.StatsLines(sess), "\n")
	for _, wantSub := range []string{"sessions: 1 active", "plan cache:", "scheduler:", "scan: ", " skipped (", "engine totals:", "session "} {
		if !strings.Contains(lines, wantSub) {
			t.Fatalf("stats missing %q:\n%s", wantSub, lines)
		}
	}
}

// TestPreparedStatementValidation: compile errors surface at Prepare (not
// first Exec), and placeholder scanning is strict.
func TestPreparedStatementValidation(t *testing.T) {
	c := testCatalog(t)
	eng := New(c, Options{})
	sess := eng.Session()
	defer sess.Close()
	ctx := context.Background()

	if _, err := sess.Prepare(ctx, "selct count(lon) frm trips where lon between $1 and $2"); err == nil {
		t.Fatal("syntax error must surface at Prepare, not Exec")
	}
	if _, err := sess.Prepare(ctx, "select count(nosuch) from trips where nosuch between $1 and $2"); err == nil {
		t.Fatal("bind error must surface at Prepare")
	}
	if _, err := sess.Prepare(ctx, "select count(lon) from trips where lon between $12 and 2"); err == nil {
		t.Fatal("$12 must be rejected, not read as $1 followed by a literal 2")
	}
	if _, err := sess.Prepare(ctx, "select count(lon) from trips where lon between $ and 2"); err == nil {
		t.Fatal("bare $ must be rejected")
	}
	// Parameterized Exec must not pollute the shared plan cache.
	st, err := sess.Prepare(ctx, "select count(lon) from trips where lon between $1 and $2")
	if err != nil {
		t.Fatal(err)
	}
	before := eng.cache.Stats().Len
	for i := 0; i < 5; i++ {
		if _, err := st.Exec(ctx, 200000+i, 240000+i); err != nil {
			t.Fatal(err)
		}
	}
	if after := eng.cache.Stats().Len; after != before {
		t.Fatalf("parameterized Exec grew the plan cache: %d -> %d entries", before, after)
	}
}

// TestParamScanning pins how placeholders are recognized and bound: by the
// lexer, so a quoted $1 is a string and not a parameter, only $1..$9 exist,
// and a parameter value is one numeric literal or an error — it is bound
// into the parsed statement, never spliced into its text.
func TestParamScanning(t *testing.T) {
	c := testCatalog(t)
	sess := New(c, Options{}).Session()
	defer sess.Close()
	ctx := context.Background()
	const head = "select count(lon) from trips where lon between "

	for src, want := range map[string]int{
		head + "$1 and 3":  1,
		head + "1 and $3":  3,
		head + "1 and 240": 0,
	} {
		ast, err := sql.Parse(src)
		if err != nil || ast.Params != want {
			t.Fatalf("Parse(%q): %d params, err=%v; want %d", src, ast.Params, err, want)
		}
	}
	for _, bad := range []string{"$12 and 2", "$0 and 2", "$x and 2", "$ and 2", "'$1' and $2"} {
		if _, err := sess.Prepare(ctx, head+bad); err == nil {
			t.Fatalf("Prepare(... between %s) must error", bad)
		}
	}
	st, err := sess.Prepare(ctx, head+"$1 and $2")
	if err != nil {
		t.Fatal(err)
	}
	want, err := sess.Query(ctx, head+"-10 and 2400.5")
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Exec(ctx, int64(-10), "2400.5")
	if err != nil || got.Rows[0].Vals[0] != want.Rows[0].Vals[0] {
		t.Fatalf("Exec(-10, \"2400.5\") = %v, %v; want %v", got, err, want.Rows)
	}
	for _, bad := range []string{"1; drop", "1 or 1", "'1'", "+5", "1.", ".5", ""} {
		if _, err := st.Exec(ctx, 1, bad); err == nil {
			t.Fatalf("parameter %q must be rejected", bad)
		}
	}
}

// TestSessionLifecycle checks open/close bookkeeping.
func TestSessionLifecycle(t *testing.T) {
	c := testCatalog(t)
	eng := New(c, Options{})
	a, b := eng.Session(), eng.Session()
	if n := eng.SessionCount(); n != 2 {
		t.Fatalf("want 2 active sessions, got %d", n)
	}
	a.Close()
	b.Close()
	b.Close() // idempotent
	if n := eng.SessionCount(); n != 0 {
		t.Fatalf("want 0 active sessions after close, got %d", n)
	}
}

// TestMetaParity drives the shared meta-command surface directly — the
// same implementation the shell and the TCP server expose.
func TestMetaParity(t *testing.T) {
	c := testCatalog(t)
	eng := New(c, Options{})
	sess := eng.Session()
	defer sess.Close()
	ctx := context.Background()

	// Non-meta lines are not handled.
	if _, _, handled, _ := sess.Meta(ctx, "select 1"); handled {
		t.Fatal("plain SQL must not be handled as meta")
	}
	// \mode round-trip.
	out, _, handled, err := sess.Meta(ctx, `\mode classic`)
	if err != nil || !handled || out[0] != "mode classic" {
		t.Fatalf("\\mode: %v %v", out, err)
	}
	if sess.Mode() != ModeClassic {
		t.Fatal("meta \\mode did not set the session mode")
	}
	if _, _, _, err := sess.Meta(ctx, `\mode sideways`); err == nil {
		t.Fatal("bad mode must error")
	}
	// \cost toggle.
	out, _, _, err = sess.Meta(ctx, `\cost`)
	if err != nil || out[0] != "cost report on" {
		t.Fatalf("\\cost: %v %v", out, err)
	}
	// \tables lists the catalog.
	out, _, _, err = sess.Meta(ctx, `\tables`)
	if err != nil || !strings.Contains(strings.Join(out, " "), "trips") {
		t.Fatalf("\\tables: %v %v", out, err)
	}
	// \prepare + \run; with cost on, \run appends the cost line with route.
	if _, _, _, err := sess.Meta(ctx, `\prepare p1 `+tripCount); err != nil {
		t.Fatal(err)
	}
	out, _, _, err = sess.Meta(ctx, `\run p1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || !strings.HasPrefix(out[1], "-- classic; simulated") {
		t.Fatalf("\\run with cost on: %v", out)
	}
	// \stats goes through the engine renderer.
	out, _, _, err = sess.Meta(ctx, `\stats`)
	if err != nil || !strings.Contains(strings.Join(out, "\n"), "engine totals:") {
		t.Fatalf("\\stats: %v %v", out, err)
	}
	// \q quits; unknown meta errors.
	if _, quit, _, _ := sess.Meta(ctx, `\q`); !quit {
		t.Fatal("\\q must quit")
	}
	if _, _, handled, err := sess.Meta(ctx, `\bogus`); !handled || err == nil {
		t.Fatal("unknown meta must be handled with an error")
	}
}
