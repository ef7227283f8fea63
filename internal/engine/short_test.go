package engine

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/plan"
	"repro/internal/spatial"
	"repro/internal/tpch"
)

// shortCatalog is the short-statement fixture: a 2k-row trips table that
// fits every cache, so a statement's cost is the path around its scan.
func shortCatalog(t testing.TB) *plan.Catalog {
	t.Helper()
	c := plan.NewCatalog(device.PaperSystem())
	d := spatial.Generate(2_000, 7)
	if err := d.Load(c); err != nil {
		t.Fatal(err)
	}
	if err := d.Decompose(c); err != nil {
		t.Fatal(err)
	}
	return c
}

const tripCountParams = "select count(lon) from trips where lon between $1 and $2 and lat between $3 and $4"

// TestShortStatementAllocBudget is the allocation gate of the short
// statement path: a plan-cache hit on an unchanged table — normalize, look
// up, pin, compare epochs, scan, render — and a prepared statement's Exec —
// bind the parsed statement, plan, pin, scan, render — each within a fixed
// number of heap objects. It fails when something on that path starts
// formatting text nobody reads, re-plans, or re-parses.
func TestShortStatementAllocBudget(t *testing.T) {
	eng := New(shortCatalog(t), Options{})
	sess := eng.Session()
	defer sess.Close()
	ctx := context.Background()
	out := bufio.NewWriter(io.Discard)

	if _, err := sess.Query(ctx, tripCount); err != nil {
		t.Fatal(err)
	}
	before := eng.Catalog().PlannerStats()
	hit := testing.AllocsPerRun(200, func() {
		res, err := sess.Query(ctx, tripCount)
		if err != nil {
			t.Fatal(err)
		}
		WriteResult(out, res, false)
	})
	if after := eng.Catalog().PlannerStats(); after != before {
		t.Errorf("warm hits planned: planner stats %+v -> %+v", before, after)
	}
	if mem.RaceEnabled {
		// sync.Pool drops Puts under -race, so the counts say nothing there:
		// the paths ran (aliasing coverage) and planned nothing; the budget
		// is asserted in normal builds, by CI's own step.
		t.Skip("allocation counts are not meaningful under -race")
	}
	if hit > 30 {
		t.Errorf("plan-cache hit allocates %.0f objects, budget 30", hit)
	}

	st, err := sess.Prepare(ctx, tripCountParams)
	if err != nil {
		t.Fatal(err)
	}
	run := testing.AllocsPerRun(200, func() {
		res, err := st.Exec(ctx, "2.68288", "2.70228", "50.4222", "50.4485")
		if err != nil {
			t.Fatal(err)
		}
		WriteResult(out, res, false)
	})
	if run > 45 {
		t.Errorf("prepared Exec allocates %.0f objects, budget 45", run)
	}

	// The same hit through the classic executor: its selection narrows a
	// one-morsel mask on the calling goroutine, so the path around the scan
	// is all it allocates, like the A&R hit.
	sess.SetMode(ModeClassic)
	if _, err := sess.Query(ctx, tripCount); err != nil {
		t.Fatal(err)
	}
	classic := testing.AllocsPerRun(200, func() {
		res, err := sess.Query(ctx, tripCount)
		if err != nil {
			t.Fatal(err)
		}
		WriteResult(out, res, false)
	})
	if classic > hit {
		t.Errorf("classic plan-cache hit allocates %.0f objects, the A&R hit %.0f", classic, hit)
	}
	t.Logf("hit %.0f objects, prepared Exec %.0f, classic hit %.0f", hit, run, classic)
}

// TestDurableInsertAllocBudget is the allocation gate of the write path: a
// 64-row INSERT into a 4-way partitioned durable table — lexed once, rows
// parsed, bound and routed into one array each, one WAL frame, one commit
// wait, four applies — within a fixed number of heap objects. It fails when
// something starts costing an object per row or per value again, or a frame
// per partition (each is an encode buffer, a record and its closures more).
func TestDurableInsertAllocBudget(t *testing.T) {
	eng, err := Open(plan.NewCatalog(device.PaperSystem()), Options{DataDir: t.TempDir(), Fsync: "always"})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sess := eng.Session()
	defer sess.Close()
	ctx := context.Background()
	if _, err := sess.Query(ctx, "create table events (ts int, k int, v int, amt decimal2) partition by hash(ts) partitions 4"); err != nil {
		t.Fatal(err)
	}
	insert := []byte("insert into events values ")
	for r := 0; r < 64; r++ {
		if r > 0 {
			insert = append(insert, ", "...)
		}
		insert = fmt.Appendf(insert, "(%d, %d, %d, %d.%02d)", r, r%17, r*31, r%1000, r%100)
	}
	stmt := string(insert)
	before := eng.Durability().Stats()
	const runs = 50
	objects := testing.AllocsPerRun(runs, func() {
		if _, err := sess.Query(ctx, stmt); err != nil {
			t.Fatal(err)
		}
	})
	after := eng.Durability().Stats()
	if got := after.Appends - before.Appends; got != runs+1 { // AllocsPerRun warms up once
		t.Errorf("%d INSERTs appended %d WAL frames, want one each", runs+1, got)
	}
	if mem.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if objects > 50 {
		t.Errorf("64-row INSERT into 4 partitions allocates %.0f objects, budget 50", objects)
	}
	t.Logf("64-row durable INSERT: %.0f objects", objects)
}

// q1SQL is TPC-H Q1 as the olap_tail workload sends it.
const q1SQL = "select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty, sum(l_extendedprice) as sum_base_price, " +
	"sum(l_extendedprice * (1.00 - l_discount)) as sum_disc_price, " +
	"sum(l_extendedprice * (1.00 - l_discount) * (1.00 + l_tax)) as sum_charge, " +
	"avg(l_quantity) as avg_qty, avg(l_extendedprice) as avg_price, avg(l_discount) as avg_disc, count(*) as count_order " +
	"from lineitem where l_shipdate <= 2436 group by l_returnflag, l_linestatus"

// TestExactLegArenaBudget is the arena gate of the exact leg: a warm TPC-H Q1
// over fully resident columns (60 k lineitem rows, one device work-group)
// takes a fixed, small number of buffers from the arena, none of them a
// candidate-length list of 8-byte codes or values or of ids — the mask, the
// work-group slots, one 4-byte group id per candidate and the accumulators
// are all there is: 8 buffers, and 4.5 B per row with the arena off. At
// commit 108308e the same statement took 21 buffers and, with the arena off,
// allocated 6.6 MB per execution (110 B per row): the id list, the attached
// l_shipdate codes, two key-column and seven projection code lists, seven
// pass-through value copies, the translucent join's positions and a second
// group-id vector.
func TestExactLegArenaBudget(t *testing.T) {
	c := plan.NewCatalog(device.PaperSystem())
	d := tpch.Generate(0.01, 1)
	if err := d.Load(c); err != nil {
		t.Fatal(err)
	}
	if err := d.DecomposeAll(c, false); err != nil {
		t.Fatal(err)
	}
	eng := New(c, Options{})
	sess := eng.Session()
	defer sess.Close()
	sess.SetMode(ModeAR)
	ctx := context.Background()
	run := func() {
		res, err := sess.Query(ctx, q1SQL)
		if err != nil || len(res.Rows) != 4 {
			t.Fatalf("Q1: %v, %v", res, err)
		}
	}
	run()
	const runs = 20
	gets := func() uint64 { s := mem.Stats(); return s.Hits + s.Misses }
	before := gets()
	for i := 0; i < runs; i++ {
		run()
	}
	perRun := float64(gets()-before) / runs

	// The same with the arena off: every buffer is a plain allocation, so
	// the bytes say how long the buffers are.
	defer mem.SetPooling(mem.SetPooling(false))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&m1)
	bytesPerRun := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	rows := float64(len(d.Quantity))
	t.Logf("warm Q1: %.1f arena buffers per execution; %.0f B per execution with the arena off (%.1f B per row)", perRun, bytesPerRun, bytesPerRun/rows)
	if perRun > 10 {
		t.Errorf("warm exact-leg Q1 takes %.1f arena buffers per execution, budget 10", perRun)
	}
	if bytesPerRun > 6*rows {
		t.Errorf("warm exact-leg Q1 allocates %.0f B per execution with the arena off, over 6 B per row: a candidate-length buffer is back", bytesPerRun)
	}
}

// BenchmarkShortStatement times the same two paths, and the hit once more
// with the slow-query log armed (every statement traced, none retained): the
// difference to the plain hit is the tracing overhead the <5% budget is
// about, on the statement where it is proportionally largest.
func BenchmarkShortStatement(b *testing.B) {
	eng := New(shortCatalog(b), Options{})
	sess := eng.Session()
	defer sess.Close()
	ctx := context.Background()
	out := bufio.NewWriter(io.Discard)
	st, err := sess.Prepare(ctx, tripCountParams)
	if err != nil {
		b.Fatal(err)
	}
	hit := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := sess.Query(ctx, tripCount)
			if err != nil {
				b.Fatal(err)
			}
			WriteResult(out, res, false)
		}
	}
	b.Run("hit", hit)
	b.Run("hit-slowlog-armed", func(b *testing.B) {
		eng.SlowLog().SetThreshold(time.Hour)
		defer eng.SlowLog().SetThreshold(0)
		hit(b)
	})
	b.Run("prepared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := st.Exec(ctx, "2.68288", "2.70228", "50.4222", "50.4485")
			if err != nil {
				b.Fatal(err)
			}
			WriteResult(out, res, false)
		}
	})
}
