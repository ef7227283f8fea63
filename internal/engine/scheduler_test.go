package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/device"
	"repro/internal/plan"
	"repro/internal/spatial"
	"repro/internal/sql"
)

// testCatalog builds a small spatial catalog with decomposed columns.
func testCatalog(t testing.TB) *plan.Catalog {
	t.Helper()
	c := plan.NewCatalog(device.PaperSystem())
	d := spatial.Generate(50_000, 7)
	if err := d.Load(c); err != nil {
		t.Fatal(err)
	}
	if err := d.Decompose(c); err != nil {
		t.Fatal(err)
	}
	return c
}

const tripCount = "select count(lon) from trips where lon between 2.68288 and 2.70228 and lat between 50.4222 and 50.4485"

// partCatalog builds a decomposed 4-way hash-partitioned table whose every
// partition holds rows on both sides of partCount's filter.
func partCatalog(t testing.TB) *plan.Catalog {
	t.Helper()
	c := plan.NewCatalog(device.PaperSystem())
	eng := New(c, Options{})
	defer eng.Close()
	var rows []string
	for k := 0; k < 256; k++ {
		rows = append(rows, fmt.Sprintf("(%d, %d)", k, k*37%101))
	}
	for _, stmt := range []string{
		"create table ev (k int, v int) partition by hash(k) partitions 4",
		"insert into ev values " + strings.Join(rows, ", "),
		"select bwdecompose(k, 4), bwdecompose(v, 4) from ev",
	} {
		if _, err := eng.Query(context.Background(), stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	return c
}

const (
	partCount = "select count(*) from ev where v <= 50"
	partLegs  = 4
)

// residualKeyCatalog builds a fact table whose foreign-key column keeps
// residual bits on the CPU: the device cannot join through it, so an A&R
// statement over it is refused where capability is judged, at Pin — before a
// stream is asked for, long before a ship. (One key also points past the
// dimension: the classic scan that auto falls back to drops that row.)
func residualKeyCatalog(t testing.TB) *plan.Catalog {
	t.Helper()
	c := plan.NewCatalog(device.PaperSystem())
	add := func(name string, bits uint, cols map[string][]int64) {
		tbl := plan.NewTable(name)
		for col, vals := range cols {
			if err := tbl.AddColumn(col, vals, bat.Width32); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
		for col := range cols {
			if _, err := c.Decompose(name, col, bits); err != nil {
				t.Fatal(err)
			}
		}
	}
	add("d", 32, map[string][]int64{"id": {0, 1, 2, 3}})
	add("f", 2, map[string][]int64{"fk": {0, 1, 2, 3, 4}})
	if err := c.BuildFKIndex("d", "id"); err != nil {
		t.Fatal(err)
	}
	return c
}

const residualKeyJoin = "select count(*) from f join d on f.fk = d.id"

// requireIdle fails the test unless the scheduler holds nothing: no
// statement stream, no partition stream, no CPU slot, and no statement
// counted active or waiting.
func requireIdle(t *testing.T, s *Scheduler) {
	t.Helper()
	st := s.Stats()
	if len(s.gpuSlots) != 0 || len(s.cpuSlots) != 0 || st.ActiveAR != 0 || st.ActiveClassic != 0 || st.WaitingAR != 0 {
		t.Fatalf("scheduler not idle: %d statement streams and %d CPU slots held, %+v", len(s.gpuSlots), len(s.cpuSlots), st)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for part, ch := range s.devStreams {
		if len(ch) != 0 {
			t.Fatalf("partition %d's device stream is still held", part)
		}
	}
}

// deviceWatch counts, through OnStage hooks, the statements that are on the
// device: from a statement's first approximate operator until the ship
// checkpoint of its last leg has begun. The stream is let go only after that
// checkpoint, so with one GPU stream the count can never pass one.
type deviceWatch struct {
	mu       sync.Mutex
	onDevice int
	over     bool
}

// hook returns the OnStage observer of one statement of legs A&R legs;
// then, if set, runs after the bookkeeping.
func (w *deviceWatch) hook(legs int, then func(plan.Stage)) func(plan.Stage) {
	started, shipped := false, 0
	return func(s plan.Stage) {
		w.mu.Lock()
		switch {
		case s == plan.StageApprox && !started:
			started = true
			w.onDevice++
			w.over = w.over || w.onDevice > 1
		case s == plan.StageShip:
			if shipped++; shipped == legs {
				w.onDevice--
			}
		}
		w.mu.Unlock()
		if then != nil {
			then(s)
		}
	}
}

// TestStreamHeldForApproximationOnly parks one A&R statement in its
// refinement and requires a second one to get the only GPU stream, ship and
// finish meanwhile: a statement holds the device for its approximation
// subplan, not for the CPU work after the ship — over a plain table, and
// over a partitioned one, where each partition's stream frees at its leg's
// ship and the statement's at the last. No two statements are ever on the
// device together.
func TestStreamHeldForApproximationOnly(t *testing.T) {
	for _, tc := range []struct {
		name    string
		catalog func(testing.TB) *plan.Catalog
		query   string
		legs    int
	}{
		{"plain", testCatalog, tripCount, 1},
		{"partitioned", partCatalog, partCount, partLegs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.catalog(t)
			s := NewScheduler(c, SchedConfig{GPUStreams: 1, ARQueue: 1})
			b, err := sql.Compile(c, tc.query)
			if err != nil {
				t.Fatal(err)
			}
			var watch deviceWatch
			parked, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			first := plan.ExecOpts{OnStage: watch.hook(tc.legs, func(st plan.Stage) {
				if st == plan.StageRefine {
					once.Do(func() { close(parked) })
					<-release
				}
			})}
			firstDone := make(chan error, 1)
			go func() {
				_, _, err := s.Exec(context.Background(), b, first, ModeAR)
				firstDone <- err
			}()
			<-parked

			// The guard turns a statement that never leaves the queue (the
			// stream held through refinement) into a failure, not a hang.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			var sawShip atomic.Bool
			second := plan.ExecOpts{OnStage: watch.hook(tc.legs, func(st plan.Stage) {
				if st == plan.StageShip {
					sawShip.Store(true)
				}
			})}
			res, route, err := s.Exec(ctx, b, second, ModeAR)
			if err != nil {
				t.Fatalf("second statement while the first refines: %v", err)
			}
			if route != RouteAR || !sawShip.Load() || len(res.Rows) == 0 {
				t.Fatalf("second statement: route %v, shipped %v, rows %v", route, sawShip.Load(), res.Rows)
			}
			if st := s.Stats(); st.RefiningAR != 1 || st.ApproximatingAR != 0 || st.ARRun != 1 || len(s.gpuSlots) != 0 {
				t.Fatalf("with the first statement parked in refinement: %d streams held, %+v", len(s.gpuSlots), st)
			}
			close(release)
			if err := <-firstDone; err != nil {
				t.Fatalf("first statement: %v", err)
			}
			if watch.over {
				t.Fatal("two statements were on the device at once")
			}
			if st := s.Stats(); st.PeakAR != 2 || st.ARRun != 2 {
				t.Fatalf("after both: %+v", st)
			}
			requireIdle(t, s)
		})
	}
}

// TestHandOverWaitsForCPUSlot is the in-flight bound: an A&R statement whose
// legs have shipped stays on its GPU stream until the CPU pool has a slot
// for its refinement, so A&R statements in flight never exceed streams + CPU
// slots and a saturated host back-pressures the device.
func TestHandOverWaitsForCPUSlot(t *testing.T) {
	c := testCatalog(t)
	s := NewScheduler(c, SchedConfig{CPUWorkers: 1, GPUStreams: 1})
	b, err := sql.Compile(c, tripCount)
	if err != nil {
		t.Fatal(err)
	}

	// With the pool's one slot taken the hand-over can end only by giving
	// up: under a context that is already done it must do exactly that,
	// stream still held.
	s.cpuSlots <- struct{}{}
	if err := acquireDevice(context.Background(), s.gpuSlots); err != nil {
		t.Fatal(err)
	}
	h := &arHold{s: s, since: time.Now()}
	h.pending.Store(1)
	s.approxAR++
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if err := h.ReleaseStream(done, -1, true); !errors.Is(err, context.Canceled) {
		t.Fatalf("hand-over with no CPU slot free: %v, want context.Canceled", err)
	}
	if st := s.Stats(); len(s.gpuSlots) != 1 || st.ApproximatingAR != 1 || st.RefiningAR != 0 {
		t.Fatalf("abandoned hand-over moved the statement: %d streams held, %+v", len(s.gpuSlots), st)
	}
	h.finish()
	<-s.cpuSlots
	requireIdle(t, s)

	// End to end: a classic statement parked in a bulk pass holds the slot;
	// the A&R statement reaches its ship and may start refining only once
	// the classic one has come to its last stage (it frees the slot after).
	classicParked, classicRelease := make(chan struct{}), make(chan struct{})
	var once sync.Once
	classicDone := make(chan error, 1)
	var classicOver atomic.Bool
	go func() {
		_, _, err := s.Exec(context.Background(), b, plan.ExecOpts{OnStage: func(st plan.Stage) {
			once.Do(func() { close(classicParked) })
			<-classicRelease
			if st == plan.StageAggregate {
				classicOver.Store(true)
			}
		}}, ModeClassic)
		classicDone <- err
	}()
	<-classicParked
	atShip := make(chan struct{})
	var early atomic.Bool
	arDone := make(chan error, 1)
	go func() {
		_, _, err := s.Exec(context.Background(), b, plan.ExecOpts{OnStage: func(st plan.Stage) {
			switch st {
			case plan.StageShip:
				close(atShip)
			case plan.StageRefine, plan.StageAggregate:
				if !classicOver.Load() {
					early.Store(true)
				}
			}
		}}, ModeAR)
		arDone <- err
	}()
	<-atShip
	if st := s.Stats(); len(s.gpuSlots) != 1 || st.ApproximatingAR != 1 || st.RefiningAR != 0 {
		t.Fatalf("at its ship with the CPU pool full: %d streams held, %+v", len(s.gpuSlots), st)
	}
	close(classicRelease)
	if err := <-classicDone; err != nil {
		t.Fatalf("classic statement: %v", err)
	}
	if err := <-arDone; err != nil {
		t.Fatalf("A&R statement: %v", err)
	}
	if early.Load() {
		t.Fatal("the A&R statement refined while the classic one held the only CPU slot")
	}
	requireIdle(t, s)
}

// TestSchedulerAdmissionControl occupies the single GPU stream, fills the
// bounded wait queue, and checks that (a) a forced-A&R query is rejected
// with a typed *OverloadedError carrying the queue state and (b) an
// auto-mode query spills to the classic pool instead of failing.
func TestSchedulerAdmissionControl(t *testing.T) {
	c := testCatalog(t)
	s := NewScheduler(c, SchedConfig{CPUWorkers: 2, GPUStreams: 1, ARQueue: 1})
	b, err := sql.Compile(c, tripCount)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	s.gpuSlots <- struct{}{} // occupy the GPU stream
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := s.Exec(ctx, b, plan.ExecOpts{}, ModeAR)
		waiterDone <- err
	}()
	// Wait for the queued query to register.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().WaitingAR == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queued A&R query never registered as waiting")
		}
		time.Sleep(time.Millisecond)
	}

	_, _, err = s.Exec(ctx, b, plan.ExecOpts{}, ModeAR)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queue full: want ErrOverloaded, got %v", err)
	}
	var oe *OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("want typed *OverloadedError, got %T", err)
	}
	if oe.Waiting != 1 || oe.Queue != 1 {
		t.Fatalf("overload detail: waiting %d queue %d, want 1/1", oe.Waiting, oe.Queue)
	}
	res, route, err := s.Exec(ctx, b, plan.ExecOpts{}, ModeAuto)
	if err != nil {
		t.Fatalf("auto mode should spill to classic, got %v", err)
	}
	if route != RouteClassic {
		t.Fatalf("auto-mode spill: want RouteClassic, got %v", route)
	}
	if res == nil || len(res.Rows) == 0 {
		t.Fatal("spilled query returned no rows")
	}

	<-s.gpuSlots // release the stream; the waiter may now run
	if err := <-waiterDone; err != nil {
		t.Fatalf("queued A&R query failed after release: %v", err)
	}
	st := s.Stats()
	if st.RejectedAR == 0 {
		t.Fatal("expected at least one rejected A&R admission")
	}
	if st.ARRun != 1 {
		t.Fatalf("expected exactly 1 A&R run, got %d", st.ARRun)
	}
}

// TestSchedulerChargesMemoryWallContention checks the Fig 11 law: a classic
// query that runs while other classic streams saturate the wall must be
// charged more simulated CPU time than a lone query.
func TestSchedulerChargesMemoryWallContention(t *testing.T) {
	sys := device.PaperSystem()
	if ClassicStretch(sys, 1, 0) != 1 {
		t.Fatal("a lone stream must not stretch")
	}
	agg := sys.CPU.AggregateBW / sys.CPU.PerThreadBW // streams at the wall
	if s := ClassicStretch(sys, 32, 0); s <= 1 || s < 32/agg*0.99 {
		t.Fatalf("32 streams should stretch by ~%.1f, got %.2f", 32/agg, s)
	}
	// A&R host draw shrinks the available bandwidth further.
	m := device.NewMeter(sys)
	m.CPU, m.PCI = 500_000_000, 500_000_000 // 50% CPU / 50% PCI
	draw := HostDraw(sys, m)
	wantDraw := 0.5*sys.CPU.PerThreadBW + 0.5*sys.Bus.BW
	if diff := draw - wantDraw; diff > 1 || diff < -1 {
		t.Fatalf("host draw %.3g, want %.3g", draw, wantDraw)
	}
	if ClassicStretch(sys, 32, draw) <= ClassicStretch(sys, 32, 0) {
		t.Fatal("A&R draw must stretch contended classic streams further")
	}
	// Multi-threaded streams: one 16-thread stream alone saturates the wall
	// (its own meter charges that), so 8 such streams each get 1/8 of the
	// aggregate and must stretch by 8x — they can never collectively exceed
	// the wall.
	if s := ClassicStretchThreads(sys, 8, 16, 0); s < 7.99 || s > 8.01 {
		t.Fatalf("8 wall-saturating streams should stretch 8x, got %.2f", s)
	}
	if ClassicStretchThreads(sys, 1, 16, 0) != 1 {
		t.Fatal("a lone multi-threaded stream must not stretch")
	}
}

func TestPlanCacheLRUAndEviction(t *testing.T) {
	pc := NewPlanCache(2)
	a, b, c := &sql.Binding{}, &sql.Binding{}, &sql.Binding{}
	pc.Put("a", a, nil)
	pc.Put("b", b, nil)
	if got, ok := pc.Get([]byte("a"), nil); !ok || got != a {
		t.Fatal("expected hit on a")
	}
	pc.Put("c", c, nil) // evicts b (least recently used)
	if _, ok := pc.Get([]byte("b"), nil); ok {
		t.Fatal("b should have been evicted")
	}
	if got, ok := pc.Get([]byte("a"), nil); !ok || got != a {
		t.Fatal("a should have survived eviction")
	}
	if got, ok := pc.Get([]byte("c"), nil); !ok || got != c {
		t.Fatal("c should be cached")
	}
	st := pc.Stats()
	if st.Hits != 3 || st.Misses != 1 || st.Evictions != 1 || st.Len != 2 {
		t.Fatalf("unexpected stats %+v", st)
	}
	// Zero capacity disables caching.
	off := NewPlanCache(0)
	off.Put("x", a, nil)
	if _, ok := off.Get([]byte("x"), nil); ok {
		t.Fatal("disabled cache must miss")
	}
}
