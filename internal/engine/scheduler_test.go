package engine

import (
	"context"
	"errors"
	"testing"
	"time"

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
