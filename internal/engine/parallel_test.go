package engine

import (
	"context"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/plan"
	"repro/internal/sql"
)

// TestParallelSchedulerTotalsStress races concurrent A&R and classic
// streams against the scheduler's stats surfaces. It pins the satellite
// invariant that Scheduler.Totals.Merge is called outside s.mu on purpose:
// device.SharedMeter is internally synchronized, so the merges must be
// race-free and lose no query. Run with -race.
func TestParallelSchedulerTotalsStress(t *testing.T) {
	c := dmlCatalog(t)
	eng := New(c, Options{Threads: 3, Sched: SchedConfig{CPUWorkers: 4, GPUStreams: 2, ARQueue: 64}})
	ctx := context.Background()
	const q = "select count(*), sum(v) from t where v < 900"

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	const streams, perStream = 8, 25
	for r := 0; r < streams; r++ {
		wg.Add(1)
		mode := ModeClassic
		if r%2 == 0 {
			mode = ModeAR
		}
		go func(mode Mode) {
			defer wg.Done()
			sess := eng.SessionFor(mode)
			defer sess.Close()
			for i := 0; i < perStream; i++ {
				if _, err := sess.Query(ctx, q); err != nil {
					errs <- err
					return
				}
			}
		}(mode)
	}
	// Stats readers snapshot Totals and scheduler counters mid-flight.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = eng.Scheduler().Stats()
				_ = eng.sched.Totals.Total()
				_ = strings.Join(eng.StatsLines(nil), "\n")
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if _, _, _, queries := eng.sched.Totals.Totals(); queries != streams*perStream {
		t.Fatalf("Totals merged %d queries, want %d", queries, streams*perStream)
	}
	st := eng.Scheduler().Stats()
	if st.ClassicRun+st.ARRun != streams*perStream {
		t.Fatalf("scheduler ran %d+%d queries, want %d", st.ClassicRun, st.ARRun, streams*perStream)
	}
}

// TestPlanCacheStalePutWindow is the staleness-window regression: a table
// dropped and re-created *between* Compile and PlanCache.Put must not let
// the cache serve the stale binding. Two properties are pinned: the
// engine's Put-side guard (epochs captured before compilation fail
// validation after the swap, so the binding is refused at Put), and the
// Get-side backstop (even an entry forced into the cache with stale deps
// is invalidated on its first hit instead of being served).
func TestPlanCacheStalePutWindow(t *testing.T) {
	ctx := context.Background()
	c := dmlCatalog(t)
	eng := New(c, Options{})
	sess := eng.Session()
	defer sess.Close()

	const q = "select count(*) from t where v < 100"
	key := sql.Normalize(q)

	// Replicate engine.compileCached's window step by step: snapshot the
	// epochs, compile — and only then let the DDL race in.
	pre := c.SchemaEpochs()
	b, err := sql.Compile(c, q)
	if err != nil {
		t.Fatal(err)
	}
	deps := map[string]uint64{"t": pre["t"]}

	// The race: t is dropped and re-created (v becomes decimal2, so the
	// literal 100 now aligns to 10000) before the binding reaches the cache.
	if err := c.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(ctx, "create table t (v decimal2)"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(ctx, "insert into t values (50.00), (150.00)"); err != nil {
		t.Fatal(err)
	}

	// Put-side guard: the pre-compile epochs no longer validate, so the
	// engine must refuse to cache the binding.
	if eng.depsValid(deps) {
		t.Fatal("pre-compile epochs still validate after drop/re-create")
	}

	// Get-side backstop: even if a legacy writer forced the entry in, the
	// first hit must invalidate it rather than serve it.
	eng.cache.Put(key, b, deps)
	if got := mustCount(t, sess, q); got != 1 {
		t.Fatalf("count after stale Put = %d, want 1 (stale binding served)", got)
	}
	if st := eng.cache.Stats(); st.Invalidations == 0 {
		t.Fatal("stale entry was not invalidated on first hit")
	}

	// And the recompiled entry now in the cache keeps serving the new
	// schema on hits.
	if got := mustCount(t, sess, q); got != 1 {
		t.Fatalf("count on cache hit = %d, want 1", got)
	}
}

// TestParallelWorkerBudgetSplitsPool checks the scheduler's worker
// allocation: a lone query gets min(Threads, pool) workers, queries
// admitted while others are active get their fair share of what the pool
// still has unreserved (never less than one worker), and completed grants
// return to the pool.
func TestParallelWorkerBudgetSplitsPool(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8)) // the pool, not the host, is what is split
	c := dmlCatalog(t)
	s := NewScheduler(c, SchedConfig{CPUWorkers: 8})

	s.mu.Lock()
	s.activeClassic = 1 // self
	if got := s.workerBudgetLocked(4); got != 4 {
		t.Errorf("lone query budget = %d, want 4 (capped by Threads)", got)
	}
	s.releaseWorkersLocked(4)
	if got := s.workerBudgetLocked(16); got != 8 {
		t.Errorf("lone query budget = %d, want 8 (capped by pool)", got)
	}
	// A second arrival while the first holds the whole pool is squeezed to
	// the 1-worker minimum: staggered admissions never oversubscribe past
	// one worker per active query.
	s.activeClassic = 2
	if got := s.workerBudgetLocked(16); got != 1 {
		t.Errorf("budget with pool fully reserved = %d, want 1", got)
	}
	s.releaseWorkersLocked(1)
	s.releaseWorkersLocked(8) // first query finishes
	if s.allocWorkers != 0 {
		t.Fatalf("allocWorkers = %d after all releases, want 0", s.allocWorkers)
	}
	s.activeClassic = 3
	s.refineAR = 1
	if got := s.workerBudgetLocked(16); got != 2 {
		t.Errorf("budget with 4 active = %d, want 2 (8/4)", got)
	}
	s.releaseWorkersLocked(2)
	s.activeClassic = 20
	if got := s.workerBudgetLocked(16); got != 1 {
		t.Errorf("oversubscribed budget = %d, want 1", got)
	}
	s.mu.Unlock()
}

// TestWorkerGrantCappedAtHostCores: the pool is sized by the simulated CPU
// (32 threads here), so a statement that asks for 8 threads on a host of two
// cores would get 8 goroutines taking turns on two. Its real grant is capped
// at GOMAXPROCS, the grant goes back whole, and the meters are those of the
// same statement run on 8 explicit workers: the cap moves no charge.
func TestWorkerGrantCappedAtHostCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	c := dmlCatalog(t)
	s := NewScheduler(c, SchedConfig{CPUWorkers: 32})
	s.mu.Lock()
	s.activeClassic = 1
	if got := s.workerBudgetLocked(8); got > 2 {
		t.Errorf("8 threads on a 32-thread pool and 2 cores granted %d workers, want at most 2", got)
	} else {
		s.releaseWorkersLocked(got)
	}
	s.activeClassic = 0
	if s.allocWorkers != 0 {
		t.Errorf("allocWorkers = %d after the release, want 0", s.allocWorkers)
	}
	s.mu.Unlock()

	b, err := sql.Compile(c, "select count(*), sum(v) from t where v < 900")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, mode := range []Mode{ModeAR, ModeClassic} {
		granted, _, err := s.Exec(ctx, b, plan.ExecOpts{Threads: 8}, mode)
		if err != nil {
			t.Fatal(err)
		}
		explicit, _, err := s.Exec(ctx, b, plan.ExecOpts{Threads: 8, Workers: 8}, mode)
		if err != nil {
			t.Fatal(err)
		}
		if *granted.Meter != *explicit.Meter || !slices.Equal(granted.Rows[0].Vals, explicit.Rows[0].Vals) {
			t.Errorf("%v: the capped grant charged %v and answered %v, 8 workers %v and %v", mode, granted.Meter, granted.Rows, explicit.Meter, explicit.Rows)
		}
	}
	if st := s.Stats(); st.ActiveClassic+st.ActiveAR != 0 || s.allocWorkers != 0 {
		t.Errorf("scheduler not idle after the runs: %+v, %d workers reserved", st, s.allocWorkers)
	}
}
