package engine

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/sql"
)

// TestCancelMidRefinementReleasesSlot cancels a query's context the moment
// its A&R refinement phase starts: the query must return ctx.Err() from
// the next cooperative checkpoint, the GPU slot must be released, and the
// pool must remain fully drainable afterwards. The same holds wherever the
// statement stops — in phase A, with the stream still held; in phase R,
// after the hand-over to a CPU slot; over a partitioned table, whose legs
// hold partition streams too — whatever it holds by then goes back, once. And
// a statement that errors before the ship without a cancellation — the
// planner refuses a join through a key with residual bits under forced A&R —
// never held anything: the scheduler is idle after it.
func TestCancelMidRefinementReleasesSlot(t *testing.T) {
	for _, tc := range []struct {
		name    string
		catalog func(testing.TB) *plan.Catalog
		query   string
		at      plan.Stage // cancel on reaching it; "": the statement fails by itself
	}{
		{"refinement", testCatalog, tripCount, plan.StageRefine},
		{"approximation", testCatalog, tripCount, plan.StageApprox},
		{"partitioned refinement", partCatalog, partCount, plan.StageRefine},
		{"partitioned approximation", partCatalog, partCount, plan.StageApprox},
		{"partitioned tail", partCatalog, partCount, plan.StageGather},
		{"error before ship", residualKeyCatalog, residualKeyJoin, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.catalog(t)
			eng := New(c, Options{Sched: SchedConfig{GPUStreams: 1, ARQueue: 1}})
			b, err := sql.Compile(c, tc.query)
			if err != nil {
				t.Fatal(err)
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var once sync.Once
			opts := plan.ExecOpts{OnStage: func(s plan.Stage) {
				if s == tc.at {
					once.Do(cancel)
				}
			}}
			res, route, err := eng.Scheduler().Exec(ctx, b, opts, ModeAR)
			if tc.at == "" {
				if err == nil || !strings.Contains(err.Error(), "fully device-resident key column") {
					t.Fatalf("want the join key's refusal, got res=%v route=%v err=%v", res, route, err)
				}
				if auto, _, err := eng.Scheduler().Exec(ctx, b, opts, ModeAuto); err != nil || auto.Rows[0].Vals[0] != 4 {
					t.Fatalf("auto over the same tables: %v, %v; want the classic scan's 4 joined rows", auto, err)
				}
				requireIdle(t, eng.Scheduler())
				return
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got res=%v route=%v err=%v", res, route, err)
			}

			st := eng.Scheduler().Stats()
			if st.ActiveAR != 0 || st.WaitingAR != 0 {
				t.Fatalf("cancelled query left scheduler state: %+v", st)
			}
			if st.Cancelled == 0 {
				t.Fatal("cancellation not counted in stats")
			}
			requireIdle(t, eng.Scheduler())

			// The slot was reclaimed: a fresh query must run to completion.
			res2, route2, err := eng.Scheduler().Exec(context.Background(), b, plan.ExecOpts{}, ModeAR)
			if err != nil {
				t.Fatalf("pool not drainable after cancellation: %v", err)
			}
			if route2 != RouteAR || len(res2.Rows) == 0 {
				t.Fatalf("follow-up query misrouted: route=%v rows=%v", route2, res2.Rows)
			}
			requireIdle(t, eng.Scheduler())
		})
	}
}

// TestCancelMidBulkPass does the same for the classic executor: cancelling
// at the first bulk pass aborts between passes with ctx.Err() and releases
// the CPU worker slot.
func TestCancelMidBulkPass(t *testing.T) {
	c := testCatalog(t)
	eng := New(c, Options{Sched: SchedConfig{CPUWorkers: 1}})
	b, err := sql.Compile(c, tripCount)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	opts := plan.ExecOpts{OnStage: func(s plan.Stage) {
		if s == plan.StageBulk {
			once.Do(cancel)
		}
	}}
	_, _, err = eng.Scheduler().Exec(ctx, b, opts, ModeClassic)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if st := eng.Scheduler().Stats(); st.ActiveClassic != 0 {
		t.Fatalf("cancelled classic query left active count: %+v", st)
	}
	// The lone CPU worker slot must be free again.
	if _, _, err := eng.Scheduler().Exec(context.Background(), b, plan.ExecOpts{}, ModeClassic); err != nil {
		t.Fatalf("CPU pool not drainable after cancellation: %v", err)
	}
}

// TestCancelWhileQueuedVacatesAdmissionQueue blocks the single GPU stream,
// queues a second A&R query, cancels it while it waits, and checks the
// wait is abandoned promptly with ctx.Err() and the admission queue slot
// is vacated for later arrivals.
func TestCancelWhileQueuedVacatesAdmissionQueue(t *testing.T) {
	c := testCatalog(t)
	eng := New(c, Options{Sched: SchedConfig{GPUStreams: 1, ARQueue: 1}})
	sched := eng.Scheduler()
	b, err := sql.Compile(c, tripCount)
	if err != nil {
		t.Fatal(err)
	}

	// Park a query on the GPU stream until released.
	release := make(chan struct{})
	running := make(chan struct{})
	var once sync.Once
	blocked := plan.ExecOpts{OnStage: func(plan.Stage) {
		once.Do(func() { close(running) })
		<-release
	}}
	blockedDone := make(chan error, 1)
	go func() {
		_, _, err := sched.Exec(context.Background(), b, blocked, ModeAR)
		blockedDone <- err
	}()
	<-running

	// Queue a waiter, then cancel it mid-wait.
	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := sched.Exec(ctx, b, plan.ExecOpts{}, ModeAR)
		waiterDone <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for sched.Stats().WaitingAR == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("queued waiter: want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter did not return promptly")
	}
	if st := sched.Stats(); st.WaitingAR != 0 {
		t.Fatalf("cancelled waiter still counted as waiting: %+v", st)
	}

	// The vacated queue slot admits a new query, which runs after release.
	nextDone := make(chan error, 1)
	go func() {
		_, _, err := sched.Exec(context.Background(), b, plan.ExecOpts{}, ModeAR)
		nextDone <- err
	}()
	deadline = time.Now().Add(5 * time.Second)
	for sched.Stats().WaitingAR == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue slot not vacated: new query rejected or lost")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-blockedDone; err != nil {
		t.Fatalf("blocked query failed: %v", err)
	}
	if err := <-nextDone; err != nil {
		t.Fatalf("post-cancel query failed: %v", err)
	}
	requireIdle(t, sched)
}

// TestCancelledBeforeSubmitNeverTakesSlot: a context cancelled before Exec
// is rejected upfront with ctx.Err() and counted as cancelled.
func TestCancelledBeforeSubmitNeverTakesSlot(t *testing.T) {
	c := testCatalog(t)
	eng := New(c, Options{})
	b, err := sql.Compile(c, tripCount)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := eng.Scheduler().Exec(ctx, b, plan.ExecOpts{}, ModeAuto); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	st := eng.Scheduler().Stats()
	if st.ActiveAR != 0 || st.ActiveClassic != 0 || st.Cancelled == 0 {
		t.Fatalf("unexpected scheduler state after pre-cancelled submit: %+v", st)
	}
}

// TestSessionQueryHonorsDeadline drives cancellation through the public
// facade: a Session.Query under an already-expired deadline returns the
// context error.
func TestSessionQueryHonorsDeadline(t *testing.T) {
	c := testCatalog(t)
	eng := New(c, Options{})
	sess := eng.Session()
	defer sess.Close()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := sess.Query(ctx, tripCount); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}
