package server

import (
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/engine"
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

// startServer serves an engine over the catalog on a loopback port and
// returns the server and its address.
func startServer(t testing.TB, c *plan.Catalog, opts engine.Options) (*Server, string) {
	t.Helper()
	srv := New(engine.New(c, opts))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return srv, l.Addr().String()
}

// trip queries with distinct bounds, so concurrent clients exercise both
// distinct plans and shared cached plans.
func tripQuery(i int) string {
	lonLo := 2_00000 + int64(i%8)*10_000
	return fmt.Sprintf("select count(lon) from trips where lon between %d and %d and lat between 5042220 and 5044850",
		lonLo, lonLo+40_000)
}

// TestConcurrentClientsMatchDirectExecution is the acceptance check: 32
// concurrent clients, half forced classic and half A&R, must each see
// exactly the rows direct single-threaded Catalog execution produces.
func TestConcurrentClientsMatchDirectExecution(t *testing.T) {
	c := testCatalog(t)
	_, addr := startServer(t, c, engine.Options{Sched: engine.SchedConfig{CPUWorkers: 8, GPUStreams: 2, ARQueue: 64}})

	// Reference answers from direct execution.
	want := make(map[string][]string)
	for i := 0; i < 8; i++ {
		q := tripQuery(i)
		b, err := sql.Compile(c, q)
		if err != nil {
			t.Fatal(err)
		}
		arRes, err := c.ExecAR(context.Background(), b.Query, plan.ExecOpts{})
		if err != nil {
			t.Fatal(err)
		}
		clRes, err := c.ExecClassic(context.Background(), b.Query, plan.ExecOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if !plan.EqualResults(arRes.Rows, clRes.Rows) {
			t.Fatalf("engine disagreement on %q", q)
		}
		want[q] = strings.Split(strings.TrimRight(plan.FormatRows(arRes.Rows), "\n"), "\n")
	}

	const clients = 32
	const perClient = 12
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		mode := `\mode classic`
		if i%2 == 1 {
			mode = `\mode ar`
		}
		wg.Add(1)
		go func(i int, mode string) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			if _, err := cl.Query(mode); err != nil {
				errs <- err
				return
			}
			for j := 0; j < perClient; j++ {
				q := tripQuery(i + j)
				got, err := cl.Query(q)
				if err != nil {
					errs <- fmt.Errorf("client %d: %w", i, err)
					return
				}
				if strings.Join(got, "|") != strings.Join(want[q], "|") {
					errs <- fmt.Errorf("client %d query %q: got %v want %v", i, q, got, want[q])
					return
				}
			}
			errs <- nil
		}(i, mode)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlanCacheHitsObservableInStats runs the same statement text (in
// varying case/whitespace) repeatedly and checks the \stats endpoint
// reports the hits.
func TestPlanCacheHitsObservableInStats(t *testing.T) {
	c := testCatalog(t)
	_, addr := startServer(t, c, engine.Options{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	variants := []string{
		"select count(lon) from trips where lon between 200000 and 240000",
		"SELECT count(lon) FROM trips WHERE lon BETWEEN 200000 AND 240000",
		"select  count(lon)  from trips  where lon between 200000 and 240000",
	}
	var first []string
	for i, q := range variants {
		got, err := cl.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = got
		} else if strings.Join(got, "|") != strings.Join(first, "|") {
			t.Fatalf("variant %d returned %v, want %v", i, got, first)
		}
	}
	stats, err := cl.Query(`\stats`)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(stats, "\n")
	if !strings.Contains(joined, "plan cache: 2 hits, 1 misses") {
		t.Fatalf("expected 2 hits / 1 miss in stats, got:\n%s", joined)
	}
	if !strings.Contains(joined, "engine totals: 3 queries") {
		t.Fatalf("expected 3 queries in engine totals, got:\n%s", joined)
	}
}

// TestSessionMetaCommands drives the session-facing protocol surface.
func TestSessionMetaCommands(t *testing.T) {
	c := testCatalog(t)
	_, addr := startServer(t, c, engine.Options{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if got, err := cl.Query(`\cost`); err != nil || got[0] != "cost report on" {
		t.Fatalf("\\cost: %v %v", got, err)
	}
	// With cost on, a query reports its route and meter.
	got, err := cl.Query(tripQuery(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !strings.HasPrefix(got[1], "-- ar; simulated") {
		t.Fatalf("expected cost line with ar route, got %v", got)
	}
	if _, err := cl.Query(`\mode classic`); err != nil {
		t.Fatal(err)
	}
	got, err = cl.Query(tripQuery(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !strings.HasPrefix(got[1], "-- classic; simulated") {
		t.Fatalf("expected cost line with classic route, got %v", got)
	}
	if _, err := cl.Query(`\mode sideways`); err == nil {
		t.Fatal("bad mode must error")
	}
	if got, err := cl.Query(`\tables`); err != nil || !strings.Contains(strings.Join(got, " "), "trips") {
		t.Fatalf("\\tables: %v %v", got, err)
	}
	if _, err := cl.Query(`\prepare p1 ` + tripQuery(2)); err != nil {
		t.Fatal(err)
	}
	prep, err := cl.Query(`\run p1`)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := cl.Query(tripQuery(2))
	if err != nil {
		t.Fatal(err)
	}
	if prep[0] != direct[0] {
		t.Fatalf("prepared result %v != direct %v", prep, direct)
	}
	if _, err := cl.Query(`\run nope`); err == nil {
		t.Fatal("\\run of unknown statement must error")
	}
	if _, err := cl.Query(`\bogus`); err == nil {
		t.Fatal("unknown meta command must error")
	}
	if _, err := cl.Query("select nothing from nowhere"); err == nil {
		t.Fatal("bad SQL must error")
	}
}

// TestPreparedStatementParams exercises $n placeholder substitution over
// the protocol: one prepared statement, different bounds per \run.
func TestPreparedStatementParams(t *testing.T) {
	c := testCatalog(t)
	_, addr := startServer(t, c, engine.Options{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Query(`\prepare pq select count(lon) from trips where lon between $1 and $2`); err != nil {
		t.Fatal(err)
	}
	for _, bounds := range [][2]int{{200000, 240000}, {210000, 250000}} {
		got, err := cl.Query(fmt.Sprintf(`\run pq %d %d`, bounds[0], bounds[1]))
		if err != nil {
			t.Fatal(err)
		}
		direct, err := cl.Query(fmt.Sprintf("select count(lon) from trips where lon between %d and %d", bounds[0], bounds[1]))
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != direct[0] {
			t.Fatalf("parameterized result %v != direct %v", got, direct)
		}
	}
	// Wrong arity and non-literal params must error, not smuggle SQL.
	if _, err := cl.Query(`\run pq 1`); err == nil {
		t.Fatal("wrong parameter count must error")
	}
	if _, err := cl.Query(`\run pq 1 drop`); err == nil {
		t.Fatal("non-literal parameter must error")
	}
}

// TestRuntimeDecompose checks bwdecompose statements work through the
// server (routed as DDL) and enable A&R routing afterwards.
func TestRuntimeDecompose(t *testing.T) {
	c := plan.NewCatalog(device.PaperSystem())
	d := spatial.Generate(10_000, 7)
	if err := d.Load(c); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, c, engine.Options{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	q := "select count(lon) from trips where lon between 200000 and 240000"
	if _, err := cl.Query(`\mode ar`); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Query(q); err == nil {
		t.Fatal("A&R before decomposition must error")
	}
	if got, err := cl.Query("select bwdecompose(lon, 24) from trips"); err != nil || got[0] != "decomposed" {
		t.Fatalf("bwdecompose: %v %v", got, err)
	}
	if _, err := cl.Query(q); err != nil {
		t.Fatalf("A&R after decomposition: %v", err)
	}
}

// TestOverloadReplyCarriesRetryHint saturates the single GPU stream and its
// admission queue with a blocked A&R query, then checks the protocol reply
// of a rejected query: a "hint:" payload line with queue detail, followed
// by the typed error text.
func TestOverloadReplyCarriesRetryHint(t *testing.T) {
	c := testCatalog(t)
	srv, addr := startServer(t, c, engine.Options{Sched: engine.SchedConfig{GPUStreams: 1, ARQueue: 1}})

	// Block the GPU stream deterministically: a direct scheduler execution
	// whose OnStage hook parks until released.
	release := make(chan struct{})
	running := make(chan struct{})
	var once sync.Once
	b, err := sql.Compile(c, tripQuery(0))
	if err != nil {
		t.Fatal(err)
	}
	blocked := plan.ExecOpts{OnStage: func(plan.Stage) {
		once.Do(func() { close(running) })
		<-release
	}}
	done := make(chan error, 1)
	go func() {
		_, _, err := srv.Engine().Scheduler().Exec(context.Background(), b, blocked, engine.ModeAR)
		done <- err
	}()
	<-running

	// Fill the admission queue with one waiter.
	waiter := make(chan error, 1)
	go func() {
		_, _, err := srv.Engine().Scheduler().Exec(context.Background(), b, plan.ExecOpts{}, engine.ModeAR)
		waiter <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Engine().Scheduler().Stats().WaitingAR == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queued A&R query never registered as waiting")
		}
		time.Sleep(time.Millisecond)
	}

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Query(`\mode ar`); err != nil {
		t.Fatal(err)
	}
	payload, err := cl.Query(tripQuery(1))
	if err == nil {
		t.Fatal("expected overload error")
	}
	if !strings.Contains(err.Error(), "overloaded") || !strings.Contains(err.Error(), "queue capacity 1") {
		t.Fatalf("error lacks typed overload detail: %v", err)
	}
	if len(payload) == 0 || !strings.HasPrefix(payload[0], "hint: A&R queue full (1 waiting / 1 capacity)") {
		t.Fatalf("expected retry hint payload line, got %v", payload)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("blocked query failed: %v", err)
	}
	if err := <-waiter; err != nil {
		t.Fatalf("queued query failed after release: %v", err)
	}
}

// TestClientDisconnectCancelsInFlightQuery is the redesign's motivating
// scenario: a client whose query is still waiting on the GPU stream hangs
// up, and the per-connection context must cancel the query — the scheduler
// wait is abandoned and the slot bookkeeping drains — without the stream
// ever becoming free.
func TestClientDisconnectCancelsInFlightQuery(t *testing.T) {
	c := testCatalog(t)
	srv, addr := startServer(t, c, engine.Options{Sched: engine.SchedConfig{GPUStreams: 1, ARQueue: 4}})
	sched := srv.Engine().Scheduler()

	// Park a query on the GPU stream until released, so the protocol
	// client's query queues behind it deterministically.
	release := make(chan struct{})
	running := make(chan struct{})
	var once sync.Once
	b, err := sql.Compile(c, tripQuery(0))
	if err != nil {
		t.Fatal(err)
	}
	blocked := plan.ExecOpts{OnStage: func(plan.Stage) {
		once.Do(func() { close(running) })
		<-release
	}}
	blockedDone := make(chan error, 1)
	go func() {
		_, _, err := sched.Exec(context.Background(), b, blocked, engine.ModeAR)
		blockedDone <- err
	}()
	<-running

	// A raw client sends a forced-A&R query and hangs up without reading
	// the response.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(conn, "\\mode ar\n%s\n", tripQuery(1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sched.Stats().WaitingAR == 0 {
		if time.Now().After(deadline) {
			t.Fatal("client query never queued on the GPU stream")
		}
		time.Sleep(time.Millisecond)
	}
	conn.Close()

	// The disconnect must cancel the queued query while the stream is
	// still occupied: waiting drains to zero and the cancellation is
	// counted, with no A&R execution having happened.
	deadline = time.Now().Add(5 * time.Second)
	for sched.Stats().WaitingAR != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("disconnect did not cancel the queued query: %+v", sched.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if st := sched.Stats(); st.Cancelled == 0 || st.ARRun != 0 {
		t.Fatalf("want cancellation recorded and no A&R run, got %+v", st)
	}

	close(release)
	if err := <-blockedDone; err != nil {
		t.Fatalf("blocked query failed after release: %v", err)
	}
}

// TestHalfCloseClientGetsResponses guards the one-shot piping pattern
// (`printf 'stmt' | nc -N`): a client that sends its statements and
// half-closes the write side before reading must still receive every
// response — a clean EOF is not abandonment and must not cancel pending
// statements.
func TestHalfCloseClientGetsResponses(t *testing.T) {
	c := testCatalog(t)
	_, addr := startServer(t, c, engine.Options{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "%s\n%s\n", tripQuery(0), tripQuery(1)); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	got := string(out)
	if strings.Contains(got, "error:") {
		t.Fatalf("half-closed client saw an error:\n%s", got)
	}
	if n := strings.Count(got, "ok\n"); n != 2 {
		t.Fatalf("want 2 responses after half-close, got %d:\n%s", n, got)
	}
}

// TestCloseDrainsAndRejectsClients: Close cancels the serving context,
// drains handlers, and later queries on old connections fail.
func TestCloseDrainsAndRejectsClients(t *testing.T) {
	c := testCatalog(t)
	srv, addr := startServer(t, c, engine.Options{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Query(tripQuery(0)); err != nil {
		t.Fatal(err)
	}
	doneClose := make(chan error, 1)
	go func() { doneClose <- srv.Close() }()
	select {
	case err := <-doneClose:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server Close did not drain")
	}
	if _, err := cl.Query(tripQuery(1)); err == nil {
		t.Fatal("query after Close must fail")
	}
}

func TestNormalize(t *testing.T) {
	a := sql.Normalize("SELECT  count(lon) FROM trips  WHERE lon BETWEEN 1 AND 2")
	b := sql.Normalize("select count ( lon ) from trips where lon between 1 and 2")
	if a != b {
		t.Fatalf("normalization mismatch: %q vs %q", a, b)
	}
	if x := sql.Normalize("select !!"); x != "select !!" {
		t.Fatalf("unlexable text should normalize to itself, got %q", x)
	}
}
