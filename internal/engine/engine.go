// Package engine is the public, embeddable facade over the A&R query
// system: one context-aware API that every front-end — the interactive
// shell, the TCP server, the benchmark harnesses, the experiment runners,
// and any future adapter (HTTP, replication, batching) — sits on instead
// of wiring the SQL front end, plan cache, device-aware scheduler and
// executors together itself.
//
// The shape follows the embeddable-engine pattern of go-mysql-server:
// construct one Engine over a catalog, open a Session per caller, and run
// statements through Query / Prepare+Exec. The engine owns the LRU plan
// cache and the scheduler; protocol adapters stay thin.
//
//	eng := engine.New(catalog, engine.Options{})
//	sess := eng.Session()
//	res, err := sess.Query(ctx, "select count(lon) from trips where ...")
//
// Every execution takes a context.Context and honors it end to end:
// waiting for a CPU-pool or GPU-stream slot aborts when ctx is cancelled,
// and running queries stop at the executors' cooperative stage checkpoints
// (see plan.Stage), returning ctx.Err() with their slot released.
package engine

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/ar"
	"repro/internal/device"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sql"
)

// Options tunes an Engine.
type Options struct {
	// Sched sizes the device-aware scheduler.
	Sched SchedConfig
	// CacheSize bounds the LRU plan cache (entries). Defaults to 128;
	// negative disables caching.
	CacheSize int
	// Threads is the CPU thread count each query executes with (classic
	// plan or A&R refinement). Defaults to 1, one stream per worker —
	// cross-stream parallelism comes from the pool, as in Fig 11. Values
	// above 1 run each query's CPU kernels morsel-parallel: the scheduler
	// grants every admitted query its share of the CPU pool (at most
	// Threads workers), so wall-clock scales with Threads while the
	// simulated meter — which always bills Threads-way parallelism —
	// reports the same figures as before.
	Threads int
	// MergeThreshold is the live-delta row count past which the background
	// merger (StartMaintenance) compacts a table. Defaults to 65536;
	// negative disables background merging (\merge still works).
	MergeThreshold int
	// MergeInterval is the background merger's poll interval. Defaults to
	// 250ms.
	MergeInterval time.Duration
	// SlowQueryThreshold enables the slow-query log: statements whose
	// wall-clock latency (including scheduler waits) crosses it are
	// retained with their full stage trace, viewable via \slow. 0 disables
	// the log (it can be enabled at runtime with \slow <duration>).
	SlowQueryThreshold time.Duration
	// DataDir, when set, makes the engine durable: Open mounts a
	// write-ahead log and segment files in the directory (recovering
	// whatever state they hold), every DML statement is logged before it
	// applies, and background merges become checkpoints that persist the
	// merged base and truncate the replayed WAL prefix. Empty means
	// memory-only (the default, and the only mode New supports losslessly).
	DataDir string
	// Fsync selects the WAL fsync policy for DataDir: "always" (group
	// commit; the default), "interval" (background fsync every
	// FsyncInterval), or "off" (leave flushing to the OS).
	Fsync string
	// FsyncInterval is the background fsync cadence under Fsync "interval".
	// Defaults to 10ms.
	FsyncInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.CacheSize == 0 {
		o.CacheSize = 128
	}
	if o.Threads <= 0 {
		o.Threads = 1
	}
	if o.MergeThreshold == 0 {
		o.MergeThreshold = 65536
	}
	if o.MergeInterval <= 0 {
		o.MergeInterval = 250 * time.Millisecond
	}
	return o
}

// Engine is the embeddable query engine: catalog + plan cache + scheduler
// behind a context-aware API. One Engine is shared by any number of
// concurrent sessions.
type Engine struct {
	cat     *plan.Catalog
	sched   *Scheduler
	cache   *PlanCache
	opts    Options
	metrics *metrics

	// dur is the durability coordinator when Options.DataDir is set; nil
	// for a memory-only engine.
	dur *durable.Store

	mu           sync.Mutex
	sessions     map[int64]*Session
	nextID       int64
	def          *Session
	maintCancels []context.CancelFunc
	maintWG      sync.WaitGroup
	closed       bool

	// Background-merger failure state: a table whose merge failed is not
	// retried until its epoch moves (hot-loop guard), and the failures are
	// counted and surfaced in \stats so a stuck table is visible.
	mergeFailEpoch map[string]uint64
	mergeFailures  int64
	lastMergeErr   string
}

// New returns an engine over the catalog. The catalog's tables should be
// loaded (and columns decomposed, for A&R routing) before serving, though
// callers can also issue bwdecompose statements at runtime. New panics if
// Options.DataDir is set and mounting it fails (a bad policy name, an
// unreadable directory, a recovery conflict) — durable callers should use
// Open, which reports those errors.
func New(cat *plan.Catalog, opts Options) *Engine {
	e, err := Open(cat, opts)
	if err != nil {
		panic(fmt.Sprintf("engine.New: %v (use engine.Open for durable engines)", err))
	}
	return e
}

// Open returns an engine over the catalog, mounting Options.DataDir when
// set: the data directory's segments are loaded, its WAL tail replayed
// into the catalog, and from then on every DML statement is
// write-ahead-logged. Tables already in the catalog (bulk-loaded demo
// data) are adopted into the directory on first open; on later opens the
// caller must not preload them again (see durable.Exists).
func Open(cat *plan.Catalog, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	e := &Engine{
		cat:      cat,
		sched:    NewScheduler(cat, opts.Sched),
		cache:    NewPlanCache(opts.CacheSize),
		opts:     opts,
		sessions: make(map[int64]*Session),
	}
	e.metrics = newMetrics(e)
	e.metrics.slow.SetThreshold(opts.SlowQueryThreshold)
	e.sched.onQueueWait = e.metrics.queueWait.Observe
	e.sched.onStreamHold = e.metrics.streamHold.Observe
	if opts.DataDir != "" {
		policy, err := durable.ParsePolicy(opts.Fsync)
		if err != nil {
			return nil, err
		}
		fsyncSeconds := e.metrics.reg.Histogram("ar_wal_fsync_seconds", "",
			"Wall-clock latency of WAL fsyncs (each may commit a whole group of appends).", nil)
		dur, err := durable.Open(opts.DataDir, cat, durable.Config{
			Policy:        policy,
			Interval:      opts.FsyncInterval,
			FsyncObserver: fsyncSeconds.Observe,
		})
		if err != nil {
			return nil, err
		}
		cat.SetDurability(dur)
		e.dur = dur
		e.metrics.attachDurability(dur)
	}
	return e, nil
}

// Durability exposes the engine's durability coordinator; nil when the
// engine is memory-only (no Options.DataDir).
func (e *Engine) Durability() *durable.Store { return e.dur }

// Close shuts the engine down cleanly: it stops the background
// maintenance goroutines, checkpoints every dirty table (so the WAL
// carries no replay tail), and fsyncs and closes the WAL. A reopened data
// directory after a clean Close replays zero records. Close is idempotent;
// a memory-only engine's Close only stops maintenance.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	cancels := e.maintCancels
	e.maintCancels = nil
	e.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
	e.maintWG.Wait()
	if e.dur == nil {
		return nil
	}
	var firstErr error
	for _, name := range e.cat.TableNames() {
		if !e.dur.Dirty(name) {
			continue
		}
		m := device.NewMeter(e.cat.System())
		if _, err := e.dur.Checkpoint(m, name, false); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		e.sched.Totals.Merge(m)
	}
	if err := e.dur.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// CheckpointTable checkpoints one table through the durability layer:
// merge, persist the new base segment, drop the covered WAL prefix. It
// charges the merge traffic to m (which may be nil) and errors on a
// memory-only engine.
func (e *Engine) CheckpointTable(m *device.Meter, table string) (durable.CheckpointStats, error) {
	if e.dur == nil {
		return durable.CheckpointStats{}, fmt.Errorf("engine: no data directory; checkpointing needs Options.DataDir")
	}
	return e.dur.Checkpoint(m, table, false)
}

// Catalog returns the engine's catalog.
func (e *Engine) Catalog() *plan.Catalog { return e.cat }

// Scheduler exposes the engine's scheduler (for stats and experiments).
func (e *Engine) Scheduler() *Scheduler { return e.sched }

// Cache exposes the engine's plan cache.
func (e *Engine) Cache() *PlanCache { return e.cache }

// Metrics exposes the engine's metrics registry — the source behind both
// arserve's GET /metrics endpoint and the \metrics meta command.
func (e *Engine) Metrics() *obs.Registry { return e.metrics.reg }

// SlowLog exposes the engine's slow-query log (the \slow surface).
func (e *Engine) SlowLog() *obs.SlowLog { return e.metrics.slow }

// Session opens a new session. Callers should Close it when done so the
// active-session count stays accurate.
func (e *Engine) Session() *Session {
	e.mu.Lock()
	e.nextID++
	s := &Session{ID: e.nextID, eng: e, prepared: make(map[string]*Stmt)}
	e.sessions[s.ID] = s
	e.mu.Unlock()
	return s
}

// SessionFor opens a new session with its executor mode already set — the
// common shape for callers that pin a session to one executor (benchmark
// streams, experiment configurations, forced-mode clients).
func (e *Engine) SessionFor(mode Mode) *Session {
	s := e.Session()
	s.SetMode(mode)
	return s
}

// SessionCount returns the number of open sessions.
func (e *Engine) SessionCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.sessions)
}

func (e *Engine) dropSession(id int64) {
	e.mu.Lock()
	delete(e.sessions, id)
	e.mu.Unlock()
}

// defaultSession returns the engine-owned session behind Engine.Query /
// Engine.Prepare — the ten-line embedding path that doesn't want to manage
// sessions. It is unregistered, so it never counts as an active session.
func (e *Engine) defaultSession() *Session {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.def == nil {
		e.def = &Session{eng: e, prepared: make(map[string]*Stmt)}
	}
	return e.def
}

// Query compiles and executes one statement on the engine's default
// session. Callers needing per-caller mode, cost or totals state open
// their own Session instead.
func (e *Engine) Query(ctx context.Context, src string) (*Result, error) {
	return e.defaultSession().Query(ctx, src)
}

// Prepare compiles a statement on the engine's default session.
func (e *Engine) Prepare(ctx context.Context, src string) (*Stmt, error) {
	return e.defaultSession().Prepare(ctx, src)
}

// QueryPlan executes a logical plan.Query on the engine's default session.
func (e *Engine) QueryPlan(ctx context.Context, q plan.Query) (*Result, error) {
	return e.defaultSession().QueryPlan(ctx, q)
}

// describe compiles a SELECT for the meta command cmd, pins its plan under
// mode and renders the physical pipeline it would run, without executing it.
// Mode resolves exactly like execution routing: auto asks the optimizer's
// cost model, and the costing rationale is prepended so mispicks are visible
// in \explain. The pinned plan is returned too: \explain analyze goes on to
// run that very object, so the listing cannot differ from the trace.
func (e *Engine) describe(cmd, src string, mode Mode) ([]string, *plan.Pinned, error) {
	b, err := e.compile(src)
	if err != nil {
		return nil, nil, err
	}
	if b.IsWrite() {
		// Write statements have no pipeline to describe.
		return nil, nil, fmt.Errorf("engine: %s queries; %q is a write statement", cmd, strings.Fields(src)[0])
	}
	pl, err := b.Plan(e.cat, mode)
	if err != nil {
		return nil, nil, err
	}
	x, err := e.cat.Pin(pl)
	if err != nil {
		return nil, nil, err
	}
	lines := x.Describe()
	if mode == ModeAuto {
		note := "mode choice: " + x.Choice().String() + " — auto; \\mode ar|classic forces an executor"
		lines = append([]string{note}, lines...)
	}
	return lines, x, nil
}

// DescribeStatement compiles a SELECT statement and renders its pipeline
// (the shell's \explain).
func (e *Engine) DescribeStatement(src string, mode Mode) ([]string, error) {
	lines, _, err := e.describe(`\explain describes`, src, mode)
	return lines, err
}

// AnalyzeStatement is \explain analyze: it compiles a SELECT, renders the
// pipeline it will run, then actually executes it with tracing forced on —
// through the normal scheduler path, so admission control, contention
// charging and session totals all apply — and appends the trace: per-stage
// est-vs-actual rows, wall time and the simulated GPU/CPU/PCI split.
func (e *Engine) AnalyzeStatement(ctx context.Context, sess *Session, src string) ([]string, error) {
	lines, x, err := e.describe(`\explain analyze executes`, src, sess.Mode())
	if err != nil {
		return nil, err
	}
	res, err := e.execTraced(ctx, sess, nil, src, nil, x)
	if err != nil {
		return nil, err
	}
	return append(lines, res.Trace.Render()...), nil
}

// Totals returns the engine-wide meter totals across all sessions.
func (e *Engine) Totals() *device.SharedMeter { return &e.sched.Totals }

// keyBufs recycles the buffers statements are normalized into: most
// lookups hit, and a hit needs the key only for the map probe.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// compile resolves a statement through the plan cache, compiling and
// inserting on miss. Write statements (bwdecompose, INSERT, DELETE,
// CREATE TABLE) are never cached: they are side-effecting, and re-running
// a stale binding silently would be surprising. The ones their first token
// gives away (sql.IsDML) never reach the cache at all — an INSERT's text is
// lexed once, by the parser, not a second time for a key. Cached entries
// carry the schema epochs of their tables; a hit whose dependencies changed
// (table dropped or re-created) is invalidated and recompiled instead of
// served against replaced columns.
//
// The epochs are snapshotted BEFORE sql.Compile runs: epochs are globally
// monotonic, so if a table is dropped and re-created mid-compilation the
// recorded epoch can only be older than the live one and the entry fails
// validation on its first hit. Reading the epochs after compilation would
// invert that — the fresh epoch would vouch for a binding compiled against
// the replaced schema. A table the binding references that is absent from
// the snapshot is recorded as epoch 0, which no live table ever has.
func (e *Engine) compile(src string) (*sql.Binding, error) {
	if sql.IsDML(src) {
		// Never cached: no key to build, nothing to look up, no epochs to
		// snapshot for an entry that will not exist.
		return sql.Compile(e.cat, src)
	}
	key := keyBufs.Get().(*[]byte)
	defer keyBufs.Put(key)
	*key = sql.AppendNormalized((*key)[:0], src)
	if b, ok := e.cache.Get(*key, e.depsValid); ok {
		return b, nil
	}
	pre := e.cat.SchemaEpochs()
	b, err := sql.Compile(e.cat, src)
	if err != nil {
		return nil, err
	}
	tables := b.Tables()
	deps := make(map[string]uint64, len(tables))
	for _, name := range tables {
		deps[name] = pre[name] // 0 when created mid-window: invalid on first hit
	}
	if !b.IsWrite() && e.depsValid(deps) {
		// Re-validate on Put, not just on Get: if a table was dropped and
		// re-created between the pre-compile epoch snapshot and this point,
		// the binding may have been compiled against either generation, and
		// the recorded epochs vouch for neither. Such a binding still
		// executes once (resolution is by name at exec time) but must not
		// enter the cache, where it would cost an invalidation round trip —
		// or worse, if Put-time state were trusted — on every later hit.
		e.cache.Put(string(*key), b, deps)
	}
	return b, nil
}

// depsValid reports whether every recorded dependency still names the same
// table generation.
func (e *Engine) depsValid(deps map[string]uint64) bool {
	for name, epoch := range deps {
		cur, ok := e.cat.TableSchemaEpoch(name)
		if !ok || cur != epoch {
			return false
		}
	}
	return true
}

// StartMaintenance launches the background merger: a goroutine that polls
// every table's live delta size on Options.MergeInterval and compacts
// tables past Options.MergeThreshold, charging the incremental
// re-decomposition traffic to the engine totals. It returns immediately;
// the goroutine exits when ctx is cancelled. Front-ends that serve
// long-lived traffic (arserve, arshell) start it once; \merge remains
// available to force a compaction at any time.
func (e *Engine) StartMaintenance(ctx context.Context) {
	ctx, cancel := context.WithCancel(ctx)
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		cancel()
		return
	}
	e.maintCancels = append(e.maintCancels, cancel)
	e.maintWG.Add(1)
	e.mu.Unlock()
	go func() {
		defer e.maintWG.Done()
		tick := time.NewTicker(e.opts.MergeInterval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				e.mergeDue()
			}
		}
	}()
}

// mergeDue compacts every table whose live delta crossed the threshold. A
// failing merge (device out of memory during the transient double
// allocation, a dimension key broken by deletes) is counted, remembered
// and NOT retried until the table's epoch moves — otherwise the ticker
// would rebuild and discard the whole new segment every interval, growing
// the delta while showing nothing to the operator.
func (e *Engine) mergeDue() {
	if e.opts.MergeThreshold < 0 {
		return
	}
	for _, name := range e.cat.TableNames() {
		t, err := e.cat.Table(name)
		if err != nil {
			continue
		}
		// Merge past the delta threshold, and also whenever live delta rows
		// exist on a table whose recorded decompositions went dormant (an
		// emptying merge dropped them) — the merge re-decomposes and
		// restores A&R routing.
		due := t.DeltaLive() >= e.opts.MergeThreshold ||
			(t.DeltaLive() > 0 && t.PendingDecompose())
		if !due {
			continue
		}
		epoch := t.Epoch()
		e.mu.Lock()
		failedAt, failed := e.mergeFailEpoch[name]
		e.mu.Unlock()
		if failed && failedAt == epoch {
			continue
		}
		m := device.NewMeter(e.cat.System())
		// With durability attached, a due merge is a checkpoint: the merged
		// base is persisted and the covered WAL prefix dropped in the same
		// breath, so the replay tail stays proportional to the delta.
		merge := func() error {
			if e.dur != nil {
				_, err := e.dur.Checkpoint(m, name, true)
				return err
			}
			_, err := e.cat.MergeTable(m, name, true)
			return err
		}
		if err := merge(); err != nil {
			e.mu.Lock()
			if e.mergeFailEpoch == nil {
				e.mergeFailEpoch = make(map[string]uint64)
			}
			e.mergeFailEpoch[name] = epoch
			e.mergeFailures++
			e.lastMergeErr = err.Error()
			e.mu.Unlock()
			continue
		}
		e.mu.Lock()
		delete(e.mergeFailEpoch, name)
		e.mu.Unlock()
		e.sched.Totals.Merge(m)
	}
}

// exec routes one compiled binding through the scheduler on behalf of a
// session, under the session's mode. src is the statement text and params
// the values bound to its placeholders, carried for the slow-query log.
func (e *Engine) exec(ctx context.Context, sess *Session, b *sql.Binding, src string, params []any) (*Result, error) {
	return e.execTraced(ctx, sess, b, src, params, nil)
}

// execTraced is exec with the engine's bookkeeping spelled out: route
// metrics, the session's totals (the scheduler already merged the meter into
// the engine-wide ones) and the slow-query log. A non-nil traced stands in
// for b — the plan \explain analyze has pinned and described, now run with
// tracing forced. Otherwise tracing runs only while the slow-query log is
// armed: it never perturbs results or meters, so arming it is safe on live
// traffic — it only costs the clock reads.
func (e *Engine) execTraced(ctx context.Context, sess *Session, b *sql.Binding, src string, params []any, traced *plan.Pinned) (*Result, error) {
	opts := plan.ExecOpts{Threads: e.opts.Threads, Trace: traced != nil || e.metrics.slow.Enabled()}
	start := time.Now()
	var (
		res   *plan.Result
		route Route
		err   error
	)
	if traced != nil {
		res, route, err = e.sched.ExecPinned(ctx, traced, opts)
	} else {
		res, route, err = e.sched.Exec(ctx, b, opts, sess.Mode())
	}
	wall := time.Since(start)
	e.metrics.note(route, wall, err)
	if err != nil {
		return nil, err
	}
	sess.Totals.Merge(res.Meter)
	if res.Trace != nil { // a traced query: it has a meter
		if len(params) > 0 {
			src = fmt.Sprintf("%s -- %v", src, params)
		}
		res.Trace.Query = src
		e.metrics.noteSlow(obs.SlowEntry{
			Query: src, Route: route.String(), When: res.Trace.Start,
			Wall: wall, Sim: res.Meter.Total(), Trace: res.Trace,
		})
	}
	return &Result{Result: res, Route: route}, nil
}

// Result is the outcome of one engine execution: the plan-level result plus
// the route the scheduler chose.
type Result struct {
	*plan.Result
	Route Route
}

// StatsLines renders the engine's observable state — active sessions, plan
// cache, scheduler, engine-wide totals, and (if sess is non-nil) the
// session's own totals — as the lines both the server's \stats command and
// the shell print. Sharing the renderer keeps the two surfaces identical.
func (e *Engine) StatsLines(sess *Session) []string {
	lines := []string{
		fmt.Sprintf("sessions: %d active", e.SessionCount()),
		e.cache.Stats().String(),
		e.sched.Stats().String(),
		e.cat.StoreStats().String(),
	}
	if e.dur != nil {
		lines = append(lines, e.dur.Stats().String())
	}
	e.mu.Lock()
	if e.mergeFailures > 0 {
		lines = append(lines, fmt.Sprintf("maintenance: %d background merges failed (last: %s)", e.mergeFailures, e.lastMergeErr))
	}
	e.mu.Unlock()
	lines = append(lines, ar.ScanStats().String(), obs.RuntimeMemLine())
	lines = append(lines, "engine totals: "+e.sched.Totals.String())
	if sess != nil {
		lines = append(lines, fmt.Sprintf("session %d totals: %s", sess.ID, sess.Totals.String()))
	}
	return lines
}

// WriteResult writes an execution result to w as display lines: the outcome
// of a write, the plan listing for EXPLAIN, the rows otherwise (appended
// straight into w's buffer), plus the per-query cost report when showCost is
// set. Server and shell both print through this, so they cannot drift.
func WriteResult(w *bufio.Writer, res *Result, showCost bool) {
	if res.Rows == nil {
		for _, l := range res.Plan() {
			w.WriteString(l)
			w.WriteByte('\n')
		}
	}
	for _, r := range res.Rows {
		w.Write(append(r.AppendText(w.AvailableBuffer()), '\n'))
	}
	if showCost && res.Meter != nil {
		fmt.Fprintf(w, "-- %s; simulated %v; candidates %d -> refined %d; approx count %v\n",
			res.Route, res.Meter, res.Candidates, res.Refined, res.Approx.Count)
	}
}

// RenderResult is WriteResult as a list of lines, for the one caller that
// returns lines rather than writing them (the \run meta command).
func RenderResult(res *Result, showCost bool) []string {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	WriteResult(w, res, showCost)
	w.Flush()
	return strings.FieldsFunc(buf.String(), func(r rune) bool { return r == '\n' })
}
