package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/plan"
	"repro/internal/sql"
)

// Route records which execution path the scheduler chose for a statement.
type Route int

// Routes.
const (
	RouteAR      Route = iota // A&R plan on the GPU stream
	RouteClassic              // classic bulk plan on the CPU worker pool
	RouteDDL                  // bwdecompose, executed inline under catalog locks
)

func (r Route) String() string {
	switch r {
	case RouteAR:
		return "ar"
	case RouteClassic:
		return "classic"
	case RouteDDL:
		return "ddl"
	default:
		return fmt.Sprintf("Route(%d)", int(r))
	}
}

// Mode is a session's executor preference: plan.Mode under the engine's
// name, with its values.
type Mode = plan.Mode

const (
	ModeAuto    = plan.ModeAuto    // cost-based per-query choice from statistics
	ModeAR      = plan.ModeAR      // force the A&R executor (errors if not decomposed)
	ModeClassic = plan.ModeClassic // force the classic executor
)

// ParseMode parses a mode from its text form.
func ParseMode(name string) (Mode, error) {
	for m := ModeAuto; m <= ModeClassic; m++ {
		if m.String() == name {
			return m, nil
		}
	}
	return ModeAuto, fmt.Errorf("engine: unknown mode %q (auto, ar, classic)", name)
}

// Scheduler is the device-aware admission layer between sessions and the
// catalog. It reproduces the paper's §VI-E concurrency setup (Fig 11, "A
// Gap in the Memory Wall") as serving policy:
//
//   - Classic plans go to a bounded CPU worker pool. Each running stream is
//     charged the memory-wall contention of its neighbours: with t classic
//     streams active and g A&R streams drawing host bandwidth, a stream's
//     simulated CPU time stretches by ClassicStretch.
//   - A&R plans go to a GPU stream (usually one — the simulated device
//     executes one kernel sequence at a time) guarded by admission control:
//     at most ARQueue queries may wait; beyond that Exec fails fast with a
//     typed *OverloadedError instead of building an unbounded backlog. The
//     A&R stream itself is not stretched — it works out of GPU memory,
//     which is exactly the gap in the memory wall the paper measures. A
//     statement holds the stream for its approximation subplan only (§III
//     item 4: that runs on the device first, refinement then runs on the
//     CPU): at its ship it takes a CPU slot for the refinement and the tail
//     and only then lets the stream go (arHold), so the next statement's
//     scan overlaps this one's refinement, A&R statements in flight stay
//     bounded by streams + CPU slots, and a saturated host back-pressures
//     the device.
//   - Real workers: a statement's phase A — the approximate scan, the
//     pre-grouping and the phase-A fold — runs on every host core while it
//     holds its stream, because the stream is exclusive and so is the
//     simulated device; its refinement and tail (and a classic plan) run on
//     the statement's worker grant (workerBudgetLocked), a share of the pool
//     capped at the host's cores. Neither moves the meter.
//   - bwdecompose statements execute inline; the catalog's own locks make
//     the decomposition swap safe against in-flight queries.
//
// Every path honors the query context: a query waiting for a CPU or GPU
// slot abandons the wait when ctx is cancelled, and a running query stops
// at its executor's next stage checkpoint — in both cases the slot is
// released (or never taken), so cancellation can never leak pool capacity.
type Scheduler struct {
	cat      *plan.Catalog
	cpuSlots chan struct{}
	gpuSlots chan struct{}
	arQueue  int
	cpuCap   int // CPU pool size: slots for classic streams, workers for morsels

	// Totals aggregates the (contention-adjusted) meters of every query
	// the scheduler ran. SharedMeter carries its own mutex, so the Merge
	// calls in execAR/execClassic/execDDL are safe without holding s.mu —
	// taking s.mu around them would only serialize finished queries behind
	// each other (verified by TestParallelSchedulerTotalsStress under
	// -race).
	Totals device.SharedMeter

	// onQueueWait, if set (by the engine's metrics), observes how long each
	// admitted A&R query waited for its GPU stream slot, and onStreamHold how
	// long it then held it (acquisition to hand-over at ship, or to failure).
	onQueueWait  func(time.Duration)
	onStreamHold func(time.Duration)

	mu            sync.Mutex
	activeClassic int
	approxAR      int // A&R statements holding a GPU stream (phase A)
	refineAR      int // A&R statements past their ship, on a CPU slot
	waitingAR     int
	allocWorkers  int // morsel workers currently granted out of cpuCap
	peakClassic   int
	peakAR        int
	peakWaitingAR int
	classicRun    int64
	arRun         int64
	ddlRun        int64
	rejectedAR    int64
	cancelled     int64
	drawSum       float64 // sum of HostDraw over finished A&R queries
	drawN         int64

	// modePickAR/modePickClassic count auto-mode cost decisions, so
	// mispricings are visible next to the forced-mode run counters.
	modePickAR      int64
	modePickClassic int64

	// devStreams is the per-device ledger behind arHold's plan.DeviceGate:
	// one admission slot per simulated partition device, created lazily on
	// first use. partitionScans counts successful acquisitions — the A&R
	// partition scans that actually ran on a partition's device stream.
	devStreams     map[int]chan struct{}
	partitionScans int64
}

// SchedConfig sizes the scheduler.
type SchedConfig struct {
	// CPUWorkers bounds the classic worker pool. Defaults to the simulated
	// CPU's hardware thread count.
	CPUWorkers int
	// GPUStreams bounds concurrently executing A&R plans. Defaults to 1:
	// the paper's single GPU query stream.
	GPUStreams int
	// ARQueue bounds A&R queries waiting for a stream before admission
	// control rejects with *OverloadedError. Defaults to 2×GPUStreams.
	ARQueue int
}

func (c SchedConfig) withDefaults(sys *device.System) SchedConfig {
	if c.CPUWorkers <= 0 {
		c.CPUWorkers = sys.CPU.Threads
	}
	if c.GPUStreams <= 0 {
		c.GPUStreams = 1
	}
	if c.ARQueue <= 0 {
		c.ARQueue = 2 * c.GPUStreams
	}
	return c
}

// NewScheduler returns a scheduler over the catalog's simulated system.
func NewScheduler(cat *plan.Catalog, cfg SchedConfig) *Scheduler {
	cfg = cfg.withDefaults(cat.System())
	return &Scheduler{
		cat:      cat,
		cpuSlots: make(chan struct{}, cfg.CPUWorkers),
		gpuSlots: make(chan struct{}, cfg.GPUStreams),
		arQueue:  cfg.ARQueue,
		cpuCap:   cfg.CPUWorkers,
	}
}

// workerBudgetLocked allocates (and reserves) the real morsel-worker
// budget for one admitted query: its fair share of the CPU pool given
// every query currently active (classic streams plus A&R refinements),
// capped at the query's requested thread count, at the pool capacity
// still unreserved — so staggered arrivals cannot oversubscribe the pool
// (an early lone query that grabbed everything forces later arrivals down
// to the 1-worker minimum until it finishes) — and at the host's cores
// (GOMAXPROCS): the pool is sized by the simulated CPU, and goroutines past
// the cores only take turns on them. The simulated meter is unaffected — it
// always bills opts.Threads (see plan.ExecOpts). Callers must hold s.mu,
// have already counted themselves active, and release the returned grant
// via releaseWorkersLocked when done.
func (s *Scheduler) workerBudgetLocked(requested int) int {
	if requested <= 0 {
		requested = 1
	}
	active := s.activeClassic + s.approxAR + s.refineAR
	if active < 1 {
		active = 1
	}
	share := min(s.cpuCap/active, runtime.GOMAXPROCS(0))
	if remaining := s.cpuCap - s.allocWorkers; share > remaining {
		share = remaining
	}
	if share < 1 {
		share = 1
	}
	if share < requested {
		requested = share
	}
	s.allocWorkers += requested
	return requested
}

// releaseWorkersLocked returns a finished query's worker grant to the
// pool. Callers must hold s.mu; granted is 0 when the caller brought its
// own explicit Workers budget.
func (s *Scheduler) releaseWorkersLocked(granted int) {
	s.allocWorkers -= granted
}

// Exec routes one compiled binding to its device and executes it under
// ctx. The returned result's meter already includes the memory-wall
// contention charge for classic plans. A cancelled ctx surfaces as
// ctx.Err(), whether the query was still waiting for a slot or already
// mid-execution.
func (s *Scheduler) Exec(ctx context.Context, b *sql.Binding, opts plan.ExecOpts, mode Mode) (*plan.Result, Route, error) {
	if err := ctx.Err(); err != nil {
		s.noteCancelled()
		return nil, RouteClassic, err
	}
	if b.IsWrite() {
		// bwdecompose and DML (INSERT/DELETE/CREATE TABLE) execute inline:
		// the store's snapshot publication makes the swap safe against
		// in-flight queries, and write latency is dominated by the store
		// itself, not device contention.
		return s.execDDL(ctx, b, opts)
	}
	// The binding keeps its plan; pinning it validates as it builds the
	// decomposition snapshot, so a forced A&R statement over an undecomposed
	// column fails here, precisely, before it is routed anywhere.
	pl, err := b.Plan(s.cat, mode)
	var x *plan.Pinned
	if err == nil {
		x, err = s.cat.Pin(pl)
	}
	if err != nil {
		if mode == ModeAR {
			return nil, RouteAR, err
		}
		return nil, RouteClassic, err
	}
	res, route, err := s.ExecPinned(ctx, x, opts)
	switch {
	case mode == ModeAuto && errors.Is(err, ErrOverloaded):
		// Auto mode degrades gracefully: an overloaded GPU stream spills
		// the query to the CPU pool instead of failing the client.
		return s.Exec(ctx, b, opts, ModeClassic)
	case err == nil && b.Explain:
		res = res.PlanOnly()
	}
	return res, route, err
}

// ExecPinned routes one pinned plan to its device and runs it: forced modes
// to their executor; under auto the pinned (just re-priced, if the data
// moved) cost choice decides, and scatter legs follow their own.
func (s *Scheduler) ExecPinned(ctx context.Context, x *plan.Pinned, opts plan.ExecOpts) (*plan.Result, Route, error) {
	classic := x.Choice().Classic
	if x.Mode() == ModeAuto {
		s.notePick(classic)
	}
	if classic {
		return s.execClassic(ctx, x, opts)
	}
	return s.execAR(ctx, x, opts)
}

// notePick counts one auto-mode cost decision for the metrics registry.
func (s *Scheduler) notePick(classic bool) {
	s.mu.Lock()
	if classic {
		s.modePickClassic++
	} else {
		s.modePickAR++
	}
	s.mu.Unlock()
}

func (s *Scheduler) execDDL(ctx context.Context, b *sql.Binding, opts plan.ExecOpts) (*plan.Result, Route, error) {
	res, err := sql.Exec(ctx, s.cat, b, opts, false)
	if err != nil {
		s.noteCtxErr(err)
		return nil, RouteDDL, err
	}
	s.mu.Lock()
	s.ddlRun++
	s.mu.Unlock()
	s.Totals.Merge(res.Meter)
	return res, RouteDDL, nil
}

func (s *Scheduler) execClassic(ctx context.Context, x *plan.Pinned, opts plan.ExecOpts) (*plan.Result, Route, error) {
	select {
	case s.cpuSlots <- struct{}{}:
	case <-ctx.Done():
		s.noteCancelled()
		return nil, RouteClassic, ctx.Err()
	}
	defer func() { <-s.cpuSlots }()

	s.mu.Lock()
	s.activeClassic++
	if s.activeClassic > s.peakClassic {
		s.peakClassic = s.activeClassic
	}
	t := s.activeClassic
	// A statement in either phase counts as drawing HostDraw: the average
	// is per statement, over its whole run.
	arDraw := float64(s.approxAR+s.refineAR) * s.avgDrawLocked()
	granted := 0
	if opts.Workers <= 0 {
		opts.Workers = s.workerBudgetLocked(opts.Threads)
		granted = opts.Workers
	}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.activeClassic--
		s.classicRun++
		s.releaseWorkersLocked(granted)
		s.mu.Unlock()
	}()

	res, err := s.cat.Run(ctx, x, opts)
	if err != nil {
		s.noteCtxErr(err)
		return nil, RouteClassic, err
	}
	if res.Meter != nil {
		stretch := ClassicStretchThreads(s.cat.System(), t, opts.Threads, arDraw)
		res.Meter.CPU = time.Duration(float64(res.Meter.CPU) * stretch)
	}
	s.Totals.Merge(res.Meter)
	return res, RouteClassic, nil
}

func (s *Scheduler) execAR(ctx context.Context, x *plan.Pinned, opts plan.ExecOpts) (*plan.Result, Route, error) {
	// Admission control: bound the wait queue, fail fast beyond it.
	s.mu.Lock()
	if s.waitingAR >= s.arQueue {
		s.rejectedAR++
		waiting := s.waitingAR
		s.mu.Unlock()
		return nil, RouteAR, &OverloadedError{Waiting: waiting, Queue: s.arQueue}
	}
	s.waitingAR++
	if s.waitingAR > s.peakWaitingAR {
		s.peakWaitingAR = s.waitingAR
	}
	s.mu.Unlock()

	waitStart := time.Now()
	if err := acquireDevice(ctx, s.gpuSlots); err != nil {
		// Vacate the admission queue: the cancelled query must not hold a
		// waiting slot against later arrivals.
		s.mu.Lock()
		s.waitingAR--
		s.cancelled++
		s.mu.Unlock()
		return nil, RouteAR, err
	}
	h := &arHold{s: s, since: time.Now()}
	h.pending.Store(int32(x.ARLegs()))
	if s.onQueueWait != nil {
		s.onQueueWait(h.since.Sub(waitStart))
	}
	s.mu.Lock()
	s.waitingAR--
	s.approxAR++
	if active := s.approxAR + s.refineAR; active > s.peakAR {
		s.peakAR = active
	}
	if opts.Workers <= 0 {
		// The refinement subplan runs on the CPU pool like classic streams.
		opts.Workers = s.workerBudgetLocked(opts.Threads)
		h.granted = opts.Workers
	}
	s.mu.Unlock()
	defer h.finish()

	opts.Gate = h
	res, err := s.cat.Run(ctx, x, opts)
	if err != nil {
		s.noteCtxErr(err)
		return nil, RouteAR, err
	}
	if res.Meter != nil {
		s.mu.Lock()
		s.drawSum += HostDraw(s.cat.System(), res.Meter)
		s.drawN++
		s.mu.Unlock()
	}
	s.Totals.Merge(res.Meter)
	return res, RouteAR, nil
}

// acquireDevice takes one slot of a device ledger channel — a statement
// stream or a partition's — or gives up with ctx. It and releaseDevice are
// the only places a device slot changes hands.
func acquireDevice(ctx context.Context, ch chan struct{}) error {
	select {
	case ch <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func releaseDevice(ch chan struct{}) { <-ch }

// arHold is what one A&R statement holds of the scheduler while it runs,
// and the plan.DeviceGate its legs are admitted through. execAR admitted the
// statement onto a statement stream; it keeps that until the last of its
// A&R legs has shipped (a classic statement has none: a leg scans A&R only
// under an A&R statement), then trades it for a CPU slot, which finish
// gives back.
type arHold struct {
	s       *Scheduler
	pending atomic.Int32 // A&R legs that have not shipped
	since   time.Time    // when the statement stream was acquired
	granted int          // morsel workers reserved for the statement
	// refining is set by the one leg that performs the hand-over and read by
	// finish, after Run has joined every leg.
	refining bool
}

// AcquireStream implements plan.DeviceGate: it blocks until the partition's
// device stream is free (each simulated device executes one kernel sequence
// at a time, exactly like the single-GPU stream of Fig 11) or ctx is done.
// Scans of distinct partitions overlap freely — the way past one device's
// memory wall is N partitions with N independent streams. A plain table's
// leg (part < 0) scans on the statement's own stream.
func (h *arHold) AcquireStream(ctx context.Context, part int) error {
	if part < 0 {
		return nil
	}
	s := h.s
	if err := acquireDevice(ctx, s.streamFor(part)); err != nil {
		return err
	}
	s.mu.Lock()
	s.partitionScans++
	s.mu.Unlock()
	return nil
}

// ReleaseStream implements plan.DeviceGate: the leg's partition stream is
// free at once. When the leg shipped and was the statement's last on the
// device, the statement moves to the CPU pool: it waits for a CPU slot while
// still holding its statement stream — that wait is the back-pressure that
// bounds A&R statements in flight by streams + CPU slots, and it cannot
// deadlock, because nothing that holds a CPU slot ever waits for a
// statement stream — and then lets the stream go.
func (h *arHold) ReleaseStream(ctx context.Context, part int, shipped bool) error {
	s := h.s
	if part >= 0 {
		releaseDevice(s.streamFor(part))
	}
	if !shipped || h.pending.Add(-1) != 0 {
		return nil
	}
	select {
	case s.cpuSlots <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err() // finish gives the stream back
	}
	h.refining = true
	s.mu.Lock()
	s.approxAR--
	s.refineAR++
	s.mu.Unlock()
	h.releaseStatementStream()
	return nil
}

func (h *arHold) releaseStatementStream() {
	if h.s.onStreamHold != nil {
		h.s.onStreamHold(time.Since(h.since))
	}
	releaseDevice(h.s.gpuSlots)
}

// finish ends an A&R statement on every path out of execAR: it gives back
// whichever of the two slots the statement holds by now, exactly once.
func (h *arHold) finish() {
	s := h.s
	s.mu.Lock()
	if h.refining {
		s.refineAR--
	} else {
		s.approxAR--
	}
	s.arRun++
	s.releaseWorkersLocked(h.granted)
	s.mu.Unlock()
	if h.refining {
		<-s.cpuSlots
	} else {
		h.releaseStatementStream()
	}
}

// streamFor returns the admission slot of one simulated partition device,
// creating it on first use.
func (s *Scheduler) streamFor(device int) chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.devStreams == nil {
		s.devStreams = make(map[int]chan struct{})
	}
	ch, ok := s.devStreams[device]
	if !ok {
		ch = make(chan struct{}, 1)
		s.devStreams[device] = ch
	}
	return ch
}

func (s *Scheduler) noteCancelled() {
	s.mu.Lock()
	s.cancelled++
	s.mu.Unlock()
}

// noteCtxErr counts an executor failure as a cancellation when it is the
// context's own error (cooperative checkpoint abort).
func (s *Scheduler) noteCtxErr(err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		s.noteCancelled()
	}
}

func (s *Scheduler) avgDrawLocked() float64 {
	if s.drawN == 0 {
		// Warm-up seed: no A&R query has completed yet, but active A&R
		// streams still draw host bandwidth. Assume one per-thread share
		// (refinement) plus half the bus (DMA) — the upper end of what one
		// stream sustains, so warm-up over-charges contention slightly
		// rather than omitting it; the estimate converges to the measured
		// average after the first completion.
		sys := s.cat.System()
		return sys.CPU.PerThreadBW + 0.5*sys.Bus.BW
	}
	return s.drawSum / float64(s.drawN)
}

// SchedStats is a point-in-time snapshot of scheduler counters.
type SchedStats struct {
	ClassicRun, ARRun, DDLRun, RejectedAR int64
	Cancelled                             int64
	ActiveClassic, ActiveAR, WaitingAR    int
	// ApproximatingAR and RefiningAR split ActiveAR by what a statement
	// holds: a GPU stream (its approximation subplan, up to the ship) or a
	// CPU slot (refinement and tail). PeakAR is the most ever in both.
	ApproximatingAR, RefiningAR int
	PeakClassic, PeakAR         int
	// PeakWaitingAR is the admission queue's high-water mark: the largest
	// number of A&R queries ever waiting for a stream at once.
	PeakWaitingAR int
	AvgARHostDraw float64 // bytes/s one A&R stream draws from host memory
	// PartitionScans counts A&R partition scans admitted onto per-partition
	// device streams by scatter-gather executions.
	PartitionScans int64
	// ModePickAR/ModePickClassic count auto-mode cost-model decisions.
	ModePickAR, ModePickClassic int64
}

// Stats returns the current counters.
func (s *Scheduler) Stats() SchedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SchedStats{
		ClassicRun: s.classicRun, ARRun: s.arRun, DDLRun: s.ddlRun, RejectedAR: s.rejectedAR,
		Cancelled:     s.cancelled,
		ActiveClassic: s.activeClassic, ActiveAR: s.approxAR + s.refineAR, WaitingAR: s.waitingAR,
		ApproximatingAR: s.approxAR, RefiningAR: s.refineAR,
		PeakClassic: s.peakClassic, PeakAR: s.peakAR, PeakWaitingAR: s.peakWaitingAR,
		AvgARHostDraw:  s.avgDrawLocked(),
		PartitionScans: s.partitionScans,
		ModePickAR:     s.modePickAR, ModePickClassic: s.modePickClassic,
	}
}

// String renders the stable one-line \stats format (documented in the
// README): every field is `name value`, comma-separated, so operators and
// scripts can parse it without caring about future additions, which only
// ever append new `name value` pairs.
func (st SchedStats) String() string {
	return fmt.Sprintf("scheduler: classic %d run (peak %d concurrent), ar %d run (peak %d concurrent), ddl %d, rejected %d, cancelled %d, queue depth %d (high-water %d), partition scans %d, cost picks ar %d, cost picks classic %d, ar approximating %d, ar refining %d",
		st.ClassicRun, st.PeakClassic, st.ARRun, st.PeakAR, st.DDLRun, st.RejectedAR, st.Cancelled, st.WaitingAR, st.PeakWaitingAR, st.PartitionScans, st.ModePickAR, st.ModePickClassic, st.ApproximatingAR, st.RefiningAR)
}

// ClassicStretch returns the factor by which one single-threaded classic
// stream's CPU time stretches when t such streams share the memory wall
// with arHostDraw bytes/s of A&R host traffic (§VI-E). With one stream and
// no A&R draw the factor is 1; past the wall it grows as
// t·perThread/(aggregate−draw). The available bandwidth never drops below
// one per-thread share, so a lone stream always makes progress.
func ClassicStretch(sys *device.System, t int, arHostDraw float64) float64 {
	return ClassicStretchThreads(sys, t, 1, arHostDraw)
}

// ClassicStretchThreads generalizes ClassicStretch to streams running w
// threads each: a stream alone sees min(w·perThread, aggregate) (the
// bandwidth its own meter already charged), while t such streams sharing
// the wall each get a 1/t share of what the A&R draw leaves. The stretch
// is the ratio, so concurrent multi-threaded streams can never collectively
// exceed the aggregate bandwidth.
func ClassicStretchThreads(sys *device.System, t, w int, arHostDraw float64) float64 {
	if t < 1 {
		t = 1
	}
	alone := sys.CPU.EffectiveBW(w)
	avail := sys.CPU.AggregateBW - arHostDraw
	if avail < sys.CPU.PerThreadBW {
		avail = sys.CPU.PerThreadBW
	}
	shared := avail / float64(t)
	if shared > alone {
		shared = alone
	}
	return alone / shared
}

// HostDraw returns the host-memory bandwidth (bytes/s) one saturated A&R
// stream with the given per-query meter draws from the CPU's memory system:
// its refinement phase consumes a per-thread share for the CPU fraction of
// the query, and DMA reads/writes host memory during the PCI fraction.
func HostDraw(sys *device.System, m *device.Meter) float64 {
	total := m.Total().Seconds()
	if total <= 0 {
		return 0
	}
	cpuFrac := m.CPU.Seconds() / total
	pciFrac := m.PCI.Seconds() / total
	return cpuFrac*sys.CPU.PerThreadBW + pciFrac*sys.Bus.BW
}
