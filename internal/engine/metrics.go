package engine

import (
	"time"

	"repro/internal/ar"
	"repro/internal/durable"
	"repro/internal/obs"
)

// metrics is the engine's instrumentation bundle: real atomic counters and
// histograms on the query path, scrape-time func metrics over the stats
// structs the engine already maintains (scheduler, plan cache, store), a
// per-table collector, and the slow-query log. The registry is exposed on
// cmd/arserve as GET /metrics (Prometheus text) and in every front-end as
// the \metrics meta command.
type metrics struct {
	reg *obs.Registry

	// Per-route attempt counters and wall-latency histograms. These are
	// incremented on the query path itself (one atomic add each), so the
	// totals are exact under concurrency — the property the registry
	// stress test asserts.
	queries    [3]*obs.Counter
	latency    [3]*obs.Histogram
	errors     *obs.Counter
	queueWait  *obs.Histogram
	streamHold *obs.Histogram

	slow         *obs.SlowLog
	slowRetained *obs.Counter
}

var routeLabels = [3]string{RouteAR: `route="ar"`, RouteClassic: `route="classic"`, RouteDDL: `route="ddl"`}

// newMetrics builds the registry over an engine's subsystems.
func newMetrics(e *Engine) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg:    reg,
		errors: reg.Counter("ar_query_errors_total", "", "Statements that returned an error (including rejections and cancellations)."),
		queueWait: reg.Histogram("ar_sched_queue_wait_seconds", "",
			"Wall-clock time A&R queries spent waiting for a GPU stream slot.", nil),
		streamHold: reg.Histogram("ar_sched_stream_hold_seconds", "",
			"Wall-clock time A&R queries held their GPU stream slot: acquisition to the hand-over at ship (or to failure).", nil),
		slow:         obs.NewSlowLog(obs.SlowLogSize),
		slowRetained: reg.Counter("ar_slow_queries_total", "", "Queries retained by the slow-query log."),
	}
	for r, labels := range routeLabels {
		m.queries[r] = reg.Counter("ar_queries_total", labels, "Statements executed, by scheduler route.")
		m.latency[r] = reg.Histogram("ar_query_latency_seconds", labels,
			"Wall-clock statement latency (including scheduler waits), by route.", nil)
	}

	// Scrape-time metrics over the mutex-guarded stats the subsystems
	// already keep: reading them only costs anything when someone scrapes.
	obs.RegisterRuntime(reg)
	reg.GaugeFunc("ar_sessions_active", "", "Open engine sessions.", func() float64 {
		return float64(e.SessionCount())
	})
	sched := func(f func(SchedStats) float64) func() float64 {
		return func() float64 { return f(e.sched.Stats()) }
	}
	reg.CounterFunc("ar_sched_rejected_total", "", "A&R queries rejected by admission control.",
		sched(func(s SchedStats) float64 { return float64(s.RejectedAR) }))
	reg.CounterFunc("ar_sched_cancelled_total", "", "Queries cancelled while waiting or executing.",
		sched(func(s SchedStats) float64 { return float64(s.Cancelled) }))
	reg.GaugeFunc("ar_sched_queue_depth", "", "A&R queries currently waiting for a GPU stream.",
		sched(func(s SchedStats) float64 { return float64(s.WaitingAR) }))
	reg.GaugeFunc("ar_sched_queue_high_water", "", "Highest A&R queue depth observed.",
		sched(func(s SchedStats) float64 { return float64(s.PeakWaitingAR) }))
	reg.GaugeFunc("ar_sched_active", `route="classic"`, "Streams currently executing, by route.",
		sched(func(s SchedStats) float64 { return float64(s.ActiveClassic) }))
	reg.GaugeFunc("ar_sched_active", `route="ar"`, "Streams currently executing, by route.",
		sched(func(s SchedStats) float64 { return float64(s.ActiveAR) }))
	reg.GaugeFunc("ar_sched_active_ar", `phase="approximating"`, "A&R statements currently executing, by what they hold: a GPU stream (approximating) or a CPU slot (refining).",
		sched(func(s SchedStats) float64 { return float64(s.ApproximatingAR) }))
	reg.GaugeFunc("ar_sched_active_ar", `phase="refining"`, "A&R statements currently executing, by what they hold: a GPU stream (approximating) or a CPU slot (refining).",
		sched(func(s SchedStats) float64 { return float64(s.RefiningAR) }))
	reg.CounterFunc("ar_partition_scans_total", "", "A&R partition scans admitted onto per-partition device streams by scatter-gather executions.",
		sched(func(s SchedStats) float64 { return float64(s.PartitionScans) }))
	reg.CounterFunc("ar_mode_picks_total", `mode="ar"`, "Auto-mode queries the cost model routed to the A&R executor.",
		sched(func(s SchedStats) float64 { return float64(s.ModePickAR) }))
	reg.CounterFunc("ar_mode_picks_total", `mode="classic"`, "Auto-mode queries the cost model routed to the classic executor.",
		sched(func(s SchedStats) float64 { return float64(s.ModePickClassic) }))
	reg.CounterFunc("ar_partition_pruned_total", "", "Range partitions skipped before scattering because the filters excluded their value slabs.",
		func() float64 { return float64(e.cat.PlannerStats().PartitionsPruned) })
	reg.CounterFunc("ar_plan_replans_total", "", "Executions of a cached plan that priced it again because a table it reads had changed.",
		func() float64 { return float64(e.cat.PlannerStats().Replans) })

	for outcome, get := range map[string]func(ar.GranuleStats) uint64{
		"skipped": func(s ar.GranuleStats) uint64 { return s.Skipped },
		"inside":  func(s ar.GranuleStats) uint64 { return s.Inside },
		"decoded": func(s ar.GranuleStats) uint64 { return s.Decoded },
	} {
		reg.CounterFunc("ar_scan_granules_total", `outcome="`+outcome+`"`,
			"64-row granules visited by approximate scans: skipped from their code bounds, accepted whole from them, or decoded.",
			func() float64 { return float64(get(ar.ScanStats())) })
	}

	cache := func(f func(CacheStats) float64) func() float64 {
		return func() float64 { return f(e.cache.Stats()) }
	}
	reg.CounterFunc("ar_plan_cache_hits_total", "", "Plan cache hits.",
		cache(func(s CacheStats) float64 { return float64(s.Hits) }))
	reg.CounterFunc("ar_plan_cache_misses_total", "", "Plan cache misses (including invalidations).",
		cache(func(s CacheStats) float64 { return float64(s.Misses) }))
	reg.CounterFunc("ar_plan_cache_evictions_total", "", "Plan cache LRU evictions.",
		cache(func(s CacheStats) float64 { return float64(s.Evictions) }))
	reg.CounterFunc("ar_plan_cache_invalidations_total", "", "Plan cache entries dropped on schema-epoch mismatch.",
		cache(func(s CacheStats) float64 { return float64(s.Invalidations) }))
	reg.GaugeFunc("ar_plan_cache_entries", "", "Live plan cache entries.",
		cache(func(s CacheStats) float64 { return float64(s.Len) }))

	reg.CounterFunc("ar_store_merges_total", "", "Delta-into-base merges (manual and automatic).",
		func() float64 { return float64(e.cat.StoreStats().Merges) })
	reg.CounterFunc("ar_store_merge_shipped_bytes_total", "", "Bytes shipped to the device by incremental merges.",
		func() float64 { return float64(e.cat.StoreStats().MergeShippedBytes) })
	reg.GaugeFunc("ar_store_segments", "", "Live store segments across all tables.",
		func() float64 { return float64(e.cat.StoreStats().Segments) })
	reg.CounterFunc("ar_maintenance_merge_failures_total", "", "Background merges that failed.",
		func() float64 {
			e.mu.Lock()
			defer e.mu.Unlock()
			return float64(e.mergeFailures)
		})

	for dev, get := range map[string]func() time.Duration{
		"gpu": func() time.Duration { g, _, _, _ := e.sched.Totals.Totals(); return g },
		"cpu": func() time.Duration { _, c, _, _ := e.sched.Totals.Totals(); return c },
		"pci": func() time.Duration { _, _, p, _ := e.sched.Totals.Totals(); return p },
	} {
		get := get
		reg.CounterFunc("ar_sim_device_seconds_total", `device="`+dev+`"`,
			"Simulated engine-wide busy time, by device.",
			func() float64 { return get().Seconds() })
	}

	// Per-table depth gauges are dynamic series: tables appear and
	// disappear at runtime, so they are emitted by a collector at scrape
	// time instead of being registered up front.
	reg.Collector(func(emit obs.Emit) {
		for _, name := range e.cat.TableNames() {
			t, err := e.cat.Table(name)
			if err != nil {
				continue
			}
			snap := t.Snapshot()
			labels := `table="` + name + `"`
			emit("ar_table_delta_rows", labels, "Live delta rows awaiting merge, per table.", "gauge", float64(snap.LiveDelta()))
			emit("ar_table_base_rows", labels, "Base segment rows, per table.", "gauge", float64(snap.BaseLen()))
			emit("ar_table_deleted_rows", labels, "Deleted rows not yet compacted, per table.", "gauge", float64(snap.DeletedCount()))
		}
	})
	return m
}

// attachDurability registers the durability metric family over an attached
// durable store. The fsync latency histogram (ar_wal_fsync_seconds) is not
// here: it must exist before durable.Open so recovery-time fsyncs are
// observed, so engine.Open creates it and passes its Observe as the
// observer.
func (m *metrics) attachDurability(d *durable.Store) {
	stat := func(f func(durable.Stats) float64) func() float64 {
		return func() float64 { return f(d.Stats()) }
	}
	m.reg.CounterFunc("ar_wal_appends_total", "", "Records appended to the write-ahead log.",
		stat(func(s durable.Stats) float64 { return float64(s.Appends) }))
	m.reg.CounterFunc("ar_wal_fsyncs_total", "", "WAL fsyncs issued (one may commit a whole append group).",
		stat(func(s durable.Stats) float64 { return float64(s.Fsyncs) }))
	m.reg.CounterFunc("ar_checkpoint_total", "", "Checkpoints taken (merged base persisted, WAL prefix dropped).",
		stat(func(s durable.Stats) float64 { return float64(s.Checkpoints) }))
	m.reg.GaugeFunc("ar_wal_size_bytes", "", "Current WAL file size.",
		stat(func(s durable.Stats) float64 { return float64(s.WALBytes) }))
	m.reg.GaugeFunc("ar_checkpoint_last_lsn", "", "Highest checkpoint LSN across tables.",
		stat(func(s durable.Stats) float64 { return float64(s.LastCheckpointLSN) }))
	m.reg.GaugeFunc("ar_segment_bytes", "", "Total segment file footprint on disk.",
		stat(func(s durable.Stats) float64 { return float64(s.SegmentBytes) }))
	m.reg.CounterFunc("ar_recovery_replayed_records", "", "WAL records replayed into the catalog by the last recovery.",
		func() float64 { return float64(d.Recovery().Replayed) })
	m.reg.CounterFunc("ar_recovery_truncated_bytes", "", "Torn WAL tail bytes discarded by the last recovery.",
		func() float64 { return float64(d.Recovery().TruncatedBytes) })
}

// note records one finished (or failed) statement on the query path.
func (m *metrics) note(route Route, wall time.Duration, err error) {
	if int(route) < len(m.queries) {
		m.queries[route].Inc()
		m.latency[route].Observe(wall)
	}
	if err != nil {
		m.errors.Inc()
	}
}

// noteSlow offers a traced execution to the slow-query log.
func (m *metrics) noteSlow(e obs.SlowEntry) {
	if m.slow.Note(e) {
		m.slowRetained.Inc()
	}
}
