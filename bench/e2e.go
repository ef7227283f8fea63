package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// runConfig is what one invocation asks of the end-to-end driver.
type runConfig struct {
	seconds float64 // length of the measured phase
	setups  int     // how often set-up is repeated (setup_s is the median)
	trace   bool    // also scrape counters and run the maintenance probe
	outDir  string  // bench/out: the data directory lives under it
	checks  int     // statements replayed under \mode classic (read-only workloads)
}

// windows is how many equal slices the measured phase is cut into. Rate,
// latency percentiles and CPU per statement are taken per slice and the run
// reports the median slice, so a neighbour that slows this host for a
// second or two does not move the result.
const windows = 5

// e2eRun is what the end-to-end driver measured.
type e2eRun struct {
	attempted, failed int
	failures          []string // the first few, for the log
	samples           int      // latencies behind the percentiles
	values            map[string]float64
}

func (r *e2eRun) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// connTrace is one connection's sequence and what it recorded while
// measured: statement i took lat[i] (0: the reply was an error), was
// answered done[i] after the start, with a payload hashing to hash[i].
type connTrace struct {
	next  func() stmt
	stmts []stmt
	lat   []time.Duration
	done  []time.Duration
	hash  []uint64
	err   error // the connection itself broke
}

// tally is the generator's own account of the events table.
type tally struct{ rows, sumV int64 }

func (t *tally) ack(s stmt) { t.rows += s.rows; t.sumV += s.sumV }

func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// rig is a started server with the control connection and the measuring
// connections open on it.
type rig struct {
	srv     *target
	ctl     *client
	clients []*client
}

func (r *rig) close() {
	for _, c := range r.clients {
		c.close()
	}
	if r.ctl != nil {
		r.ctl.close()
	}
	r.srv.kill()
}

// runE2E sets the server up (cfg.setups times, keeping the last), warms it,
// drives it for cfg.seconds from conns closed-loop connections, then checks
// the answers. Nothing is attached while latency is measured: the counters
// are scraped before and after the measured phase, never during it.
func runE2E(w *workload, launch launcher, cfg runConfig) (*e2eRun, error) {
	run := &e2eRun{values: map[string]float64{}}
	v := run.values

	// The whole statement sequence exists before any clock starts: half as
	// many again as this host is expected to get through. A connection that
	// still runs out generates more between two statements.
	perConn := w.warmup + int(float64(w.rate)*cfg.seconds*1.5)/conns
	traces := make([]*connTrace, conns)
	for c := range traces {
		traces[c] = &connTrace{next: w.sequence(c), stmts: make([]stmt, perConn)}
		for i := range traces[c].stmts {
			traces[c].stmts[i] = traces[c].next()
		}
	}
	flags := w.flags
	if w.durable {
		flags = append(slices.Clone(flags), "-data", filepath.Join(cfg.outDir, "data-"+w.name))
	}

	probe := startProbe()
	defer probe.close()
	var (
		r                 *rig
		acked             tally
		setupS, setupRawS []float64
	)
	for s := 0; s < cfg.setups; s++ {
		if r != nil {
			r.close()
		}
		var err error
		if r, acked, err = setUp(w, launch, flags, traces, v); err != nil {
			return nil, err
		}
		defer r.close() // killing a dead server again is harmless
		raw := time.Since(r.srv.started).Seconds()
		setupRawS = append(setupRawS, raw)
		setupS = append(setupS, raw*probe.scale(r.srv.started, time.Now()))
	}
	v["setup_s"] = median(setupS)
	v["raw.setup_s"] = median(setupRawS)
	for _, tr := range traces {
		tr.stmts = tr.stmts[w.warmup:]
	}

	before, err := scrape(r.ctl)
	if err != nil {
		return nil, err
	}
	start, cpuAt, err := measure(r, traces, cfg.seconds)
	if err != nil {
		return nil, err
	}
	// How fast the host ran during each window, and over all of them.
	edge := func(k int) time.Time {
		return start.Add(time.Duration(cfg.seconds * float64(time.Second) * float64(k) / windows))
	}
	scales := make([]float64, windows)
	for k := range scales {
		scales[k] = probe.scale(edge(k), edge(k+1))
	}
	v["bench.host_probe_us"] = refProbeUS / probe.scale(edge(0), edge(windows))
	after, err := scrape(r.ctl)
	if err != nil {
		return nil, err
	}
	if v["srv_rss_peak_mb"], err = rssPeakMB(r.srv.pid); err != nil {
		return nil, err
	}
	n, dml, err := summarize(run, traces, cpuAt, scales, cfg.seconds, &acked)
	if err != nil {
		return nil, err
	}
	v["srv_allocs_per_stmt"] = delta(before, after, "ar_go_allocs_total") / n
	if cfg.trace {
		counterMetrics(v, before, after, n, dml)
	}

	if !w.durable {
		return run, checkClassic(run, w, r.srv.addr, traces, cfg.checks)
	}
	want := func() string { return fmt.Sprintf("[%d %d]", acked.rows, acked.sumV) }
	if err := checkTally(run, r.ctl, want(), "before the crash"); err != nil {
		return nil, err
	}
	// Acknowledged means durable: kill -9, restart on the same directory,
	// ask again. The sandbox keeps the OS page cache across the kill, so this
	// checks WAL and segment recovery, not the device.
	r.close()
	srv, err := launch(flags)
	if err != nil {
		return nil, fmt.Errorf("restart after kill -9: %w", err)
	}
	r = &rig{srv: srv}
	defer r.close()
	v["durable.recovery_s"] = srv.ready.Sub(srv.started).Seconds()
	if m := regexp.MustCompile(`replayed (\d+) WAL records`).FindStringSubmatch(strings.Join(srv.banner, "\n")); m != nil {
		v["durable.replayed_records"], _ = strconv.ParseFloat(m[1], 64)
	}
	if r.ctl, err = dial(srv.addr); err != nil {
		return nil, err
	}
	if err := checkTally(run, r.ctl, want(), "after kill -9 and recovery"); err != nil || !cfg.trace {
		return run, err
	}
	if err := maintenanceProbe(v, r.ctl, traces[0].next, &acked); err != nil {
		return nil, fmt.Errorf("maintenance probe: %w", err)
	}
	return run, checkTally(run, r.ctl, want(), "after the maintenance probe")
}

// setUp is everything setup_s times: start the server (which preloads and
// decomposes its tables and, with -data, adopts them into the directory),
// load the workload's own table over the wire, open the connections, and run
// the warm-up — the first part of the same sequences on the same closed
// loop, so caches fill and the heap reaches its working size. It returns the
// generator's tally of the events table so far.
func setUp(w *workload, launch launcher, flags []string, traces []*connTrace, v map[string]float64) (*rig, tally, error) {
	if w.durable {
		if err := os.RemoveAll(flags[len(flags)-1]); err != nil {
			return nil, tally{}, err
		}
	}
	srv, err := launch(flags)
	if err != nil {
		return nil, tally{}, err
	}
	r := &rig{srv: srv}
	fail := func(err error) (*rig, tally, error) {
		r.close()
		return nil, tally{}, err
	}
	if r.ctl, err = dial(srv.addr); err != nil {
		return fail(err)
	}
	if w.load != nil {
		if v["bwd.decompose_ms"], err = w.load(r.ctl); err != nil {
			return fail(fmt.Errorf("load: %w", err))
		}
	}
	for range traces {
		c, err := dial(srv.addr)
		if err != nil {
			return fail(err)
		}
		r.clients = append(r.clients, c)
		for _, line := range w.session {
			if _, err := c.query(line); err != nil {
				return fail(fmt.Errorf("session set-up: %w", err))
			}
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, conns)
	tallies := make([]tally, conns)
	for c, tr := range traces {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, st := range tr.stmts[:w.warmup] {
				if _, err := r.clients[c].query(st.line); err != nil {
					errs[c] = fmt.Errorf("warm-up: %w", err)
					return
				}
				tallies[c].ack(st)
			}
		}()
	}
	wg.Wait()
	acked := w.loaded
	for c := range traces {
		if errs[c] != nil {
			return fail(errs[c])
		}
		acked.rows += tallies[c].rows
		acked.sumV += tallies[c].sumV
	}
	return r, acked, nil
}

// measure runs the closed loops for the given time. It returns when they
// started and the server's CPU seconds then and at the end of each window.
func measure(r *rig, traces []*connTrace, seconds float64) (start time.Time, cpuAt []float64, cpuErr error) {
	cpuAt = make([]float64, windows+1)
	if cpuAt[0], cpuErr = cpuSeconds(r.srv.pid); cpuErr != nil {
		return start, nil, cpuErr
	}
	var wg sync.WaitGroup
	start = time.Now()
	length := time.Duration(seconds * float64(time.Second))
	deadline := start.Add(length)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k <= windows && cpuErr == nil; k++ {
			time.Sleep(time.Until(start.Add(length * time.Duration(k) / windows)))
			cpuAt[k], cpuErr = cpuSeconds(r.srv.pid)
		}
	}()
	for c, tr := range traces {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.lat = make([]time.Duration, 0, len(tr.stmts))
			tr.done = make([]time.Duration, 0, len(tr.stmts))
			tr.hash = make([]uint64, 0, len(tr.stmts))
			for i := 0; ; i++ {
				if i == len(tr.stmts) {
					tr.stmts = append(tr.stmts, tr.next())
				}
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				payload, err := r.clients[c].query(tr.stmts[i].line)
				t1 := time.Now()
				lat := t1.Sub(t0)
				if err != nil {
					if !strings.HasPrefix(err.Error(), "server: ") {
						tr.err = err
						return
					}
					lat = 0
				}
				tr.lat = append(tr.lat, lat)
				tr.done = append(tr.done, t1.Sub(start))
				tr.hash = append(tr.hash, fnv64(payload))
			}
		}()
	}
	wg.Wait()
	return start, cpuAt, cpuErr
}

// summarize turns the recorded latencies into the timing metrics — each as
// measured (raw.*) and scaled to the reference host by its window's probe —
// and adds the acknowledged writes to the tally. It returns how many
// statements were answered and how many of those were writes.
func summarize(run *e2eRun, traces []*connTrace, cpuAt, scales []float64, seconds float64, acked *tally) (n, dml float64, err error) {
	var all, selects, inserts []float64
	perWindow := make([][]float64, windows) // latencies, by window of completion
	credit := make([]float64, windows)      // statements done, by window
	width := seconds / windows
	for _, tr := range traces {
		if tr.err != nil {
			return 0, 0, fmt.Errorf("connection broke mid-run: %w", tr.err)
		}
		for i, lat := range tr.lat {
			st := tr.stmts[i]
			run.attempted++
			if lat == 0 {
				run.fail("error reply to %.80q", st.line)
				continue
			}
			acked.ack(st)
			ms := float64(lat) / 1e6
			all = append(all, ms)
			// A statement counts towards each window in proportion to the
			// part of its round trip spent there, so a window's rate does not
			// jump by one whole statement at its edges. Its latency belongs
			// to the window it completed in; the one in flight at the
			// deadline completes past the last window.
			end := tr.done[i].Seconds()
			begin := end - lat.Seconds()
			for k := int(begin / width); k < windows && float64(k)*width < end; k++ {
				credit[k] += (min(end, float64(k+1)*width) - max(begin, float64(k)*width)) / (end - begin)
			}
			if k := int(end / width); k < windows {
				perWindow[k] = append(perWindow[k], ms)
			}
			switch st.kind {
			case kSelect:
				selects = append(selects, ms)
			case kInsert:
				inserts = append(inserts, ms)
				dml++
			case kDelete:
				dml++
			}
		}
	}
	// Per window: the value as measured and the value on the reference host.
	byMetric := map[string][2][]float64{}
	add := func(name string, raw, adjusted float64) {
		m := byMetric[name]
		byMetric[name] = [2][]float64{append(m[0], raw), append(m[1], adjusted)}
	}
	for k, lats := range perWindow {
		add("stmt_per_s", credit[k]/width, credit[k]/width/scales[k])
		if len(lats) > 0 {
			slices.Sort(lats)
			p50, p95 := quantile(lats, 0.50), quantile(lats, 0.95)
			cpu := (cpuAt[k+1] - cpuAt[k]) * 1000 / credit[k]
			add("lat_p50_ms", p50, p50*scales[k])
			add("lat_p95_ms", p95, p95*scales[k])
			add("srv_cpu_ms_per_stmt", cpu, cpu*scales[k])
		}
	}
	if len(all) == 0 {
		return 0, 0, fmt.Errorf("no statement completed in %.1fs", seconds)
	}
	v := run.values
	for name, m := range byMetric {
		v["raw."+name] = median(m[0])
		v[name] = median(m[1])
	}

	run.samples = len(all)
	slices.Sort(all)
	slices.Sort(selects)
	slices.Sort(inserts)
	v["server.lat_p99_ms"] = quantile(all, 0.99)
	v["server.lat_max_ms"] = all[len(all)-1]
	v["server.lat_select_p50_ms"] = quantile(selects, 0.50)
	v["server.lat_insert_p50_ms"] = quantile(inserts, 0.50)
	return float64(len(all)), dml, nil
}

func delta(before, after counters, name string) float64 { return after[name] - before[name] }

// ratio is a/(a+b), 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// counterMetrics turns the program's own counters, scraped on the control
// connection before and after the measured phase, into per-layer metrics.
// n is the number of measured statements, dml how many of them were writes.
func counterMetrics(v map[string]float64, before, after counters, n, dml float64) {
	d := func(name string) float64 { return delta(before, after, name) }
	v["engine.cache_hit_ratio"] = ratio(d("ar_plan_cache_hits_total"), d("ar_plan_cache_misses_total"))
	v["engine.sched_wait_us_per_stmt"] = d("ar_sched_queue_wait_seconds_sum") * 1e6 / n
	v["engine.pick_classic_ratio"] = ratio(d(`ar_mode_picks_total{mode="classic"}`), d(`ar_mode_picks_total{mode="ar"}`))
	v["engine.rejected_per_kstmt"] = d("ar_sched_rejected_total") * 1000 / n
	v["shard.partition_scans_per_stmt"] = d("ar_partition_scans_total") / n
	v["store.merges"] = d("ar_store_merges_total")
	if full := d(fullRedecompBytes); full > 0 {
		v["store.merge_shipped_frac"] = d("ar_store_merge_shipped_bytes_total") / full
	}
	v["store.delta_rows_end"] = after.sumPrefix(`ar_table_delta_rows{table="events.`)
	if dml > 0 {
		v["durable.fsyncs_per_stmt"] = d("ar_wal_fsyncs_total") / dml
		v["durable.fsync_us_per_stmt"] = d("ar_wal_fsync_seconds_sum") * 1e6 / dml
	}
	v["mem.arena_hit_ratio"] = ratio(d(`ar_mem_pool_gets_total{result="hit"}`), d(`ar_mem_pool_gets_total{result="miss"}`))
	v["mem.gc_pause_us_per_stmt"] = d("ar_go_gc_pauses_seconds") * 1e6 / n
	v["mem.heap_live_mb"] = before["ar_go_heap_bytes"] / (1 << 20)
}

// checkClassic replays evenly spaced measured statements under
// `\mode classic` on a fresh connection: the cost-chosen executor's reply
// must be byte-identical to the classic executor's.
func checkClassic(run *e2eRun, w *workload, addr string, traces []*connTrace, checks int) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close()
	for _, line := range append(slices.Clone(w.session), `\mode classic`) {
		if _, err := c.query(line); err != nil {
			return fmt.Errorf("check connection: %w", err)
		}
	}
	type answered struct {
		line string
		hash uint64
	}
	var all []answered
	for _, tr := range traces {
		for i, lat := range tr.lat {
			if lat > 0 {
				all = append(all, answered{tr.stmts[i].line, tr.hash[i]})
			}
		}
	}
	checks = min(checks, len(all))
	for j := 0; j < checks; j++ {
		a := all[j*len(all)/checks]
		run.attempted++
		payload, err := c.query(a.line)
		if err != nil {
			run.fail("classic replay of %.80q: %v", a.line, err)
		} else if fnv64(payload) != a.hash {
			run.fail("classic executor answers %.40q differently: %.80q", payload, a.line)
		}
	}
	return nil
}

// checkTally requires the table to hold exactly what the generator was
// acknowledged for, whichever executor answers.
func checkTally(run *e2eRun, c *client, want, when string) error {
	for _, mode := range []string{"ar", "classic"} {
		if _, err := c.query(`\mode ` + mode); err != nil {
			return err
		}
		run.attempted++
		got, err := c.query("select count(*) as n, sum(v) as s from events")
		if err != nil {
			run.fail("tally %s, mode %s: %v", when, mode, err)
		} else if got != want {
			run.fail("tally %s, mode %s: table holds %s, acknowledged %s", when, mode, got, want)
		}
	}
	_, err := c.query(`\mode auto`)
	return err
}

// maintenanceProbe times the background work in isolation, on the table the
// measured phase left behind: a bare `\merge` of a known delta, a bare
// `\checkpoint` of another, and the bytes each costs per row.
func maintenanceProbe(v map[string]float64, c *client, next func() stmt, acked *tally) error {
	burst := func() (rows float64, err error) {
		for sent := 0; sent < 100; {
			st := next()
			if st.kind != kInsert {
				continue
			}
			if _, err := c.query(st.line); err != nil {
				return 0, err
			}
			acked.ack(st)
			rows += float64(st.rows)
			sent++
		}
		return rows, nil
	}
	timedMS := func(line string) (string, float64, error) {
		t0 := time.Now()
		out, err := c.query(line)
		return out, float64(time.Since(t0)) / 1e6, err
	}
	if _, err := c.query(`\checkpoint`); err != nil {
		return err
	}
	w0, err := scrape(c)
	if err != nil {
		return err
	}
	rows, err := burst()
	if err != nil {
		return err
	}
	w1, err := scrape(c)
	if err != nil {
		return err
	}
	v["durable.wal_bytes_per_row"] = delta(w0, w1, "ar_wal_size_bytes") / rows
	if _, v["store.merge_ms"], err = timedMS(`\merge`); err != nil {
		return err
	}
	if _, err := burst(); err != nil {
		return err
	}
	out, ms, err := timedMS(`\checkpoint`)
	if err != nil {
		return err
	}
	v["durable.checkpoint_ms"] = ms
	var segBytes float64
	for _, m := range regexp.MustCompile(`checkpointed events\.p\d+ at lsn \d+: segment (\d+) B`).FindAllStringSubmatch(out, -1) {
		b, _ := strconv.ParseFloat(m[1], 64)
		segBytes += b
	}
	v["durable.seg_bytes_per_row"] = segBytes / float64(acked.rows)
	return nil
}
