package main

// The layer run: the one file of the benchmark that imports the program's
// packages. It is kept to their public entry points — sql.Normalize/Parse/
// Bind, engine.Open with Session.Query and Session.Meta, server.New/Serve,
// plan.NewCatalog, device.PaperSystem and the spatial and tpch loaders — so
// that a change behind those calls needs no change here.

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/spatial"
	"repro/internal/sql"
	"repro/internal/tpch"
)

// span is one timed call into a layer. Spans of one statement share a
// trace_id and point at their parent by name: stmt (the wire round trip) ⊃
// engine ⊃ {sql.normalize, sql.parse, sql.bind, plan.optimize, plan.exec ⊃
// stages}. Each level is a call of its own, made from outside the program —
// so a child's interval is measured, not carved out of its parent's, and lies
// inside it only under plan.exec, whose stages come from one execution's
// `\explain analyze`. Self time is a span's duration minus its children's.
type span struct {
	TraceID int    `json:"trace_id"`
	Span    string `json:"span"`
	Parent  string `json:"parent"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the cost of recording is measured.
type recorder struct {
	base  time.Time
	spans []span
}

func (r *recorder) add(trace int, name, parent, layer string, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	s := start.Sub(r.base).Nanoseconds()
	r.spans = append(r.spans, span{trace, name, parent, layer, s, s + d.Nanoseconds()})
}

func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // harmless after the checked Close below
	out := bufio.NewWriter(f)
	enc := json.NewEncoder(out)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := out.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// inProcess is the program's stack opened inside the benchmark: the tables
// arserve would preload for these flags, an engine with the options arserve
// would give it, and a server on loopback in front of it.
type inProcess struct {
	cat  *plan.Catalog
	eng  *engine.Engine
	srv  *server.Server
	sess *engine.Session
	wire *client
	ctx  context.Context
}

func openInProcess(arserveFlags []string, dataDir string) (*inProcess, error) {
	fs := flag.NewFlagSet("arserve", flag.ContinueOnError)
	sf := fs.Float64("sf", 0, "")
	fixes := fs.Int("spatial", 0, "")
	fsync := fs.String("fsync", "", "")
	mergeAt := fs.Int("merge-threshold", 0, "")
	if err := fs.Parse(arserveFlags); err != nil {
		return nil, err
	}
	p := &inProcess{cat: plan.NewCatalog(device.PaperSystem()), ctx: context.Background()}
	lineitem := tpch.Generate(*sf, 42)
	if err := lineitem.Load(p.cat); err != nil {
		return nil, err
	}
	if err := lineitem.DecomposeAll(p.cat, false); err != nil {
		return nil, err
	}
	trips := spatial.Generate(*fixes, 7)
	if err := trips.Load(p.cat); err != nil {
		return nil, err
	}
	if err := trips.Decompose(p.cat); err != nil {
		return nil, err
	}
	var err error
	if p.eng, err = engine.Open(p.cat, engine.Options{DataDir: dataDir, Fsync: *fsync, MergeThreshold: *mergeAt}); err != nil {
		return nil, err
	}
	p.srv = server.New(p.eng)
	p.sess = p.eng.Session()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.close()
		return nil, err
	}
	go p.srv.Serve(l) // returns once close() closes the server
	if p.wire, err = dial(l.Addr().String()); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

func (p *inProcess) close() {
	if p.wire != nil {
		p.wire.close()
	}
	p.srv.Close()
	p.eng.Close()
}

// engineCall is what the server does with a line, minus the wire and the
// rendering: meta commands to Session.Meta, everything else to Session.Query.
func (p *inProcess) engineCall(line string) error {
	_, _, handled, err := p.sess.Meta(p.ctx, line)
	if !handled {
		_, err = p.sess.Query(p.ctx, line)
	}
	return err
}

func (p *inProcess) meta(line string) (string, error) {
	lines, _, _, err := p.sess.Meta(p.ctx, line)
	return strings.Join(lines, "\n"), err
}

// timed runs f and returns when it started and how long it took.
func timed(f func() error) (time.Time, time.Duration, error) {
	start := time.Now()
	err := f()
	return start, time.Since(start), err
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// layerRun accumulates what the layer run measures.
type layerRun struct {
	p   *inProcess
	rec *recorder

	statements    int                // all statements replayed
	sqlUS         map[string]float64 // µs by metric, summed over all of them
	compileAllocs uint64
	reads         []stmt
	readUS        map[string]float64 // µs by metric, summed over the reads
	// The two self times are differences of separately measured calls, each
	// carrying a whole execution's noise, so they are reported as medians.
	serverSelf, engineSelf []float64
	candidates, refined    float64
	estErrSum, estErrN     float64
}

// runLayers replays the head of connection 0's sequence, serially and warm,
// against the in-process stack, one call per layer boundary, and adds the
// per-layer figures (mean µs per statement a layer saw) to v. Reads are
// issued once per level. Writes are issued once each — alternately over the
// wire and straight into the engine — so the table sees every write exactly
// once; their front-end cost is still timed on every one, because Normalize,
// Parse and Bind change nothing.
func runLayers(w *workload, v map[string]float64, spansPath, dataDir string) error {
	if !w.durable {
		dataDir = ""
	} else if err := os.RemoveAll(dataDir); err != nil {
		return err
	}
	p, err := openInProcess(w.flags, dataDir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)
	defer p.close()
	if w.load != nil {
		if _, err := w.load(p.wire); err != nil {
			return fmt.Errorf("load: %w", err)
		}
	}
	for _, line := range w.session {
		if _, err := p.wire.query(line); err != nil {
			return err
		}
		if err := p.engineCall(line); err != nil {
			return err
		}
	}
	seq := w.sequence(0)
	for i := 0; i < w.warmup; i++ {
		if _, err := p.wire.query(seq().line); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}

	lr := &layerRun{p: p, rec: &recorder{base: time.Now()}, sqlUS: map[string]float64{}, readUS: map[string]float64{}}
	for i := 0; i < w.layerK; i++ {
		if err := lr.statement(i, seq()); err != nil {
			return err
		}
	}
	if err := lr.overheads(v); err != nil {
		return err
	}
	for name, total := range lr.sqlUS {
		v[name] = total / float64(lr.statements)
	}
	v["sql.compile_allocs"] = float64(lr.compileAllocs) / float64(lr.statements)
	for name, total := range lr.readUS {
		v[name] = total / float64(len(lr.reads))
	}
	v["server.self_us"] = median(lr.serverSelf)
	v["engine.self_us"] = median(lr.engineSelf)
	if lr.candidates > 0 {
		v["ar.false_positive_ratio"] = (lr.candidates - lr.refined) / lr.candidates
	}
	if lr.estErrN > 0 {
		v["stats.est_error_x"] = lr.estErrSum / lr.estErrN
	}
	return lr.rec.write(spansPath)
}

// statement times statement i at every level it is issued at.
func (lr *layerRun) statement(i int, st stmt) error {
	p, rec, text := lr.p, lr.rec, st.text()
	lr.statements++

	// sql: the front end on its own.
	a0 := heapAllocs()
	tn, dn, _ := timed(func() error { sql.Normalize(text); return nil })
	var ast *sql.Stmt
	tp, dp, err := timed(func() (err error) { ast, err = sql.Parse(text); return })
	if err != nil {
		return fmt.Errorf("sql.Parse(%.60q): %w", text, err)
	}
	tb, db, err := timed(func() error { _, err := sql.Bind(ast, p.cat); return err })
	if err != nil {
		return fmt.Errorf("sql.Bind(%.60q): %w", text, err)
	}
	lr.compileAllocs += heapAllocs() - a0
	lr.sqlUS["sql.normalize_us"] += us(dn)
	lr.sqlUS["sql.parse_us"] += us(dp)
	lr.sqlUS["sql.bind_us"] += us(db)
	overWire := st.kind != kSelect && i%2 == 0 // a write with no engine-level call
	sqlParent := "engine"
	if overWire {
		sqlParent = "stmt"
	}
	rec.add(i, "sql.normalize", sqlParent, "sql", tn, dn)
	rec.add(i, "sql.parse", sqlParent, "sql", tp, dp)
	rec.add(i, "sql.bind", sqlParent, "sql", tb, db)

	if st.kind != kSelect {
		if overWire {
			t, d, err := timed(func() error { _, err := p.wire.query(st.line); return err })
			rec.add(i, "stmt", "", "server", t, d)
			return err
		}
		t, d, err := timed(func() error { return p.engineCall(st.line) })
		rec.add(i, "engine", "", "engine", t, d)
		return err
	}
	lr.reads = append(lr.reads, st)

	// engine: first sight of the text, so a text that is not cached is
	// compiled here and served from the plan cache at every later level (a
	// `\run` compiles its substituted text every time, cache or not).
	te, de, err := timed(func() error { return p.engineCall(st.line) })
	if err != nil {
		return err
	}
	// server: the same line over loopback.
	tw, dw, err := timed(func() error { _, err := p.wire.query(st.line); return err })
	if err != nil {
		return err
	}
	// plan.optimize: pipeline build and costing without execution. The
	// statement is compiled by a cache hit, so all but Normalize is planning.
	to, do, err := timed(func() error { _, err := p.meta(`\explain ` + text); return err })
	if err != nil {
		return err
	}
	// plan.exec and its stages: one traced execution.
	var reply string
	ta, da, err := timed(func() (err error) { reply, err = p.meta(`\explain analyze ` + text); return })
	if err != nil {
		return err
	}
	an, err := parseAnalyze(reply)
	if err != nil {
		return fmt.Errorf(`\explain analyze %.60q: %w`, text, err)
	}

	isRun := st.sql != ""
	compile := time.Duration(0) // parse+bind inside the engine-level call
	if isRun || !st.cached {
		compile = dp + db
	}
	engineWarm := de // what the engine-level call would take at the wire call's cache state
	if !isRun {
		engineWarm -= compile
	}
	// A partitioned table's trace begins at the gather, after the legs have
	// run side by side: its execution is the longest leg plus the traced
	// wall, and what the tail's own lines do not account for is the merge of
	// the partials.
	exec, tail, longestLeg := an.wall, time.Duration(0), time.Duration(0)
	for _, sg := range an.stages {
		switch sg.stage {
		case "scatter":
			longestLeg = max(longestLeg, sg.wall)
		case "gather":
		default:
			tail += sg.wall
		}
	}
	exec += longestLeg
	if longestLeg > 0 {
		lr.readUS["shard.gather_us"] += us(an.wall - tail)
	}

	lr.serverSelf = append(lr.serverSelf, us(dw-engineWarm))
	lr.engineSelf = append(lr.engineSelf, us(de-compile-exec))
	lr.readUS["plan.optimize_us"] += us(do - dn)
	lr.readUS["plan.exec_us"] += us(exec)
	lr.readUS["device.sim_gpu_us_per_stmt"] += us(an.gpu)
	lr.readUS["device.sim_cpu_us_per_stmt"] += us(an.cpu)
	lr.readUS["device.sim_pci_us_per_stmt"] += us(an.pci)
	lr.candidates += float64(an.candidates)
	lr.refined += float64(an.refined)
	if an.estError > 0 {
		lr.estErrSum += an.estError
		lr.estErrN++
	}
	rec.add(i, "stmt", "", "server", tw, dw)
	rec.add(i, "engine", "stmt", "engine", te, de)
	rec.add(i, "plan.optimize", "engine", "plan", to, do)
	// AnalyzeStatement describes the plan, then executes: the execution is
	// the tail of the call. Stage spans are laid end to end inside it in the
	// order the trace lists them (legs: all from its start).
	at := ta.Add(da - exec)
	rec.add(i, "plan.exec", "engine", "plan", at, exec)
	next := at.Add(longestLeg)
	for _, sg := range an.stages {
		layer, metric := stageMetric(sg.stage)
		name := sg.stage + ":" + sg.op
		if sg.stage == "scatter" {
			rec.add(i, name, "plan.exec", layer, at, sg.wall)
		} else {
			rec.add(i, name, "plan.exec", layer, next, sg.wall)
			next = next.Add(sg.wall)
		}
		if sg.stage != "gather" {
			lr.readUS[metric] += us(sg.wall)
		}
	}
	return nil
}

// overheads prices the two instruments — the benchmark's span recording and
// the program's own stage tracing (armed by `\slow`) — each as the same call
// with the instrument on and off over every read.
func (lr *layerRun) overheads(v map[string]float64) error {
	p := lr.p
	var wireOn, wireOff, traceOn, traceOff time.Duration
	for i, st := range lr.reads {
		err := onAndOff(i, &wireOn, &wireOff, func(on bool) (time.Duration, error) {
			var scratch *recorder
			if on {
				scratch = &recorder{base: lr.rec.base}
			}
			t, d, err := timed(func() error { _, err := p.wire.query(st.line); return err })
			scratch.add(i, "stmt", "", "server", t, d)
			return d, err
		})
		if err != nil {
			return err
		}
		err = onAndOff(i, &traceOn, &traceOff, func(on bool) (time.Duration, error) {
			arm := `\slow off`
			if on {
				arm = `\slow 1h`
			}
			if _, err := p.meta(arm); err != nil {
				return 0, err
			}
			_, d, err := timed(func() error { return p.engineCall(st.line) })
			return d, err
		})
		if err != nil {
			return err
		}
	}
	v["bench.span_overhead_pct"] = 100 * float64(wireOn-wireOff) / float64(wireOff)
	v["obs.trace_overhead_pct"] = 100 * float64(traceOn-traceOff) / float64(traceOff)
	_, err := p.meta(`\slow off`)
	return err
}

// onAndOff runs call once with the instrument on and once with it off and
// adds the two durations to their totals. Which goes first alternates with
// i, so the second call's warmer caches favour neither side.
func onAndOff(i int, onTotal, offTotal *time.Duration, call func(on bool) (time.Duration, error)) error {
	for j := 0; j < 2; j++ {
		on := (i+j)%2 == 0
		d, err := call(on)
		if err != nil {
			return err
		}
		if on {
			*onTotal += d
		} else {
			*offTotal += d
		}
	}
	return nil
}
