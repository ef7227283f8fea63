package engine

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// metricValue extracts one sample (by exact series name, including labels)
// from a Prometheus-text exposition.
func metricValue(t *testing.T, lines []string, series string) float64 {
	t.Helper()
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s not found in exposition:\n%s", series, strings.Join(lines, "\n"))
	return 0
}

// TestMetricsExactUnderConcurrentScrape is the registry stress test: many
// sessions querying concurrently while another goroutine scrapes \metrics
// mid-flight. The counters must come out exact — no lost updates, no
// torn reads. Run under -race in CI.
func TestMetricsExactUnderConcurrentScrape(t *testing.T) {
	eng := New(starEngineCatalog(t), Options{})
	ctx := context.Background()
	const workers, per = 6, 25

	done := make(chan struct{})
	var scrapes int
	go func() {
		defer close(done)
		for {
			select {
			case <-done:
				return
			default:
				if len(eng.Metrics().Text()) == 0 {
					return
				}
				scrapes++
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := eng.Session()
			defer sess.Close()
			for i := 0; i < per; i++ {
				if _, err := sess.Query(ctx, starQuery); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	done <- struct{}{}
	<-done

	lines := eng.Metrics().Text()
	total := metricValue(t, lines, `ar_queries_total{route="ar"}`) +
		metricValue(t, lines, `ar_queries_total{route="classic"}`) +
		metricValue(t, lines, `ar_queries_total{route="ddl"}`)
	if total != workers*per {
		t.Errorf("ar_queries_total sums to %v, want %d", total, workers*per)
	}
	if got := metricValue(t, lines, "ar_query_errors_total"); got != 0 {
		t.Errorf("ar_query_errors_total = %v, want 0", got)
	}
	// Latency histograms observed exactly one sample per query.
	hist := metricValue(t, lines, `ar_query_latency_seconds_count{route="ar"}`) +
		metricValue(t, lines, `ar_query_latency_seconds_count{route="classic"}`) +
		metricValue(t, lines, `ar_query_latency_seconds_count{route="ddl"}`)
	if hist != workers*per {
		t.Errorf("latency histogram count sums to %v, want %d", hist, workers*per)
	}
}

// TestMetricsFamilies checks the engine registry exposes the documented
// metric families with plausible values after some activity.
func TestMetricsFamilies(t *testing.T) {
	eng := New(starEngineCatalog(t), Options{})
	ctx := context.Background()
	sess := eng.Session()
	defer sess.Close()
	if _, err := sess.Query(ctx, starQuery); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Query(ctx, starQuery); err != nil { // plan-cache hit
		t.Fatal(err)
	}
	lines, _, handled, err := sess.Meta(ctx, `\metrics`)
	if err != nil || !handled {
		t.Fatalf("\\metrics: handled=%v err=%v", handled, err)
	}
	text := strings.Join(lines, "\n")
	for _, fam := range []string{
		"# TYPE ar_queries_total counter",
		"# TYPE ar_query_latency_seconds histogram",
		"# TYPE ar_sessions_active gauge",
		"# TYPE ar_sched_queue_depth gauge",
		"# TYPE ar_sched_queue_high_water gauge",
		"# TYPE ar_sched_rejected_total counter",
		"# TYPE ar_sched_cancelled_total counter",
		"# TYPE ar_sched_stream_hold_seconds histogram",
		`ar_sched_active_ar{phase="approximating"} 0`,
		`ar_sched_active_ar{phase="refining"} 0`,
		"# TYPE ar_plan_cache_hits_total counter",
		"# TYPE ar_store_segments gauge",
		"# TYPE ar_sim_device_seconds_total counter",
		"# TYPE ar_table_base_rows gauge",
		`ar_table_base_rows{table="f"} 2000`,
		"# TYPE ar_slow_queries_total counter",
		"# TYPE ar_scan_granules_total counter",
		`ar_scan_granules_total{outcome="skipped"}`,
		`ar_scan_granules_total{outcome="inside"}`,
		`ar_scan_granules_total{outcome="decoded"}`,
	} {
		if !strings.Contains(text, fam) {
			t.Errorf("\\metrics missing %q", fam)
		}
	}
	if got := metricValue(t, lines, "ar_plan_cache_hits_total"); got < 1 {
		t.Errorf("ar_plan_cache_hits_total = %v after a repeated query", got)
	}
	if got := metricValue(t, lines, "ar_sessions_active"); got != 1 {
		t.Errorf("ar_sessions_active = %v, want 1", got)
	}
	// Every A&R statement held its stream once, from admission to its ship.
	if held, ran := metricValue(t, lines, "ar_sched_stream_hold_seconds_count"), metricValue(t, lines, `ar_queries_total{route="ar"}`); held != ran || ran == 0 {
		t.Errorf("ar_sched_stream_hold_seconds observed %v holds for %v A&R statements", held, ran)
	}
	if line := eng.Scheduler().Stats().String(); !strings.HasSuffix(line, ", ar approximating 0, ar refining 0") {
		t.Errorf(`\stats scheduler line does not end with the phase split: %q`, line)
	}
}

// TestExplainAnalyzeMeta runs \explain analyze on a multi-join query with
// an OR filter group and checks the output: the static plan listing
// followed by a trace annotating each stage with est-vs-actual rows and
// the simulated GPU/CPU/PCI split.
func TestExplainAnalyzeMeta(t *testing.T) {
	eng := New(starEngineCatalog(t), Options{})
	sess := eng.Session()
	defer sess.Close()
	ctx := context.Background()

	const q = `select count(*) as n from f join d1 on f.fk1 = d1.id join d2 on f.fk2 = d2.id where (v < 500 or v > 1500) and d1.a < 5`
	lines, quit, handled, err := sess.Meta(ctx, `\explain analyze `+q)
	if err != nil || quit || !handled {
		t.Fatalf("Meta explain analyze: quit=%v handled=%v err=%v", quit, handled, err)
	}
	text := strings.Join(lines, "\n")
	for _, want := range []string{
		"mode=ar",           // static plan header
		"trace: mode=ar",    // trace header follows the plan
		"GPU", "CPU", "PCI", // device split in the header
		"est=", " act=", // est-vs-actual on the filter stages
		"uselectanyapproximate", // the OR group ran approximately...
		"uselectanyrefine",      // ...and was refined
		"leftjoinapproximate",
		"candidates ", "false-positive rate",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("\\explain analyze missing %q:\n%s", want, text)
		}
	}
	// Every traced actual is annotated onto a stage line with a wall/device
	// split.
	if !strings.Contains(text, "| wall ") {
		t.Errorf("\\explain analyze has no per-stage device split:\n%s", text)
	}
	// Analyze executes; a write statement must be refused, not executed.
	if _, _, _, err := sess.Meta(ctx, `\explain analyze insert into f values (1, 2, 3)`); err == nil {
		t.Error("\\explain analyze of a write statement did not fail")
	}
	// The plain query result is unaffected by an analyze run having
	// happened (analyze shares the scheduler and cache).
	res, err := sess.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Error("ordinary query carries a trace without the slow log armed")
	}
}

// TestSlowLogMeta arms the slow-query log through \slow, runs a query over
// the threshold, and checks the retained entry carries its full trace.
func TestSlowLogMeta(t *testing.T) {
	eng := New(starEngineCatalog(t), Options{})
	sess := eng.Session()
	defer sess.Close()
	ctx := context.Background()

	if _, _, _, err := sess.Meta(ctx, `\slow nonsense`); err == nil {
		t.Error("\\slow with a bad duration did not fail")
	}
	lines, _, _, err := sess.Meta(ctx, `\slow 1ns`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "slow-query log on") {
		t.Errorf("arming reply = %v", lines)
	}
	if _, err := sess.Query(ctx, starQuery); err != nil {
		t.Fatal(err)
	}
	lines, _, _, err = sess.Meta(ctx, `\slow`)
	if err != nil {
		t.Fatal(err)
	}
	text := strings.Join(lines, "\n")
	for _, want := range []string{"threshold 1ns", "1 retained", starQuery, "trace: mode="} {
		if !strings.Contains(text, want) {
			t.Errorf("\\slow listing missing %q:\n%s", want, text)
		}
	}
	if got := metricValue(t, eng.Metrics().Text(), "ar_slow_queries_total"); got != 1 {
		t.Errorf("ar_slow_queries_total = %v, want 1", got)
	}
	if _, _, _, err := sess.Meta(ctx, `\slow off`); err != nil {
		t.Fatal(err)
	}
	if eng.SlowLog().Enabled() {
		t.Error("\\slow off left the log armed")
	}
}

// TestStatsSchedulerLine pins the documented one-line scheduler format in
// \stats — scripts parse it, so the shape is part of the surface.
func TestStatsSchedulerLine(t *testing.T) {
	eng := New(starEngineCatalog(t), Options{})
	sess := eng.Session()
	defer sess.Close()
	ctx := context.Background()
	if _, err := sess.Query(ctx, starQuery); err != nil {
		t.Fatal(err)
	}
	lines, _, _, err := sess.Meta(ctx, `\stats`)
	if err != nil {
		t.Fatal(err)
	}
	var sched string
	for _, l := range lines {
		if strings.HasPrefix(l, "scheduler: ") {
			sched = l
			break
		}
	}
	if sched == "" {
		t.Fatalf("\\stats has no scheduler line:\n%s", strings.Join(lines, "\n"))
	}
	for _, want := range []string{
		"classic ", " run (peak ", " concurrent), ar ", "ddl ",
		"rejected ", "cancelled ", "queue depth ", "(high-water ",
	} {
		if !strings.Contains(sched, want) {
			t.Errorf("scheduler line missing %q: %s", want, sched)
		}
	}
}
