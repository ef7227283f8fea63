package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryText checks the Prometheus text exposition: sorted families,
// HELP/TYPE headers, label rendering, cumulative histogram buckets with
// _sum and _count, and dedup registration returning the same object.
func TestRegistryText(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("zz_total", `route="ar"`, "queries")
	c.Add(3)
	if again := r.Counter("zz_total", `route="ar"`, "queries"); again != c {
		t.Fatal("re-registering the same (name, labels) did not return the existing counter")
	}
	r.Counter("zz_total", `route="classic"`, "queries").Inc()
	r.Gauge("aa_depth", "", "queue depth").Set(2.5)
	h := r.Histogram("mid_seconds", "", "latency", []float64{0.001, 1})
	h.Observe(500 * time.Microsecond)
	h.Observe(2 * time.Second)
	r.GaugeFunc("fn_gauge", "", "func gauge", func() float64 { return 7 })
	r.Collector(func(emit Emit) {
		emit("dyn_rows", `table="trips"`, "per-table rows", "gauge", 42)
	})

	text := strings.Join(r.Text(), "\n") + "\n"
	for _, want := range []string{
		"# HELP zz_total queries\n# TYPE zz_total counter\n",
		"zz_total{route=\"ar\"} 3\n",
		"zz_total{route=\"classic\"} 1\n",
		"aa_depth 2.5\n",
		"# TYPE mid_seconds histogram\n",
		"mid_seconds_bucket{le=\"0.001\"} 1\n",
		"mid_seconds_bucket{le=\"1\"} 1\n",
		"mid_seconds_bucket{le=\"+Inf\"} 2\n",
		"mid_seconds_sum 2.0005\n",
		"mid_seconds_count 2\n",
		"fn_gauge 7\n",
		"dyn_rows{table=\"trips\"} 42\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// Families render sorted by name regardless of registration order.
	if strings.Index(text, "aa_depth") > strings.Index(text, "zz_total") {
		t.Error("families are not sorted by name")
	}
	// The HTTP handler serves the same body with the exposition media type.
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got := rec.Header().Get("Content-Type"); !strings.HasPrefix(got, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", got)
	}
	if rec.Body.String() != text {
		t.Error("HTTP body differs from Text()")
	}
}

// TestRegistryConcurrentExact hammers counters and a histogram from many
// goroutines while scraping the exposition mid-flight, then asserts the
// final values are exact — the lock-free hot path must not lose updates,
// and scraping must not block or corrupt them. Run under -race in CI.
func TestRegistryConcurrentExact(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total", "", "")
	h := r.Histogram("lat_seconds", "", "", nil)
	const workers, per = 8, 5000
	done := make(chan struct{})
	go func() { // concurrent scraper
		for {
			select {
			case <-done:
				return
			default:
				r.Text()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	close(done)
	if got := c.Value(); got != workers*per {
		t.Errorf("counter lost updates: got %d, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram lost observations: got %d, want %d", got, workers*per)
	}
	text := strings.Join(r.Text(), "\n")
	if !strings.Contains(text, "hits_total 40000") {
		t.Errorf("exposition does not show the exact count:\n%s", text)
	}
}

// TestSlowLogRing checks threshold gating, ring-buffer eviction and
// newest-first listing.
func TestSlowLogRing(t *testing.T) {
	l := NewSlowLog(2)
	if l.Enabled() {
		t.Fatal("slow log enabled before a threshold was set")
	}
	l.Note(SlowEntry{Query: "ignored", Wall: time.Hour}) // disabled: dropped
	l.SetThreshold(10 * time.Millisecond)
	l.Note(SlowEntry{Query: "fast", Wall: time.Millisecond}) // under threshold
	l.Note(SlowEntry{Query: "q1", Wall: 20 * time.Millisecond})
	l.Note(SlowEntry{Query: "q2", Wall: 30 * time.Millisecond})
	l.Note(SlowEntry{Query: "q3", Wall: 40 * time.Millisecond}) // evicts q1
	if got := l.Seen(); got != 3 {
		t.Errorf("Seen() = %d, want 3", got)
	}
	es := l.Entries()
	if len(es) != 2 || es[0].Query != "q3" || es[1].Query != "q2" {
		t.Errorf("Entries() = %+v, want newest-first [q3 q2]", es)
	}
	text := strings.Join(l.Lines(), "\n")
	for _, want := range []string{"threshold 10ms", "2 retained (3 total, capacity 2)", "q3", "q2"} {
		if !strings.Contains(text, want) {
			t.Errorf("Lines() missing %q:\n%s", want, text)
		}
	}
	l.SetThreshold(0)
	if l.Enabled() {
		t.Error("SetThreshold(0) did not disable the log")
	}
}

// TestTraceRender checks the per-operator rendering and the
// candidate-funnel accounting.
func TestTraceRender(t *testing.T) {
	tr := &Trace{Mode: "ar", Threads: 1, Workers: 2, Wall: 5 * time.Millisecond,
		Candidates: 100, Refined: 80, Rows: 80, EstCandidates: 90}
	tr.Add(StageEvent{Stage: "approximate", Op: Op{Fmt: "bwd.uselectapproximate(%[1]s.%[2]s)", A: "t", B: "v"},
		Rows: 100, Est: 90, Morsels: 2, GPU: time.Millisecond})
	tr.Add(StageEvent{Stage: "refine", Op: Op{Fmt: "bwd.uselectrefine(%[1]s.%[2]s)", A: "t", B: "v"}, Rows: 80, Est: -1,
		CPU: 2 * time.Millisecond})
	if got := tr.FalsePositiveRate(); got != 0.2 {
		t.Errorf("FalsePositiveRate = %v, want 0.2", got)
	}
	gpu, cpu, pci := tr.SimTotal()
	if gpu != time.Millisecond || cpu != 2*time.Millisecond || pci != 0 {
		t.Errorf("SimTotal = %v %v %v", gpu, cpu, pci)
	}
	text := strings.Join(tr.Render(), "\n")
	for _, want := range []string{
		"mode=ar threads=1 workers=2",
		"] bwd.uselectapproximate(t.v) ",
		"est=90 act=100", "morsels 2",
		"rows 80",
		"candidates 100 -> refined 80 (false-positive rate 20.00%), 80 result rows; est candidates 90 (error 1.1x)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Render missing %q:\n%s", want, text)
		}
	}
	// An op record is text wherever it is read: the listing above, and the
	// trace's JSON form.
	if out, err := json.Marshal(tr.Events[1]); err != nil || !strings.Contains(string(out), `"op":"bwd.uselectrefine(t.v)"`) {
		t.Errorf("StageEvent JSON = %s, %v; want the op rendered as text", out, err)
	}
	if got := (Op{Fmt: "delta.scan(%[1]s, %[3]d qualifying)", A: "t", N: 7}).String(); got != "delta.scan(t, 7 qualifying)" {
		t.Errorf("Op.String() = %q", got)
	}
}
