package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a process-wide metrics registry with Prometheus text
// exposition. Counters, gauges and histograms are first-class atomic
// objects — an increment is one atomic add, never a registry lock — while
// func metrics and collectors pull values from existing mutex-guarded
// stats structs only at scrape time, so instrumenting a hot path costs
// nothing when nobody is scraping.
//
// Series identity is (family name, rendered label string). Registering
// the same identity twice returns the existing object, so independent
// subsystems can share a counter without coordination.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	order      []string // family registration order (render is sorted anyway)
	collectors []func(emit Emit)
}

// Emit receives one sample from a collector at scrape time. typ is
// "counter" or "gauge"; labels is the rendered label body without braces
// (`table="trips"`) or empty.
type Emit func(name, labels, help, typ string, value float64)

type family struct {
	name, help, typ string
	series          map[string]sample // keyed by rendered labels
}

type sample interface{ value() float64 }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) register(name, labels, help, typ string, mk func() sample) sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]sample)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if s, ok := f.series[labels]; ok {
		return s
	}
	s := mk()
	f.series[labels] = s
	return s
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ n atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

func (c *Counter) value() float64 { return float64(c.n.Load()) }

// Counter registers (or returns the existing) counter series.
// labels is the rendered label body (`route="ar"`), or "" for none.
func (r *Registry) Counter(name, labels, help string) *Counter {
	return r.register(name, labels, help, "counter", func() sample { return &Counter{} }).(*Counter)
}

type funcSample struct{ fn func() float64 }

func (f funcSample) value() float64 { return f.fn() }

// GaugeFunc registers a gauge whose value is read at scrape time.
func (r *Registry) GaugeFunc(name, labels, help string, fn func() float64) {
	r.register(name, labels, help, "gauge", func() sample { return funcSample{fn} })
}

// CounterFunc registers a counter whose value is read at scrape time —
// for monotonic counts that already live behind another subsystem's lock.
func (r *Registry) CounterFunc(name, labels, help string, fn func() float64) {
	r.register(name, labels, help, "counter", func() sample { return funcSample{fn} })
}

// Collector registers a scrape-time sample source for dynamic series
// (e.g. one gauge per table, where tables appear at runtime).
func (r *Registry) Collector(fn func(emit Emit)) {
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// DefBuckets are the default latency histogram bucket upper bounds, in
// seconds (100µs to 10s, roughly ×2.5 per step).
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with atomic per-bucket counts.
// Observations are exact under concurrency: one atomic add per bucket
// plus one for the sum.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; implicit +Inf last
	counts []atomic.Int64
	sumNs  atomic.Int64 // sum of observations in nanoseconds
	total  atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(h.bounds, s)
	h.counts[i].Add(1)
	h.sumNs.Add(int64(d))
	h.total.Add(1)
}

func (h *Histogram) value() float64 { return float64(h.total.Load()) }

// Histogram registers (or returns the existing) histogram series with the
// given bucket upper bounds (DefBuckets if nil).
func (r *Registry) Histogram(name, labels, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	return r.register(name, labels, help, "histogram", func() sample {
		return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	}).(*Histogram)
}

// WriteText renders the registry in the Prometheus text exposition format
// (version 0.0.4): families sorted by name, one HELP/TYPE header each,
// histogram buckets cumulative with _sum and _count.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	collectors := append([]func(Emit){}, r.collectors...)
	r.mu.Unlock()

	// Collector samples merge into (possibly new) families.
	extra := map[string]*family{}
	for _, c := range collectors {
		c(func(name, labels, help, typ string, value float64) {
			f := extra[name]
			if f == nil {
				f = &family{name: name, help: help, typ: typ, series: map[string]sample{}}
				extra[name] = f
			}
			v := value
			f.series[labels] = funcSample{func() float64 { return v }}
		})
	}
	for _, f := range extra {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			if h, ok := s.(*Histogram); ok {
				writeHistogram(&b, f.name, k, h)
				continue
			}
			fmt.Fprintf(&b, "%s %s\n", seriesName(f.name, k), formatValue(s.value()))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeHistogram(b *strings.Builder, name, labels string, h *Histogram) {
	var cum int64
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s %d\n", seriesName(name+"_bucket", joinLabels(labels, fmt.Sprintf(`le="%s"`, formatValue(ub)))), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s %d\n", seriesName(name+"_bucket", joinLabels(labels, `le="+Inf"`)), cum)
	fmt.Fprintf(b, "%s %s\n", seriesName(name+"_sum", labels), formatValue(float64(h.sumNs.Load())/1e9))
	fmt.Fprintf(b, "%s %d\n", seriesName(name+"_count", labels), h.total.Load())
}

func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// ServeHTTP makes the registry an http.Handler for GET /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WriteText(w)
}

// Text renders the exposition as display lines (the \metrics surface).
func (r *Registry) Text() []string {
	var b strings.Builder
	_ = r.WriteText(&b)
	return strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
}
