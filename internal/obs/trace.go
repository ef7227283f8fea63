// Package obs is the engine's observability substrate: per-query stage
// traces, a lock-cheap metrics registry with Prometheus text exposition,
// and a ring-buffer slow-query log.
//
// The package sits below every execution layer (it depends only on the
// standard library), so plan, engine, server and the commands can all
// publish into it without import cycles. Everything here is designed
// around one invariant: telemetry must never perturb the measurement.
// Tracing reads the simulated meter, it never charges it, so a traced
// execution returns bit-identical results and meters to an untraced one;
// counters are single atomic adds so the hot path stays lock-free.
package obs

import (
	"fmt"
	"strings"
	"time"
)

// Op is one operator of a plan listing as a fixed-size record: the executors
// fill one in per operator and nothing is formatted until somebody reads the
// listing (\explain, the slow log, a trace dump). Fmt is a constant format
// naming its arguments by explicit index over (A, B, N, M, K) —
// "delta.scan(%[1]s, %[3]d qualifying)" — so one String serves every
// operator without obs knowing any of them.
type Op struct {
	Fmt     string
	A, B    string
	N, M, K int64
}

// String renders the MAL-style operator text.
func (o Op) String() string { return fmt.Sprintf(o.Fmt, o.A, o.B, o.N, o.M, o.K) }

// MarshalText makes an Op serialize as its text (the trace's "op" field).
func (o Op) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// StageEvent is one operator of an executed pipeline: the cooperative
// checkpoint class it ran under, the operator record, the rows (or
// candidates) it emitted against the optimizer's estimate, and the
// wall-clock and simulated-meter slice attributable to it.
type StageEvent struct {
	// Stage is the checkpoint class (approximate, ship, delta, refine,
	// aggregate, bulk) the operator ran under.
	Stage string `json:"stage"`
	// Op is the operator record; it renders to the MAL-style text of the
	// plan listing.
	Op Op `json:"op"`
	// Rows is the operator's output cardinality — candidate-list length
	// for scans, group count for grouping, result rows for the tail.
	// -1 when the operator has no meaningful cardinality.
	Rows int64 `json:"rows"`
	// Est is the optimizer's estimated output cardinality (-1 unknown).
	// Filters carry the selectivity-model estimate, so Est vs Rows is the
	// estimated-vs-actual comparison \explain analyze renders.
	Est int64 `json:"est"`
	// Morsels is the number of parallel granules the operator's output
	// spans at the execution's morsel size (0 when unknown).
	Morsels int64 `json:"morsels"`
	// Wall is the real time between this operator's completion and the
	// previous one's.
	Wall time.Duration `json:"wall_ns"`
	// GPU, CPU, PCI are the simulated meter charges accumulated since the
	// previous operator — the per-stage device split.
	GPU time.Duration `json:"gpu_ns"`
	CPU time.Duration `json:"cpu_ns"`
	PCI time.Duration `json:"pci_ns"`
}

// Trace is the telemetry record of one query execution. It is owned by a
// single execution goroutine while being built (no locking) and read-only
// once the execution returns it.
type Trace struct {
	// Query is the statement text (set by the engine; the plan layer does
	// not see SQL).
	Query string `json:"query,omitempty"`
	// Mode is the scan strategy that ran: "ar" or "classic".
	Mode string `json:"mode"`
	// Threads is the billed thread count, Workers the real worker budget.
	Threads int `json:"threads"`
	Workers int `json:"workers"`
	// Start is when execution began; Wall the total wall-clock duration.
	Start time.Time     `json:"start"`
	Wall  time.Duration `json:"wall_ns"`
	// Events are the per-operator spans in execution order.
	Events []StageEvent `json:"events"`
	// Candidates and Refined are the candidate-list sizes after phase A
	// and after phase R — their difference is the approximation's
	// false-positive count.
	Candidates int64 `json:"candidates"`
	Refined    int64 `json:"refined"`
	// EstCandidates is the planner's candidate-set estimate for the whole
	// selection chain (-1 when any link lacked statistics). The funnel
	// footer compares it against Candidates to expose estimation error.
	EstCandidates int64 `json:"est_candidates"`
	// Rows is the number of result rows returned.
	Rows int64 `json:"rows"`
}

// Add appends one stage event.
func (t *Trace) Add(ev StageEvent) { t.Events = append(t.Events, ev) }

// FalsePositiveRate is the fraction of phase-A candidates discharged by
// refinement (0 when there were no candidates).
func (t *Trace) FalsePositiveRate() float64 {
	if t.Candidates == 0 {
		return 0
	}
	return float64(t.Candidates-t.Refined) / float64(t.Candidates)
}

// SimTotal sums the simulated meter slices over all events.
func (t *Trace) SimTotal() (gpu, cpu, pci time.Duration) {
	for _, ev := range t.Events {
		gpu += ev.GPU
		cpu += ev.CPU
		pci += ev.PCI
	}
	return gpu, cpu, pci
}

// Render formats the trace as display lines: a header with the mode and
// totals, one line per operator with est-vs-actual rows and the per-stage
// wall/GPU/CPU/PCI split, and the candidate-funnel footer.
func (t *Trace) Render() []string {
	gpu, cpu, pci := t.SimTotal()
	out := []string{fmt.Sprintf("trace: mode=%s threads=%d workers=%d wall=%s sim=%s (GPU %s, CPU %s, PCI %s)",
		t.Mode, t.Threads, t.Workers, round(t.Wall), round(gpu+cpu+pci), round(gpu), round(cpu), round(pci))}
	for _, ev := range t.Events {
		var sb strings.Builder
		fmt.Fprintf(&sb, "  [%-11s] %-46s", ev.Stage, ev.Op)
		switch {
		case ev.Est >= 0 && ev.Rows >= 0:
			fmt.Fprintf(&sb, " est=%d act=%d", ev.Est, ev.Rows)
		case ev.Rows >= 0:
			fmt.Fprintf(&sb, " rows %d", ev.Rows)
		}
		if ev.Morsels > 0 {
			fmt.Fprintf(&sb, " morsels %d", ev.Morsels)
		}
		fmt.Fprintf(&sb, " | wall %s gpu %s cpu %s pci %s",
			round(ev.Wall), round(ev.GPU), round(ev.CPU), round(ev.PCI))
		out = append(out, sb.String())
	}
	funnel := fmt.Sprintf("  candidates %d -> refined %d (false-positive rate %.2f%%), %d result rows",
		t.Candidates, t.Refined, t.FalsePositiveRate()*100, t.Rows)
	if t.EstCandidates >= 0 {
		funnel += fmt.Sprintf("; est candidates %d (error %.1fx)", t.EstCandidates, t.EstError())
	}
	out = append(out, funnel)
	return out
}

// EstError is the candidate-estimation error factor: max(est, actual) over
// max(min(est, actual), 1), so a perfect estimate reads 1.0x whether the
// model over- or under-shot. 0 when no estimate was recorded.
func (t *Trace) EstError() float64 {
	if t.EstCandidates < 0 {
		return 0
	}
	hi, lo := t.EstCandidates, t.Candidates
	if hi < lo {
		hi, lo = lo, hi
	}
	if lo < 1 {
		lo = 1
	}
	return float64(hi) / float64(lo)
}

// round trims a duration for display (microsecond grain above 1ms, full
// precision below — simulated charges are often sub-microsecond).
func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(time.Microsecond)
	default:
		return d
	}
}
