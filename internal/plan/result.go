package plan

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/ar"
	"repro/internal/device"
	"repro/internal/obs"
)

// Row is one output row: the grouping key values (empty for global
// aggregation) and one value per aggregate.
type Row struct {
	Keys []int64
	Vals []int64
}

// ApproxAnswer is the phase-A result: after the approximation subplan has
// run on the device — and before any refinement work — the system can
// report strict bounds on the query answer "without wasting resources"
// (§III item 4).
type ApproxAnswer struct {
	Count ar.Interval   // bounds on the number of qualifying tuples
	Aggs  []ar.Interval // bounds per aggregate, over all groups
}

// Result is the outcome of executing a query.
type Result struct {
	Rows   []Row
	Approx ApproxAnswer
	// Meter holds the simulated device-time breakdown (GPU/CPU/PCI).
	Meter *device.Meter
	// Candidates and Refined are the candidate-set sizes before and after
	// refinement; their difference is the false-positive count.
	Candidates int
	Refined    int
	// InputBytes is the footprint of every input column the query reads —
	// the quantity a streaming GPU system would have to push through the
	// bus (the paper's "Stream (Hypothetical)" baseline).
	InputBytes int64
	// Note is the outcome line of a statement that returns no rows (DML,
	// bwdecompose); it stands in for the plan listing.
	Note string
	// ops is the executed physical plan (Fig 7) as operator records, in
	// listing order; Plan renders it.
	ops []planLine
	// Trace is the per-operator telemetry record, present only when
	// ExecOpts.Trace was set. Tracing reads the meter and the clock; it
	// never charges the meter, so Rows, Approx, Meter, Candidates and
	// Refined are bit-identical with and without it.
	Trace *obs.Trace
}

// planLine is one line of a plan listing: the operator record and how deep
// it sits (a scatter leg's operators list under their partition line).
type planLine struct {
	op     obs.Op
	indent uint8
}

// Plan renders the MAL-style physical plan listing (Fig 7). Executions
// record fixed-size operator records; the text exists only once read.
func (r *Result) Plan() []string {
	if r.Note != "" {
		return []string{r.Note}
	}
	out := make([]string, len(r.ops))
	for i, l := range r.ops {
		out[i] = strings.Repeat(" ", int(l.indent)) + l.op.String()
	}
	return out
}

// PlanOnly strips the result down to its plan listing and meter — what an
// EXPLAIN statement returns.
func (r *Result) PlanOnly() *Result { return &Result{Meter: r.Meter, ops: r.ops} }

// StreamHypothetical returns the paper's streaming-baseline time for this
// query's input.
func (r *Result) StreamHypothetical() float64 {
	return r.Meter.StreamHypothetical(r.InputBytes).Seconds()
}

// sortRows orders rows by their key tuples for deterministic output.
func sortRows(rows []Row) {
	slices.SortFunc(rows, func(a, b Row) int { return slices.Compare(a.Keys, b.Keys) })
}

// AppendText appends the row as fmt's %v prints it — "[k1 k2] -> [v1 v2]",
// or just the values of an ungrouped row — without going through fmt.
func (r Row) AppendText(dst []byte) []byte {
	ints := func(vs []int64) {
		dst = append(dst, '[')
		for i, v := range vs {
			if i > 0 {
				dst = append(dst, ' ')
			}
			dst = strconv.AppendInt(dst, v, 10)
		}
		dst = append(dst, ']')
	}
	if len(r.Keys) > 0 {
		ints(r.Keys)
		dst = append(dst, " -> "...)
	}
	ints(r.Vals)
	return dst
}

// FormatRows renders rows for diagnostics and examples.
func FormatRows(rows []Row) string {
	var out []byte
	for _, r := range rows {
		out = append(r.AppendText(out), '\n')
	}
	return string(out)
}

// EqualResults reports whether two result row sets are identical (used by
// tests asserting A&R == classic).
func EqualResults(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Keys) != len(b[i].Keys) || len(a[i].Vals) != len(b[i].Vals) {
			return false
		}
		for k := range a[i].Keys {
			if a[i].Keys[k] != b[i].Keys[k] {
				return false
			}
		}
		for k := range a[i].Vals {
			if a[i].Vals[k] != b[i].Vals[k] {
				return false
			}
		}
	}
	return true
}
