package plan

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/stats"
)

// Cost-based classic-vs-A&R choice. The session's \mode knob used to be
// the only thing deciding which executor ran; auto mode now prices both
// strategies against the statistics provider and the simulator's bandwidth
// model, so \mode ar / \mode classic are demoted to forced overrides.
//
// The model prices what actually differs between the executors. Classic
// pays a full-column CPU scan for the first predicate and then
// candidate-sized random-access passes for every further predicate, join
// probe and projection gather. A&R runs all predicate and FK-position
// passes on the device over the packed approximation planes, ships the
// surviving candidates across the bus once (§III-B: "one ship"), and
// refines only those candidates on the CPU. Both executors scan the
// row-major delta identically, so it cancels out of the comparison.

// ModeChoice is the optimizer's per-query scan-strategy decision. The
// rationale is kept as a format and its figures: pricing formats nothing,
// Reason does when someone asks.
type ModeChoice struct {
	Classic       bool
	EstCandidates int64 // estimated phase-A candidate rows; -1 when unknown
	why           string
	figures       []any
}

// Reason is the one-line costing rationale for \explain and logs; empty for
// a forced mode, where nothing was priced.
func (m ModeChoice) Reason() string { return fmt.Sprintf(m.why, m.figures...) }

func (m ModeChoice) String() string {
	mode := "a&r"
	if m.Classic {
		mode = "classic"
	}
	return fmt.Sprintf("%s (%s)", mode, m.Reason())
}

// estFactFrac multiplies the fact-side predicate selectivities from the
// statistics provider: the estimated fraction of live base rows surviving
// phase A.
func estFactFrac(snap *execSnap, q *Query) float64 {
	frac := 1.0
	for _, f := range q.Filters {
		if s, src := estimateSelectivity(snap.get("", f.Col), f); src != estNone {
			frac *= s
		}
	}
	for _, g := range q.Or {
		s, _ := estimateOrSelectivity(snap, g)
		frac *= s
	}
	return frac
}

// chooseSnap prices both executors for one pinned leg that can run A&R.
func chooseSnap(sys *device.System, q *Query, snap *execSnap) ModeChoice {
	baseLive := float64(snap.fact.LiveBase())
	if baseLive == 0 {
		return ModeChoice{Classic: true, EstCandidates: 0, why: "empty base segment: nothing is device resident"}
	}
	frac := estFactFrac(snap, q)
	cand := frac * baseLive
	est := int64(cand + 0.5)

	// Bandwidths from the simulated system; fall back to the paper's
	// shape (GPU ≫ CPU ≫ bus) if no system is attached.
	cpuBW, gpuBW, busBW := 38.4e9, 192.3e9, 3.95e9
	randomPenalty := 4.0
	if sys != nil {
		cpuBW, gpuBW, busBW = sys.CPU.AggregateBW, sys.GPU.ScanBW, sys.Bus.BW
		if sys.CPU.RandomPenalty > 0 {
			randomPenalty = sys.CPU.RandomPenalty
		}
	}

	// Per-row column touches after the first pass: remaining predicates,
	// FK probes, and projection/grouping gathers.
	nPred := len(q.Filters) + len(q.Or)
	for _, j := range q.Joins {
		nPred += len(j.DimFilters)
	}
	nProj := len(q.GroupBy)
	for _, a := range q.Aggs {
		if a.Expr != nil {
			nProj += len(a.Expr.Cols())
		}
	}
	const rowB = 8.0

	// Device bytes: every fact predicate and FK-position pass scans a
	// packed approximation plane GPU-side.
	var devBytes float64
	addDev := func(col string) {
		if d := snap.get("", col); d != nil {
			devBytes += float64(d.GPUBytes())
		}
	}
	for _, f := range q.Filters {
		addDev(f.Col)
	}
	for _, g := range q.Or {
		for _, f := range g {
			addDev(f.Col)
		}
	}
	for _, j := range q.Joins {
		addDev(j.FKCol)
	}
	if devBytes == 0 {
		// Full-table anchor scan (grouping / aggregate-only queries).
		if col, ok := q.anchorColumn(); ok {
			addDev(col)
		}
	}

	// Rows crossing the bus: the candidate set, unless device pre-grouping
	// collapses the ship to per-group partials (grouped query, no delta,
	// a key the grouping table holds).
	shipRows := cand
	if cols := snap.devGroupCols(q); cols != nil {
		groupCap := 4096.0
		if d := stats.FromColumn(cols[0]); d != nil {
			if n := d.Distinct(); n >= 0 {
				groupCap = float64(n)
			}
		}
		if groupCap < shipRows {
			shipRows = groupCap
		}
	}

	nRefine := len(q.Filters) + len(q.Or)
	arSec := devBytes/gpuBW +
		shipRows*rowB*float64(1+nProj)/busBW +
		cand*rowB*float64(nRefine)*randomPenalty/cpuBW
	classicSec := baseLive*rowB/cpuBW +
		cand*rowB*float64(nPred+len(q.Joins)+nProj)*randomPenalty/cpuBW

	return ModeChoice{Classic: arSec >= classicSec, EstCandidates: est,
		why:     "est %d of %d base rows ship; a&r %.3gs vs classic %.3gs",
		figures: []any{est, int64(baseLive), arSec, classicSec}}
}
