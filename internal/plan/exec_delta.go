package plan

import (
	"slices"
	"sort"

	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/par"
)

// tailCols lists every column whose exact values the aggregation phase
// needs: aggregate expression references plus (withKeys) the grouping
// columns, in order of first mention — the order the A&R scan projects them.
func tailCols(q *Query, withKeys bool) []ColRef {
	var refs []ColRef
	for _, a := range q.Aggs {
		if a.Expr == nil {
			continue
		}
		for _, ref := range a.Expr.Cols() {
			if !slices.Contains(refs, ref) {
				refs = append(refs, ref)
			}
		}
	}
	if withKeys {
		for _, g := range q.GroupBy {
			if ref := (ColRef{Name: g}); !slices.Contains(refs, ref) {
				refs = append(refs, ref)
			}
		}
	}
	return refs
}

// sortedRefs returns a copy of refs with fact columns first, then
// dimensions, each alphabetical: the order the classic scan materializes
// them in either segment, so listings have one order.
func sortedRefs(refs []ColRef) []ColRef {
	refs = slices.Clone(refs)
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Dim != refs[j].Dim {
			return refs[i].Dim < refs[j].Dim
		}
		return refs[i].Name < refs[j].Name
	})
	return refs
}

// scanDelta is the classic selection over the leg's delta segment, the rows
// appended since the last merge (walk, phaseDelta), with the columns of need
// bound to be read at its survivors (materialize): the delta's segment, none
// (a nil set) when it holds no rows; its survivors count as candidates, and
// refined ones. Both scan strategies run it — the A&R one before its ship, so
// the phase-A answer includes the delta exactly — because the delta is never
// decomposed: the paper's operators apply to the base segment only. A scan
// that fails releases its set. It is billed once, by chargeDelta.
func (pl pipeline) scanDelta(st *pipeState, need []ColRef) (segment, error) {
	if pl.snap.fact.DeltaLen() == 0 {
		return segment{}, nil
	}
	keys := make([]bwd.Key, len(pl.q.Joins))
	sel, err := pl.walk(st, phaseDelta, nil, keys)
	if err != nil {
		return segment{}, err
	}
	binds, err := pl.materialize(st, phaseDelta, sel, keys, need)
	if err != nil {
		sel.Release()
		return segment{}, err
	}
	st.res.Candidates += sel.Len()
	st.res.Refined += sel.Len()
	pl.chargeDelta(st.m, st.pp, need, sel.Len())
	st.emit(sel.Len(), -1, obs.Op{Fmt: opDeltaScan, A: pl.q.Table, N: int64(sel.Len())})
	return segment{set: sel, binds: binds}, nil
}

// chargeDelta bills the delta scan that kept n rows and read the columns of
// need at them once, as the row store a delta is: one sequential pass over the
// whole visible rows evaluating every predicate, the qualifying values
// written, and the dimension gathers of joined rows — not the columns the host
// reads (DESIGN.md §7).
func (pl pipeline) chargeDelta(m *device.Meter, pp par.P, need []ColRef, n int) {
	preds, facts, dims := 0, 0, 0
	for _, op := range pl.ops {
		if op.join < 0 {
			preds += len(op.filters)
		} else {
			dims += len(op.filters)
		}
	}
	for _, ref := range need {
		if ref.IsDim() {
			dims++
		} else {
			facts++
		}
	}
	rows, fact := int64(n), pl.snap.fact
	m.CPUWork(pp.NThreads(), fact.DeltaBytes()+rows*8*int64(facts), rows*8*int64(dims), int64(fact.DeltaLen())*int64(1+preds))
}
