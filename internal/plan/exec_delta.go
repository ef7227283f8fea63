package plan

import (
	"slices"
	"sort"

	"repro/internal/obs"
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
// appended since the last merge (selectClassic), with the columns of need
// bound to be read at its survivors (materialize): the delta's segment, none
// (a nil set) when it holds no rows. Both scan strategies run it — the A&R
// one before its ship, so the phase-A answer includes the delta exactly —
// because the delta is never decomposed: the paper's operators apply to the
// base segment only. A scan that fails releases its set.
//
// It is billed once, as the row store a delta is: one sequential pass over
// the whole visible rows evaluating every predicate, the qualifying values
// written, and the dimension gathers of joined rows — not the columns the
// host reads (DESIGN.md §7).
func (pl pipeline) scanDelta(st *pipeState, need []ColRef) (segment, error) {
	fact := pl.snap.fact
	if fact.DeltaLen() == 0 {
		return segment{}, nil
	}
	if err := st.step(StageDelta); err != nil {
		return segment{}, err
	}
	pl.delta = true
	sel, keys, err := pl.selectClassic(st)
	if err != nil {
		return segment{}, err
	}
	binds, err := pl.materialize(st, sel, keys, need)
	if err != nil {
		sel.Release()
		return segment{}, err
	}
	preds, facts, dims := len(pl.factFilters), 0, 0
	for _, g := range pl.orGroups {
		preds += len(g.filters)
	}
	for _, js := range pl.joins {
		dims += len(js.dimFilters)
	}
	for _, ref := range need {
		if ref.IsDim() {
			dims++
		} else {
			facts++
		}
	}
	n := int64(sel.Len())
	st.m.CPUWork(st.pp.NThreads(), fact.DeltaBytes()+n*8*int64(facts), n*8*int64(dims), int64(fact.DeltaLen())*int64(1+preds))
	st.emit(sel.Len(), -1, obs.Op{Fmt: opDeltaScan, A: pl.q.Table, N: n})
	return segment{set: sel, binds: binds}, nil
}
