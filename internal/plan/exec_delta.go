package plan

import (
	"slices"
	"sort"

	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/par"
	"repro/internal/store"
)

// deltaSet is the delta segment's contribution to a query: the values of
// every referenced column for the live delta rows that satisfy all
// predicates (fact-side filters and disjunctions, the FK join chain,
// dimension-side filters). Both scan strategies use this one source — the
// delta lives in host memory and is never decomposed, so the A&R pipeline
// too reads it with one classic row-major pass and the shared tail merges
// the result (the paper's operators apply to the base segment only).
type deltaSet struct {
	n    int
	vals map[ColRef][]int64
}

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
// dimensions, each alphabetical: the order the classic and delta scans and
// the gather materialize them, so listings have one order.
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

// deltaJoin is the per-join state of a delta scan: the fact-side FK
// column index, the join's key, and the dimension filter columns.
type deltaJoin struct {
	spec       JoinSpec
	fkIdx      int
	key        bwd.Key
	filterCols [][]int64
}

// scanDelta evaluates the query's predicates over the live delta rows of
// the fact snapshot and materializes the needed column values; a joined
// row's dimension position is its key's (execSnap.joinKey), as in the base.
// Returns nil when the snapshot has no delta rows.
//
// The scan is morsel-parallel over the store's delta-segment granules
// (store.Snapshot.DeltaMorsels): each worker evaluates its morsels into a
// private partial, and partials concatenate in morsel order, so the output
// row order is identical to the serial row-major pass for every worker
// count.
//
// The cost charged is one sequential row-major pass over the visible delta
// (a row store reads whole rows) plus the dimension gathers for joined
// references.
func scanDelta(m *device.Meter, pp par.P, q *Query, snap *execSnap, need []ColRef) (*deltaSet, error) {
	fs := snap.fact
	if fs.DeltaLen() == 0 {
		return nil, nil
	}
	ft := fs.Table()
	filterIdx := make([]int, len(q.Filters))
	for k, f := range q.Filters {
		i, err := ft.ColIndex(f.Col)
		if err != nil {
			return nil, err
		}
		filterIdx[k] = i
	}
	orIdx := make([][]int, len(q.Or))
	for gi, group := range q.Or {
		orIdx[gi] = make([]int, len(group))
		for k, f := range group {
			i, err := ft.ColIndex(f.Col)
			if err != nil {
				return nil, err
			}
			orIdx[gi][k] = i
		}
	}
	type factRef struct {
		ref ColRef
		idx int
	}
	type dimRef struct {
		ref  ColRef
		join int // index into joins
		col  []int64
	}
	joins := make([]deltaJoin, len(q.Joins))
	var nDimFilterCols int
	for ji, spec := range q.Joins {
		i, err := ft.ColIndex(spec.FKCol)
		if err != nil {
			return nil, err
		}
		joins[ji] = deltaJoin{spec: spec, fkIdx: i, key: snap.joinKey(spec, nil, nil)}
		for _, f := range spec.DimFilters {
			db, err := snap.dims[ji].Column(f.Col)
			if err != nil {
				return nil, err
			}
			joins[ji].filterCols = append(joins[ji].filterCols, db.Tails())
			nDimFilterCols++
		}
	}
	var factRefs []factRef
	var dimRefs []dimRef
	for _, ref := range need {
		if ref.IsDim() {
			ji := q.joinsDim(ref.Dim)
			db, err := snap.dims[ji].Column(ref.Name)
			if err != nil {
				return nil, err
			}
			dimRefs = append(dimRefs, dimRef{ref: ref, join: ji, col: db.Tails()})
		} else {
			i, err := ft.ColIndex(ref.Name)
			if err != nil {
				return nil, err
			}
			factRefs = append(factRefs, factRef{ref: ref, idx: i})
		}
	}

	// One partial per delta morsel; the morsel boundaries come from the
	// store, so they respect the segment edge and the deletion bitmap's
	// word alignment.
	morsels := fs.DeltaMorsels(pp.ChunkSize())
	type deltaPart struct {
		n          int
		factVals   [][]int64
		dimVals    [][]int64
		dimGathers int64
	}
	parts := make([]deltaPart, len(morsels))
	scanMorsel := func(mi int, mo store.Morsel) {
		pt := &parts[mi]
		pt.factVals = make([][]int64, len(factRefs))
		pt.dimVals = make([][]int64, len(dimRefs))
		dimPos := make([]int, len(joins))
	rows:
		for j := mo.Lo; j < mo.Hi; j++ {
			if fs.DeltaDeleted(j) {
				continue
			}
			for k, f := range q.Filters {
				if v := fs.DeltaValue(j, filterIdx[k]); v < f.Lo || v > f.Hi {
					continue rows
				}
			}
			for gi, group := range q.Or {
				match := false
				for k, f := range group {
					if v := fs.DeltaValue(j, orIdx[gi][k]); v >= f.Lo && v <= f.Hi {
						match = true
						break
					}
				}
				if !match {
					continue rows
				}
			}
			for ji := range joins {
				dj := &joins[ji]
				pos, ok := dj.key.Pos(fs.DeltaValue(j, dj.fkIdx))
				if !ok || snap.dims[ji].BaseDeleted(pos) {
					continue rows
				}
				for k, f := range dj.spec.DimFilters {
					if v := dj.filterCols[k][pos]; v < f.Lo || v > f.Hi {
						continue rows
					}
				}
				dimPos[ji] = pos
			}
			if len(joins) > 0 {
				pt.dimGathers++
			}
			for k, ref := range factRefs {
				pt.factVals[k] = append(pt.factVals[k], fs.DeltaValue(j, ref.idx))
			}
			for k, ref := range dimRefs {
				pt.dimVals[k] = append(pt.dimVals[k], ref.col[dimPos[ref.join]])
			}
			pt.n++
		}
	}
	// A cancellation mid-scan leaves unscanned morsels' partials nil;
	// surface the context error instead of merging incomplete parts.
	if err := par.ForEach(pp, len(morsels), func(mi int) { scanMorsel(mi, morsels[mi]) }); err != nil {
		return nil, err
	}

	// Merge partials in morsel order: identical to the serial row order.
	out := &deltaSet{vals: map[ColRef][]int64{}}
	var dimGathers int64
	for _, pt := range parts {
		out.n += pt.n
		dimGathers += pt.dimGathers
	}
	for k, ref := range factRefs {
		vals := make([]int64, 0, out.n)
		for pi := range parts {
			vals = append(vals, parts[pi].factVals[k]...)
		}
		out.vals[ref.ref] = vals
	}
	for k, ref := range dimRefs {
		vals := make([]int64, 0, out.n)
		for pi := range parts {
			vals = append(vals, parts[pi].dimVals[k]...)
		}
		out.vals[ref.ref] = vals
	}
	if m != nil {
		nPreds := len(q.Filters)
		for _, group := range q.Or {
			nPreds += len(group)
		}
		ops := int64(fs.DeltaLen()) * int64(1+nPreds)
		var gatherBytes int64
		if dimGathers > 0 {
			gatherBytes = dimGathers * 8 * int64(len(dimRefs)+nDimFilterCols)
		}
		m.CPUWork(pp.NThreads(), fs.DeltaBytes()+int64(out.n)*8*int64(len(factRefs)), gatherBytes, ops)
	}
	return out, nil
}

// appendDelta folds the delta values into the exact-value context so the
// shared aggregation path sees one combined tuple set.
func (ctx *exprCtx) appendDelta(d *deltaSet) {
	if d == nil {
		return
	}
	for ref, vals := range d.vals {
		ctx.vals[ref] = append(ctx.vals[ref], vals...)
	}
	ctx.n += d.n
}
