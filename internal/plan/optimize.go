package plan

import (
	"fmt"
	"math"

	"repro/internal/bwd"
	"repro/internal/stats"
	"repro/internal/store"
)

// estSource tags where a selectivity estimate came from, replacing the old
// -1.0 "unknown" sentinel. Sources are ordered weakest-first so a combined
// estimate (OR group, join chain) carries the weakest source it used.
type estSource uint8

const (
	estNone      estSource = iota // no statistics: column not decomposed
	estRowCount                   // textbook default scaled by row counts
	estDomain                     // relaxed code span over the code domain
	estHistogram                  // BWD bucket-occupancy histogram mass
)

// weakest combines two estimate sources, keeping the less trustworthy one.
func weakest(a, b estSource) estSource {
	if b < a {
		return b
	}
	return a
}

// rankedFilter is a filter with the selectivity estimate that ordered it —
// the pipeline keeps the estimate and its source so \explain can show why
// the optimizer chose this order (and when it was guessing).
type rankedFilter struct {
	f   Filter
	sel float64
	src estSource
}

// estSel returns the selectivity for cardinality folding, or -1 when the
// filter has no estimate at all (estApply treats -1 as unknown).
func (rf rankedFilter) estSel() float64 {
	if rf.src == estNone {
		return -1
	}
	return rf.sel
}

// rankFilters wraps the filters of one table (dim "" is the fact table) with
// their selectivity estimates, in the written order. Undecomposed columns
// are tagged estNone so the explain surface prints `est=n/a (no stats)`
// instead of a magic number.
func rankFilters(snap *execSnap, dim string, filters []Filter) []rankedFilter {
	rs := make([]rankedFilter, 0, len(filters))
	for _, f := range filters {
		sel, src := estimateSelectivity(snap.get(dim, f.Col), f)
		rs = append(rs, rankedFilter{f, sel, src})
	}
	return rs
}

// estimateSelectivity estimates the fraction of rows admitted by the
// relaxed predicate: the occupancy-histogram mass of the relaxed code
// range when the decomposition carries one (it knows where the data
// actually sits, so skew cannot fool the ordering), else the code-domain
// fraction as before.
func estimateSelectivity(d *bwd.Column, f Filter) (float64, estSource) {
	if d == nil {
		return 0, estNone
	}
	r := d.Relax(f.Lo, f.Hi)
	h := stats.FromColumn(d)
	switch {
	case r.Empty:
		if h != nil {
			return 0, estHistogram
		}
		return 0, estDomain
	case r.Full:
		if h != nil {
			return 1, estHistogram
		}
		return 1, estDomain
	case h != nil:
		return h.CodeFraction(r.Lo, r.Hi), estHistogram
	default:
		span := float64(d.Dec.MaxApprox()) + 1
		return float64(r.Hi-r.Lo+1) / span, estDomain
	}
}

// defaultFilterSel is the fallback when a column has no decomposition to
// estimate from: textbook defaults scaled by the snapshot's row-count
// statistics — an equality predicate admits about one in sqrt(n) rows
// (distinct count unknown), a bounded range a quarter, a half-open range a
// third of them.
func defaultFilterSel(snap *store.Snapshot, f Filter) float64 {
	rows := float64(snap.Len())
	if rows <= 0 {
		return 0
	}
	switch {
	case f.Lo == NoLo && f.Hi == NoHi:
		return 1
	case f.Lo == f.Hi:
		return 1 / math.Sqrt(rows)
	case f.Lo != NoLo && f.Hi != NoHi:
		return 0.25
	default:
		return 1.0 / 3
	}
}

// estimateOrSelectivity bounds the selectivity of a disjunction group: the
// union of the disjuncts admits at most the sum of their fractions. A
// disjunct whose column lacks a decomposition no longer collapses the
// whole group to 1.0 — it contributes a row-count default instead, and the
// group's estimate is tagged with the weakest source used.
func estimateOrSelectivity(snap *execSnap, group []Filter) (float64, estSource) {
	src := estHistogram
	var sum float64
	for _, f := range group {
		d := snap.get("", f.Col)
		if d == nil {
			sum += defaultFilterSel(snap.fact, f)
			src = weakest(src, estRowCount)
			continue
		}
		s, fsrc := estimateSelectivity(d, f)
		sum += s
		src = weakest(src, fsrc)
	}
	if sum > 1 {
		sum = 1
	}
	return sum, src
}

// estimateJoinSel estimates the fraction of fact candidates surviving a
// join stage: the product of the dimension filters' selectivities, damped
// by the dimension's live fraction (an FK probe hitting a deleted
// dimension row drops the fact row).
func estimateJoinSel(snap *execSnap, j JoinSpec) (float64, estSource) {
	ds := snap.snapFor(j.Dim)
	src := estHistogram
	sel := 1.0
	if bl := ds.BaseLen(); bl > 0 {
		sel = float64(ds.LiveBase()) / float64(bl)
	}
	for _, f := range j.DimFilters {
		d := snap.get(j.Dim, f.Col)
		if d == nil {
			sel *= defaultFilterSel(ds, f)
			src = weakest(src, estRowCount)
			continue
		}
		s, fsrc := estimateSelectivity(d, f)
		sel *= s
		src = weakest(src, fsrc)
	}
	return sel, src
}

// checkShape validates the parts of the query that are independent of the
// executor: aggregate shapes, HAVING indexes, ORDER BY indexes, hidden
// aggregate placement, and the LIMIT value.
func (q *Query) checkShape() error {
	seenHidden := false
	for _, a := range q.Aggs {
		if a.Hidden {
			seenHidden = true
		} else if seenHidden {
			return fmt.Errorf("plan: hidden aggregates must follow every visible aggregate")
		}
		if a.Func < Sum || a.Func > Avg {
			return fmt.Errorf("plan: unsupported aggregate %v", a.Func)
		}
		if a.Expr == nil && a.Func != Count {
			return fmt.Errorf("plan: aggregate %s needs an expression", a.Func)
		}
	}
	for _, h := range q.Having {
		if h.Agg < 0 || h.Agg >= len(q.Aggs) {
			return fmt.Errorf("plan: HAVING references aggregate %d of %d", h.Agg, len(q.Aggs))
		}
	}
	for _, k := range q.OrderBy {
		if k.Key {
			if k.Index < 0 || k.Index >= len(q.GroupBy) {
				return fmt.Errorf("plan: ORDER BY references group key %d of %d", k.Index, len(q.GroupBy))
			}
		} else if k.Index < 0 || k.Index >= len(q.Aggs) {
			return fmt.Errorf("plan: ORDER BY references aggregate %d of %d", k.Index, len(q.Aggs))
		}
	}
	if q.Limit < 0 {
		return fmt.Errorf("plan: negative LIMIT %d", q.Limit)
	}
	for _, group := range q.Or {
		if len(group) == 0 {
			return fmt.Errorf("plan: empty OR group")
		}
	}
	if len(q.Filters) == 0 && len(q.Or) == 0 && len(q.GroupBy) == 0 && len(q.Aggs) == 0 {
		return fmt.Errorf("plan: empty query")
	}
	return nil
}

// walkCols visits every column reference of the query in a fixed order:
// fact filters, OR groups, grouping keys, each join's FK and dimension
// filters, then aggregate expression references.
func (q *Query) walkCols(visit func(ref ColRef) error) error {
	for _, f := range q.Filters {
		if err := visit(ColRef{Name: f.Col}); err != nil {
			return err
		}
	}
	for _, group := range q.Or {
		for _, f := range group {
			if err := visit(ColRef{Name: f.Col}); err != nil {
				return err
			}
		}
	}
	for _, g := range q.GroupBy {
		if err := visit(ColRef{Name: g}); err != nil {
			return err
		}
	}
	for _, j := range q.Joins {
		if err := visit(ColRef{Name: j.FKCol}); err != nil {
			return err
		}
		for _, f := range j.DimFilters {
			if err := visit(ColRef{Name: f.Col, Dim: j.Dim}); err != nil {
				return err
			}
		}
	}
	for _, a := range q.Aggs {
		if a.Expr == nil {
			continue
		}
		for _, ref := range a.Expr.Cols() {
			if err := visit(ref); err != nil {
				return err
			}
		}
	}
	return nil
}

// joinsDim returns the position of the join into the named dimension table
// in the query's join list, or -1.
func (q *Query) joinsDim(dim string) int {
	for i, j := range q.Joins {
		if j.Dim == dim {
			return i
		}
	}
	return -1
}

// anchorColumn picks the column whose approximation the full-table scan
// uses when the query has no fact-side filters: a grouping key, a
// fact-side aggregate input, or — for dimension-only workloads — the
// first join's foreign-key column (always decomposed for an A&R join).
func (q *Query) anchorColumn() (string, bool) {
	if len(q.GroupBy) > 0 {
		return q.GroupBy[0], true
	}
	for _, a := range q.Aggs {
		if a.Expr == nil {
			continue
		}
		for _, ref := range a.Expr.Cols() {
			if !ref.IsDim() {
				return ref.Name, true
			}
		}
	}
	if len(q.Joins) > 0 {
		return q.Joins[0].FKCol, true
	}
	return "", false
}
