// The physical-operator pipeline layer: one executor skeleton that both
// execution models share. A pipeline is assembled from the logical Query
// in two pieces:
//
//   - a scan source per leg of the table (exec_scatter.go) — the A&R
//     bit-sliced base scan (approximate select → ship → refine) or the
//     classic row-major bulk scan — that applies the selections and joins
//     and emits the same product either way: the exact-value tuple stream
//     of the base segment plus the delta segment's contribution (scanned
//     once, by the shared delta source in exec_delta.go). A join is the same
//     thing in all three: key − base through the dimension's FK index
//     (execSnap.joinKey, bwd.Key), which both base scans read their
//     survivor masks through like any conjunct — no list of dimension
//     positions travels beside a candidate set;
//   - the shared downstream operators — grouping, aggregation, HAVING,
//     ORDER BY / LIMIT (top-k) — that run once over the gathered legs,
//     identically for every scan strategy, so classic vs A&R is a
//     scan-strategy choice instead of a separate executor, and
//     base/delta/deletion merging exists in exactly one place.
//
// Assembly is also where the rule-based optimizer lives (§III-A): filters
// are cost-ordered by estimated selectivity — fact-side and, per join,
// dimension-side — and the chosen order is preserved on the pipeline so
// \explain can render it with the estimates.
package plan

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/ar"
	"repro/internal/bulk"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/shard"
	"repro/internal/stats"
)

// legPlan is one leg's assembled physical plan: the scan-strategy choice
// plus the cost-ordered predicate chains and join stages the scan will
// execute. It is the priced, immutable, snapshot-free part of a Plan —
// built once per pricing, run by any number of executions.
type legPlan struct {
	*Plan
	// q is the statement retargeted at the leg's table.
	q       Query
	classic bool

	factFilters []rankedFilter
	orGroups    []orGroupStage
	joins       []joinStage
	// resident: no delta segment and no residual bit in anything the leg
	// reads (execSnap.resident) — run A&R alone, its approximation is exact.
	resident bool
}

// pipeline is a legPlan bound to the snapshots one execution pinned for it.
type pipeline struct {
	*legPlan
	snap *execSnap
}

// devGroupCols decides where a grouped A&R scan groups: it returns the
// grouping columns when the device pre-groups them, to be refined (§IV-E),
// and nil when the host groups over exact tuples. The device pre-groups
// only while no other tuples join this scan's on the host — another leg's
// partial (solo false) or live delta rows force the grouping there, where
// all of them meet — and only a key that fits its grouping table. scanAR
// and describe both ask here, so \explain shows what runs.
func (pl pipeline) devGroupCols(solo bool) []*bwd.Column {
	if pl.classic || !solo {
		return nil
	}
	return pl.snap.devGroupCols(&pl.q)
}

// exactLeg reports whether the leg's approximation is its exact result: an
// A&R scan, the only leg the statement scans, of a table version with no
// delta segment and every bit of every column the statement reads device
// resident — filters, disjuncts, join keys, dimension filters, aggregate
// inputs, and group keys the grouping table holds (legPlan.resident). The
// relaxed ranges are then the predicates and the codes the values (§IV-C,
// §IV-E): no candidate is uncertain, no refinement can drop one, every
// phase-A interval is a point. scanAR, the tail and describe all ask here.
func (pl pipeline) exactLeg(solo bool) bool {
	return !pl.classic && solo && pl.resident
}

// resident is the part of exactLeg that the leg's pinned versions settle,
// decided once where the leg is built and priced.
func (s *execSnap) resident(q *Query) bool {
	if s.fact.DeltaLen() != 0 {
		return false
	}
	for _, d := range s.decs {
		if d == nil || d.Dec.ResBits != 0 {
			return false
		}
	}
	return len(q.GroupBy) == 0 || s.devGroupCols(q) != nil
}

// devGroupCols is the part of the decision one leg's snapshot settles,
// which is all the ship estimate of chooseSnap can know: it prices a leg
// before the statement's leg count is, so it deliberately leaves solo out.
func (s *execSnap) devGroupCols(q *Query) []*bwd.Column {
	if len(q.GroupBy) == 0 || s.fact.LiveDelta() != 0 {
		return nil
	}
	cols := make([]*bwd.Column, len(q.GroupBy))
	for i, g := range q.GroupBy {
		cols[i] = s.get("", g)
	}
	if !ar.GroupKeyFits(cols) {
		return nil
	}
	return cols
}

// orGroupStage is one disjunction operator: the group's predicates, the
// candidate-attachment group id, the selectivity bound (with its estimate
// source) for \explain, and the operator's listing text ("t.a|t.b").
type orGroupStage struct {
	filters []Filter
	id      int
	sel     float64
	src     estSource
	text    string
}

// joinStage is one FK-probe stage of the join chain with its (possibly
// cost-ordered) dimension-side filters. sel estimates the fraction of fact
// candidates surviving the probe itself (the dimension's live fraction);
// the dimension filters carry their own estimates, and key — the whole
// stage's survival fraction — orders the chain. arrow is the probe's listing
// text ("fk -> dim").
type joinStage struct {
	spec       JoinSpec
	dimFilters []rankedFilter
	sel, key   float64
	src        estSource
	arrow      string
}

// buildLeg assembles the pipeline of one leg (table names it) against the
// snapshot it is being priced at: every filter, disjunction and join stage
// with its selectivity estimate, in the written order and marked classic —
// the bulk engine predates the statistics and keeps them only for \explain.
func buildLeg(plan *Plan, table string, snap *execSnap) *legPlan {
	pl := &legPlan{Plan: plan, q: plan.q, classic: true}
	pl.q.Table = table
	q := &pl.q
	pl.resident = snap.resident(q)
	pl.factFilters = rankFilters(snap, "", q.Filters)
	for i, group := range q.Or {
		sel, src := estimateOrSelectivity(snap, group)
		pl.orGroups = append(pl.orGroups, orGroupStage{
			filters: group,
			id:      i + 1,
			sel:     sel,
			src:     src,
			text:    orGroupText(table, group),
		})
	}
	for _, j := range q.Joins {
		st := joinStage{spec: j, sel: 1.0, src: estRowCount, arrow: j.FKCol + " -> " + j.Dim}
		if ds := snap.snapFor(j.Dim); ds.BaseLen() > 0 {
			st.sel = float64(ds.LiveBase()) / float64(ds.BaseLen())
		}
		st.dimFilters = rankFilters(snap, j.Dim, j.DimFilters)
		// The ordering key is the stage's whole survival fraction: probe
		// survival times the dimension filters' combined selectivity.
		st.key, _ = estimateJoinSel(snap, j)
		pl.joins = append(pl.joins, st)
	}
	return pl
}

// costOrder turns the assembly into the A&R one — the optimizer of §III-A
// with real statistics: approximate selections, fact-side and dimension-side
// alike, run in order of estimated selectivity, so the most selective scans
// shrink the candidate set before the more expensive operators run; and the
// join chain is ordered the same way. FK probes are n:1 and order-preserving
// over the fact candidate list, so the result bytes are identical for every
// permutation; only the intermediate cardinalities shrink sooner.
func (pl *legPlan) costOrder() {
	pl.classic = false
	bySel := func(rs []rankedFilter) {
		if len(rs) > 1 {
			sort.SliceStable(rs, func(i, j int) bool { return rs[i].sel < rs[j].sel })
		}
	}
	bySel(pl.factFilters)
	for _, j := range pl.joins {
		bySel(j.dimFilters)
	}
	if len(pl.joins) > 1 {
		sort.SliceStable(pl.joins, func(a, b int) bool { return pl.joins[a].key < pl.joins[b].key })
	}
}

// pipeState is the mutable state of one pipeline execution: the context,
// parallelism descriptor, meter and result under construction, plus — when
// tracing is on — the telemetry record and its per-operator marks.
type pipeState struct {
	ctx  context.Context
	opts ExecOpts
	pp   par.P
	m    *device.Meter
	res  *Result

	// Tracing state (tr nil = off): the checkpoint class the pipeline is
	// currently in, the wall-clock (since the trace began: one monotonic
	// clock read per operator) and meter marks of the previous operator
	// boundary, and the running cardinality estimate the selectivity model
	// predicts at this point of the chain (-1 once unknown). Tracing only
	// ever *reads* the meter — a traced run charges exactly what an
	// untraced one does.
	tr    *obs.Trace
	stage Stage
	mark  time.Duration
	last  device.Meter
	est   float64
	// estCand is the planner's candidate-set estimate captured at the end
	// of the selection chain (-1 when unknown); the trace footer compares
	// it against the actual candidate count to expose estimation error.
	estCand int64

	// gate is set while this leg holds device stream part of it: from
	// leg.scan's admission to leaveDevice.
	gate DeviceGate
	part int
}

// leaveDevice hands the leg's device stream back to the gate it was
// acquired from, if it still holds one: at the ship checkpoint (shipped),
// where the gate may make the statement wait for the CPU its refinement
// needs, or on the way out of a scan that failed before.
func (st *pipeState) leaveDevice(shipped bool) error {
	gate := st.gate
	if gate == nil {
		return nil
	}
	st.gate = nil
	return gate.ReleaseStream(st.ctx, st.part, shipped)
}

// Operator formats that more than one site records; obs.Op gives the
// argument order.
const (
	opSelectApprox  = "bwd.uselectapproximate(%[1]s.%[2]s)"
	opSelectRefine  = "bwd.uselectrefine(%[1]s.%[2]s)"
	opSelectClassic = "algebra.uselect(%[1]s.%[2]s)"
	opProjectApprox = "bwd.leftjoinapproximate(%[1]s.%[2]s)"
	opMaskDeleted   = "bwd.maskdeleted(%[1]s)"
	opDeltaScan     = "delta.scan(%[1]s, %[3]d qualifying)"
)

// emit records one operator of the plan listing with its actual output
// cardinality and the optimizer's estimate of it (-1: none), and — when
// tracing — one StageEvent carrying the wall-clock and simulated-meter
// deltas since the previous operator. Nothing is formatted until read.
func (st *pipeState) emit(rows int, est int64, op obs.Op) {
	st.res.ops = append(st.res.ops, planLine{op: op})
	if st.tr == nil {
		return
	}
	now := time.Since(st.tr.Start)
	st.tr.Events = append(st.tr.Events, obs.StageEvent{
		Stage: string(st.stage),
		Op:    op,
		Rows:  int64(rows),
		Est:   est,
		Wall:  now - st.mark,
		GPU:   st.m.GPU - st.last.GPU,
		CPU:   st.m.CPU - st.last.CPU,
		PCI:   st.m.PCI - st.last.PCI,
	})
	if chunk := st.pp.ChunkSize(); rows > 0 {
		st.tr.Events[len(st.tr.Events)-1].Morsels = int64((rows + chunk - 1) / chunk)
	}
	st.mark = now
	st.last = *st.m
}

// estApply folds one filter's selectivity estimate into the running
// cardinality estimate and returns the predicted output rows (-1 once any
// link of the chain had no estimate).
func (st *pipeState) estApply(sel float64) int64 {
	if sel < 0 || st.est < 0 {
		st.est = -1
		return -1
	}
	st.est *= sel
	return int64(st.est + 0.5)
}

// estReset restarts the running estimate at the live base cardinality —
// phase R walks the same filter chain a second time.
func (st *pipeState) estReset(pl pipeline) {
	st.est = float64(pl.snap.fact.LiveBase())
}

// estCapture snapshots the running estimate as the candidate-set estimate
// the trace footer reports (kept at -1 once the chain lost its stats).
func (st *pipeState) estCapture() {
	if st.est >= 0 {
		st.estCand = int64(st.est + 0.5)
	} else {
		st.estCand = -1
	}
}

func (st *pipeState) step(s Stage) error {
	st.stage = s
	return step(st.ctx, st.opts, s)
}

// startTrace opens the statement's telemetry record on this state; every
// operator emitted from here on becomes a trace event.
func (st *pipeState) startTrace(classic bool) {
	st.tr = &obs.Trace{Mode: modeName(classic), Threads: st.opts.threads(), Workers: st.opts.workers(), Start: time.Now(),
		Events: make([]obs.StageEvent, 0, cap(st.res.ops))}
	st.res.Trace = st.tr
}

// scanOut is what every scan source produces: the base segment's exact
// tuple values, the delta segment's contribution, and — A&R only — the
// device pre-grouping awaiting refinement with its surviving candidates.
// An exact A&R leg hands over accumulators instead of values.
type scanOut struct {
	ectx    *exprCtx
	dset    *deltaSet
	mg      *ar.Grouping
	refined *ar.Candidates
	// exact is set by an exact A&R leg, with acc: the aggregates of
	// refined, already folded per group of mg, in place of ectx's values.
	exact bool
	acc   aggAcc
}

// finish is the shared downstream pipeline over the gathered tuple set:
// group, aggregate, filter with HAVING, and order/limit. classic is the
// statement's mode — the tail of a mixed-mode scatter follows it, not any
// one leg's.
func finish(st *pipeState, pl *Plan, classic bool, out *scanOut) error {
	q, ectx := &pl.q, out.ectx

	// Grouping — refined from the A&R device pre-grouping when one exists,
	// rebuilt on the host over the combined tuple set otherwise.
	var grouping *bulk.Grouping
	var groupKeys [][]int64
	var err error
	switch {
	case out.mg != nil:
		if err := st.step(StageRefine); err != nil {
			return err
		}
		grouping, groupKeys, err = ar.GroupRefine(st.pp, st.m, out.mg, out.refined)
		if err != nil {
			return err
		}
		st.emit(grouping.NGroups, -1, obs.Op{Fmt: "bwd.grouprefine(%[1]s)", A: pl.groupText})
	case len(q.GroupBy) > 0:
		stage, label := StageRefine, "group.merge"
		if classic {
			stage, label = StageBulk, "group.new"
		}
		if err := st.step(stage); err != nil {
			return err
		}
		cols := make([][]int64, len(q.GroupBy))
		for k, g := range q.GroupBy {
			cols[k] = ectx.vals[ColRef{Name: g}]
		}
		grouping, groupKeys = bulk.GroupBy(st.pp, st.m, cols)
		st.emit(grouping.NGroups, -1, obs.Op{Fmt: "%[1]s(%[2]s)", A: label, B: pl.groupText})
	}

	// Aggregation (§IV-F; sums of products are recomputed on the CPU due
	// to destructive distributivity, §IV-G). The A&R refinement aggregation
	// is a fused, statically expanded loop (§V-C) reading each input column
	// once — unlike the classic engine, which materializes every
	// arithmetic intermediate (§II-B). On the host both are the one compiled
	// program folded block by block (expr.go); the two models differ in what
	// aggregateRows charges the meter, not in what runs.
	if err := st.step(StageAggregate); err != nil {
		return err
	}
	var folded *aggAcc
	if out.exact {
		folded = &out.acc
	}
	rows := aggregateRows(st.m, st.pp, pl.prog, ectx, folded, grouping, groupKeys, !classic)
	aggr := "bwd.%[1]srefine(%[2]s)"
	if classic {
		aggr = "aggr.%[1]s(%[2]s)"
	}
	for _, a := range q.Aggs {
		st.emit(len(rows), -1, obs.Op{Fmt: aggr, A: a.Func.String(), B: a.Name})
	}
	if len(q.OrderBy) == 0 {
		sortRows(rows) // ORDER BY's own comparator ends on the key tuple
	}
	rows = applyHaving(st, q, rows)
	rows, err = orderLimit(st, pl, rows)
	if err != nil {
		return err
	}
	st.res.Rows = dropHidden(q, rows)
	// The combined tuple values and the group-id vector are dead once
	// aggregated: the result rows own their key/value slices, so the
	// exact-value buffers recycle.
	for _, vals := range ectx.vals {
		mem.I64.Put(vals)
	}
	if grouping != nil {
		mem.U32.Put(grouping.IDs)
	}
	return nil
}

// applyHaving filters the aggregated rows with the HAVING conjunction.
func applyHaving(st *pipeState, q *Query, rows []Row) []Row {
	if len(q.Having) == 0 {
		return rows
	}
	kept := make([]Row, 0, len(rows))
	for _, r := range rows {
		ok := true
		for _, h := range q.Having {
			if v := r.Vals[h.Agg]; v < h.Lo || v > h.Hi {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, r)
		}
	}
	if st.m != nil {
		st.m.CPUWork(st.pp.NThreads(), int64(len(rows))*8*int64(len(q.Having)), 0, int64(len(rows))*int64(len(q.Having)))
	}
	st.emit(len(kept), -1, obs.Op{Fmt: "having(%[3]d of %[4]d groups)", N: int64(len(kept)), M: int64(len(rows))})
	return kept
}

// orderLimit applies ORDER BY and LIMIT: a morsel-parallel top-k heap
// when both are present, a full deterministic sort for ORDER BY alone, a
// plain prefix for LIMIT alone (over rows in canonical group-key order).
// Under ORDER BY the rows arrive in group-discovery order and the
// comparator, past the ORDER BY keys, falls through to the group-key tuple:
// group keys are unique, so that is a total order — the deterministic
// key-order tie-break the result contract requires, without sorting every
// group by key first to select a few.
func orderLimit(st *pipeState, pl *Plan, rows []Row) ([]Row, error) {
	q := &pl.q
	if len(q.OrderBy) == 0 {
		if q.Limit > 0 && len(rows) > q.Limit {
			rows = rows[:q.Limit]
			st.emit(len(rows), -1, obs.Op{Fmt: "limit(%[3]d)", N: int64(q.Limit)})
		}
		return rows, nil
	}
	less := func(i, j int) bool {
		for _, k := range q.OrderBy {
			var a, b int64
			if k.Key {
				a, b = rows[i].Keys[k.Index], rows[j].Keys[k.Index]
			} else {
				a, b = rows[i].Vals[k.Index], rows[j].Vals[k.Index]
			}
			if a != b {
				if k.Desc {
					return a > b
				}
				return a < b
			}
		}
		return slices.Compare(rows[i].Keys, rows[j].Keys) < 0
	}
	k := q.Limit
	if k <= 0 || k > len(rows) {
		k = len(rows)
	}
	bytesPer := int64(8 * (len(q.GroupBy) + len(q.Aggs)))
	idx := bulk.TopK(st.pp, st.m, len(rows), k, bytesPer, less)
	out := make([]Row, len(idx))
	for i, at := range idx {
		out[i] = rows[at]
	}
	if q.Limit > 0 && q.Limit < len(rows) {
		st.emit(len(out), -1, obs.Op{Fmt: "order.topk(%[1]s, k=%[3]d of %[4]d groups)", A: pl.orderText, N: int64(q.Limit), M: int64(len(rows))})
	} else {
		st.emit(len(out), -1, obs.Op{Fmt: "order.sort(%[1]s)", A: pl.orderText})
	}
	return out, nil
}

// dropHidden truncates each row's values to the visible aggregates,
// discarding the HAVING/ORDER BY-only columns.
func dropHidden(q *Query, rows []Row) []Row {
	visible := 0
	for _, a := range q.Aggs {
		if !a.Hidden {
			visible++
		}
	}
	if visible == len(q.Aggs) {
		return rows
	}
	for i := range rows {
		rows[i].Vals = rows[i].Vals[:visible]
	}
	return rows
}

// ---- Pipeline description (\explain) ----

// describe renders the assembled pipeline without executing it: the scan
// strategy, the cost-ordered filters with their estimated selectivities,
// the join chain, and the delta / grouping / having / top-k stages. solo
// says the leg is the only one the statement scans (see leg.scan).
func (pl pipeline) describe(solo bool) []string {
	q := &pl.q
	// The running estimate folds each operator's selectivity into the live
	// base cardinality, so every rendered operator carries the planner's
	// predicted output rows. One estimate-free link (a filter on a column
	// with no decomposition) poisons the rest of the chain to n/a.
	est := float64(pl.snap.fact.LiveBase())
	known := true
	fold := func(sel float64, src estSource) string {
		if src == estNone || !known {
			known = false
			return " est=n/a (no stats)"
		}
		est *= sel
		return fmt.Sprintf(" (est sel %s, est=%d rows)", pctText(sel), int64(est+0.5))
	}
	var out []string
	out = append(out, fmt.Sprintf("pipeline: mode=%s over %s", modeName(pl.classic), q.Table))
	if pl.classic {
		out = append(out, fmt.Sprintf("  scan: classic row-major base of %s (filters in written order) est=%d rows", q.Table, int64(est)))
	} else {
		out = append(out, fmt.Sprintf("  scan: a&r bit-sliced base of %s (filters cost-ordered by estimated selectivity) est=%d rows", q.Table, int64(est)))
	}
	for _, rf := range pl.factFilters {
		out = append(out, fmt.Sprintf("    filter %s.%s in %s%s", q.Table, rf.f.Col, rangeText(rf.f), fold(rf.sel, rf.src)))
	}
	for _, g := range pl.orGroups {
		parts := make([]string, len(g.filters))
		for i, f := range g.filters {
			parts[i] = fmt.Sprintf("%s.%s in %s", q.Table, f.Col, rangeText(f))
		}
		suffix := " est=n/a (no stats)"
		if known && g.src != estNone {
			est *= g.sel
			suffix = fmt.Sprintf(" (est sel <= %s, est=%d rows)", pctText(g.sel), int64(est+0.5))
		} else {
			known = false
		}
		out = append(out, fmt.Sprintf("    or: %s%s", strings.Join(parts, " | "), suffix))
	}
	for i, j := range pl.joins {
		out = append(out, fmt.Sprintf("  join %d/%d: %s.%s -> %s.%s (fk probe)%s",
			i+1, len(pl.joins), q.Table, j.spec.FKCol, j.spec.Dim, j.spec.DimPK, fold(j.sel, j.src)))
		for _, rf := range j.dimFilters {
			out = append(out, fmt.Sprintf("    filter %s.%s in %s%s", j.spec.Dim, rf.f.Col, rangeText(rf.f), fold(rf.sel, rf.src)))
		}
	}
	if n := pl.snap.fact.DeltaLen(); n > 0 {
		out = append(out, fmt.Sprintf("  delta: %d rows scanned row-major, merged before grouping", n))
	} else {
		out = append(out, "  delta: none")
	}
	if pl.exactLeg(solo) {
		out = append(out, "  refine: nothing to refine — every column read is device resident")
	}
	if len(q.GroupBy) > 0 {
		how := "host rebuild over combined tuples"
		if pl.devGroupCols(solo) != nil {
			how = "device pre-group + refine"
		}
		line := fmt.Sprintf("  group: %s (%s)", pl.groupText, how)
		if h := stats.FromColumn(pl.snap.get("", q.GroupBy[0])); h != nil {
			line += fmt.Sprintf(" est<=%d groups", h.Distinct())
		}
		out = append(out, line)
	}
	var aggs []string
	for _, a := range q.Aggs {
		label := fmt.Sprintf("%s=%s(%s)", a.Name, a.Func, exprText(a.Expr))
		if a.Hidden {
			label += " [hidden]"
		}
		aggs = append(aggs, label)
	}
	if len(aggs) > 0 {
		out = append(out, "  aggregate: "+strings.Join(aggs, ", "))
	}
	for _, h := range q.Having {
		out = append(out, fmt.Sprintf("  having: %s in %s", q.Aggs[h.Agg].Name, rangeText(Filter{Lo: h.Lo, Hi: h.Hi})))
	}
	if len(q.OrderBy) > 0 {
		kind := "full sort"
		if q.Limit > 0 {
			kind = fmt.Sprintf("top-%d heap", q.Limit)
		}
		out = append(out, fmt.Sprintf("  order: %s (%s)", pl.orderText, kind))
	} else if q.Limit > 0 {
		out = append(out, fmt.Sprintf("  limit: %d", q.Limit))
	}
	return out
}

// Describe renders the pinned plan — exactly what Run would execute —
// without executing it: the shell's \explain. A plain table renders its
// pipeline. A partitioned one renders the scatter fan-out — per partition the
// leg's scan mode, live rows and estimated output rows (when every touched
// filter has an estimate), pruned partitions listed, not described — the
// gather stage, and the first surviving leg's pipeline as the representative.
func (x *Pinned) Describe() []string {
	legs, p, q := x.legs, x.p, &x.pl.q
	rep := legs[0].pl.describe(len(legs) == 1)
	if p == nil {
		return rep
	}
	out := []string{fmt.Sprintf("scatter: %s over %d partitions (%s)", q.Table, p.Spec.N, p.Spec)}
	li := 0
	for i := 0; i < p.Spec.N; i++ {
		name := shard.PartName(q.Table, i)
		if li == len(legs) || legs[li].idx != i {
			out = append(out, fmt.Sprintf("  partition %d: %s, pruned (filters on %s exclude its slab)", i, name, p.Spec.Col))
			continue
		}
		pl := legs[li].pl
		li++
		live := pl.snap.fact.LiveBase() + pl.snap.fact.LiveDelta()
		est := float64(live)
		known := true
		fold := func(sel float64) {
			if sel < 0 {
				known = false
				return
			}
			est *= sel
		}
		for _, rf := range pl.factFilters {
			fold(rf.estSel())
		}
		for _, g := range pl.orGroups {
			fold(g.sel)
		}
		for _, j := range pl.joins {
			fold(j.sel)
			for _, rf := range j.dimFilters {
				fold(rf.estSel())
			}
		}
		line := fmt.Sprintf("  partition %d: %s, mode=%s, %d live rows", i, name, modeName(pl.classic), live)
		if known {
			line += fmt.Sprintf(", est ~%d rows out", int64(est+0.5))
		}
		out = append(out, line)
	}
	out = append(out, fmt.Sprintf("  gather: concatenate partials in partition order, shared tail (group/aggregate/having/order) over %s", q.Table))
	out = append(out, fmt.Sprintf("per-partition plan (partition %d shown):", legs[0].idx))
	for _, line := range rep {
		out = append(out, "  "+line)
	}
	return out
}

// modeName is the scan-strategy label of plan listings and traces.
func modeName(classic bool) string {
	if classic {
		return "classic"
	}
	return "ar"
}

func describeOrder(q *Query) string {
	parts := make([]string, len(q.OrderBy))
	for i, k := range q.OrderBy {
		name := ""
		if k.Key {
			name = q.GroupBy[k.Index]
		} else {
			name = q.Aggs[k.Index].Name
		}
		dir := "asc"
		if k.Desc {
			dir = "desc"
		}
		parts[i] = name + " " + dir
	}
	return strings.Join(parts, ", ")
}

func rangeText(f Filter) string {
	lo, hi := "-inf", "+inf"
	if f.Lo != NoLo {
		lo = fmt.Sprintf("%d", f.Lo)
	}
	if f.Hi != NoHi {
		hi = fmt.Sprintf("%d", f.Hi)
	}
	return fmt.Sprintf("[%s,%s]", lo, hi)
}

func pctText(sel float64) string {
	return fmt.Sprintf("%.2f%%", sel*100)
}

func exprText(e Expr) string {
	if e == nil {
		return "*"
	}
	return e.String()
}

// ---- Shared aggregation operators ----

// aggregateRows folds the statement's compiled aggregates over the exact
// values, per group — or takes the accumulators folded an exact A&R leg
// already holds (folded non-nil), billing the aggregation all the same. Rows
// come out in group-discovery order, every row's Keys and Vals carved from
// one backing array; the caller establishes the output order (sortRows, or
// ORDER BY's comparator) after HAVING.
func aggregateRows(m *device.Meter, pp par.P, pg *program, ctx *exprCtx, folded *aggAcc, grouping *bulk.Grouping, groupKeys [][]int64, fused bool) []Row {
	if m != nil {
		chargeAggregation(m, pp.NThreads(), pg.aggs, int64(ctx.n), grouping != nil, fused)
	}
	groups, nk, nv := 1, 0, len(pg.aggs)
	if grouping != nil {
		groups, nk = grouping.NGroups, len(groupKeys)
	}
	var acc aggAcc
	if folded != nil {
		acc = *folded
	} else {
		acc = pg.newAcc(groups, false)
		in := pg.bindVals(ctx.vals, ctx.n)
		if grouping != nil {
			in.ids = grouping.IDs
		}
		pg.fold(pp, &acc, in)
	}
	rows := make([]Row, groups)
	cells := make([]int64, groups*(nk+nv))
	for g := range rows {
		// Full slice expressions: a row appended to never grows into its
		// neighbour's values.
		row := cells[g*(nk+nv) : (g+1)*(nk+nv) : (g+1)*(nk+nv)]
		if grouping != nil {
			rows[g].Keys = row[:nk:nk]
			for k := range groupKeys {
				row[k] = groupKeys[k][g]
			}
		}
		rows[g].Vals = row[nk:]
		for k := range pg.aggs {
			row[nk+k] = pg.value(&acc, k, g)
		}
	}
	acc.release()
	return rows
}

// chargeAggregation bills the aggregation of n rows. The meter is charged
// for the execution model, not for the host loop: the simulated cost is a
// function of (threads, n, Ops()) alone, so the fused A&R model and the
// materializing classic model bill exactly what they billed when the host
// ran one pass per node.
func chargeAggregation(m *device.Meter, threads int, aggs []AggSpec, n int64, grouped, fused bool) {
	if fused {
		// A&R refinement: one fused pass evaluates all expressions and
		// aggregates, reading each referenced column once (§V-C static
		// type expansion).
		uniq := map[ColRef]bool{}
		var nodes int
		for _, a := range aggs {
			nodes++ // the aggregate update itself
			if a.Expr == nil {
				continue
			}
			nodes += a.Expr.Ops()
			for _, ref := range a.Expr.Cols() {
				uniq[ref] = true
			}
		}
		bytes := n * 8 * int64(len(uniq))
		if grouped {
			bytes += n * 4 // group ids
		}
		m.CPUWork(threads, bytes, 0, n*int64(nodes)*bulk.OpsArith)
		return
	}
	// Classic bulk evaluation fully materializes one intermediate per
	// arithmetic node (§II-B), then runs one aggregate pass per aggregate:
	// 8 bytes a value, plus the 4-byte group id when grouped; avg is a sum
	// pass and a count pass.
	for _, a := range aggs {
		if a.Expr == nil {
			continue
		}
		if ops := int64(a.Expr.Ops()); ops > 0 {
			m.CPUWork(threads, n*24*ops, 0, n*ops*bulk.OpsArith)
		}
	}
	pass := func(bytesPer int64) { m.CPUWork(threads, n*bytesPer, 0, n*bulk.OpsAggregate) }
	for _, a := range aggs {
		switch {
		case !grouped && (a.Func == Count || n == 0 && a.Func != Sum):
			// a global count is the row count; min, max and avg of
			// nothing never ran a pass
		case !grouped:
			pass(8)
		case a.Func == Count:
			pass(4)
		default:
			pass(12)
			if a.Func == Avg {
				pass(4)
			}
		}
	}
}
