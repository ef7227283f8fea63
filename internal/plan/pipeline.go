// The physical-operator pipeline layer: one executor skeleton that both
// execution models share. A pipeline is assembled from the logical Query
// in two pieces:
//
//   - a scan source per leg of the table (exec_scatter.go) — the A&R
//     bit-sliced base scan (approximate select → ship → refine) or the
//     classic bulk scan — that runs the leg's one operator list (ops.go:
//     conjuncts, OR groups, the deletion mask, per join its probe and its
//     dimension filters) and emits the same product either way: the
//     survivor set of the base segment and of the delta segment, each with
//     the binding of every column the tail reads by its mask (segment). The
//     list is walked in four phases over one survivor set — A&R's phase A
//     on the device and phase R on the CPU, the classic selection over the
//     base and over the delta (exec_delta.go) — each with its own kernels,
//     charges and listing. A join is the same thing in all of them: key −
//     base through the dimension's FK index (execSnap.joinKey, bwd.Key),
//     which every phase reads its survivor mask through like any conjunct —
//     no list of dimension positions travels beside a candidate set;
//   - the shared downstream operators — grouping, aggregation, HAVING,
//     ORDER BY / LIMIT (top-k) — that run once over the gathered legs,
//     identically for every scan strategy, so classic vs A&R is a
//     scan-strategy choice instead of a separate executor, and
//     base/delta/deletion merging exists in exactly one place.
//
// Assembly is also where the rule-based optimizer lives (§III-A): filters
// are cost-ordered by estimated selectivity — fact-side and, per join,
// dimension-side — and every operator of the list carries its estimated
// output rows, computed once where the leg is priced, so \explain renders
// the list with the estimates the trace records.
package plan

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/ar"
	"repro/internal/bulk"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/shard"
	"repro/internal/stats"
)

// legPlan is one leg's assembled physical plan: the scan-strategy choice
// plus the operator list the scans walk and \explain renders (buildLeg). It
// is the priced, immutable, snapshot-free part of a Plan — built once per
// pricing, run by any number of executions.
type legPlan struct {
	*Plan
	// q is the statement retargeted at the leg's table.
	q       Query
	classic bool

	// ops is the operator list, in execution order; estAll is the leg's
	// estimated output rows over all its live rows, base and delta (-1 when
	// unknown), which a partition line of \explain prints.
	ops    []legOp
	estAll int64
	// resident: no delta segment and no residual bit in anything the leg
	// reads (execSnap.resident) — run A&R alone, its approximation is exact.
	resident bool
}

// pipeline is a legPlan bound to the snapshots one execution pinned for it.
type pipeline struct {
	*legPlan
	snap *execSnap
}

// exactLeg reports whether the leg's approximation is its exact result: an
// A&R scan of a table version with no delta segment and every bit of every
// column the statement reads device resident — filters, disjuncts, join keys,
// dimension filters, aggregate inputs, and group keys the grouping table holds
// (legPlan.resident). The relaxed ranges are then the predicates and the codes
// the values (§IV-C, §IV-E): no candidate is uncertain, no refinement can drop
// one, every phase-A interval is a point. scanAR and describe both ask here.
func (pl pipeline) exactLeg() bool {
	return !pl.classic && pl.resident
}

// soloBill is the bill's rule, and the one reader of solo (DESIGN.md §7, "The
// bill"). A statement's only leg is billed its device pre-grouping over
// preGroup's columns — the key count, its charges and listing, and the
// grouping columns left unprojected — and, on an exact leg, its projections'
// refinement as the views they are (views: unbilled). A leg of a scatter is
// billed neither, as when the legs' rows met on the host to be grouped. What
// runs does not ask: every leg folds its own rows.
func (pl pipeline) soloBill(st *pipeState) (preGroup []*bwd.Column, views bool) {
	if !st.solo {
		return nil, false
	}
	return pl.snap.devGroupCols(&pl.q), pl.exactLeg()
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

// devGroupCols returns the grouping columns when a grouped A&R leg groups by
// their device codes (§IV-E) — its rows keyed by the packed codes, an exact
// leg's in its phase-A fold — and nil when it groups over exact values: live
// delta rows join the base's on the host, or the key does not fit its grouping
// table. The leg, describe and chooseSnap's ship estimate all ask here.
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
	// currently in, and the wall-clock (since the trace began: one monotonic
	// clock read per operator) and meter marks of the previous operator
	// boundary. Tracing only ever *reads* the meter — a traced run charges
	// exactly what an untraced one does.
	tr    *obs.Trace
	stage Stage
	mark  time.Duration
	last  device.Meter

	// gate is set while this leg holds device stream part of it: from
	// leg.scan's admission to leaveDevice.
	gate DeviceGate
	part int
	// solo says the leg is the only one its statement scans; soloBill alone
	// reads it.
	solo bool
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

// scanOut is what every scan source produces: its segments — the base's,
// then the delta's when there is one (scanDelta) — until the leg has folded
// them, then its accumulators — per group, with each group's key in keys,
// when the statement groups — and how many rows it folded; and, when the bill
// pre-groups, the device pre-grouping's counts, which bill its refinement. The
// out owns the segments' sets and the accumulators until release.
type scanOut struct {
	segs segments
	mg   *ar.Grouping
	acc  aggAcc
	keys [][]int64
	rows int
}

// fold folds segs, base then delta, into the out's accumulators: per group,
// numbered in candidate order, when the statement groups.
func (pl pipeline) fold(pp par.P, segs segments, out *scanOut) {
	if len(pl.q.GroupBy) > 0 {
		out.keys = segs.fold(pp, pl.prog, &out.acc, pl.q.GroupBy...)
		return
	}
	out.acc = pl.prog.newAcc(1, false)
	segs.fold(pp, pl.prog, &out.acc)
}

// dropSets notes the rows of the out's segments and hands their sets back to
// the arena: the leg has folded them.
func (out *scanOut) dropSets() {
	out.rows = out.segs.rows()
	for _, s := range out.segs {
		s.set.Release()
	}
	out.segs = nil
}

// release returns every segment's set and the accumulators to the arena. A
// nil out releases nothing.
func (out *scanOut) release() {
	if out != nil {
		for _, s := range out.segs {
			s.set.Release()
		}
		out.acc.release()
	}
}

// finish is the shared downstream pipeline over the legs' gathered
// accumulators: group, aggregate, filter with HAVING, and order/limit. classic
// is the statement's mode — the tail of a mixed-mode scatter follows it, not
// any one leg's.
func finish(st *pipeState, pl *Plan, classic bool, out *scanOut) error {
	q := &pl.q

	// Grouping: every leg has folded its aggregates per key as it numbered the
	// groups, and the gather merged them; it is billed as the refinement of the
	// device pre-grouping when one was billed and as the bulk model's hash
	// grouping otherwise.
	if len(q.GroupBy) > 0 {
		stage, label := StageRefine, "group.merge"
		if classic {
			stage, label = StageBulk, "group.new"
		}
		if err := st.step(stage); err != nil {
			return err
		}
		if out.mg != nil { // a pre-grouped leg has no live delta row
			ar.ChargeGroupRefine(st.pp, st.m, out.mg, out.rows)
			st.emit(out.acc.groups, -1, obs.Op{Fmt: "bwd.grouprefine(%[1]s)", A: pl.groupText})
		} else {
			bulk.ChargeGroupBy(st.pp, st.m, out.rows, len(q.GroupBy))
			st.emit(out.acc.groups, -1, obs.Op{Fmt: "%[1]s(%[2]s)", A: label, B: pl.groupText})
		}
	}

	// Aggregation (§IV-F; sums of products are recomputed on the CPU due
	// to destructive distributivity, §IV-G). The A&R refinement aggregation
	// is a fused, statically expanded loop (§V-C) reading each input column
	// once — unlike the classic engine, which materializes every
	// arithmetic intermediate (§II-B). On the host both are the one compiled
	// program each leg folded block by block over its segments, each column
	// read by mask where it lies (expr.go); the two models differ in what
	// chargeAggregation bills, not in what runs.
	if err := st.step(StageAggregate); err != nil {
		return err
	}
	chargeAggregation(st.m, st.pp.NThreads(), pl.prog.aggs, int64(out.rows), len(q.GroupBy) > 0, !classic)
	rows := aggregateRows(pl.prog, &out.acc, out.keys, len(q.GroupBy) > 0)
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
	rows, err := orderLimit(st, pl, rows)
	if err != nil {
		return err
	}
	st.res.Rows = dropHidden(q, rows)
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
	st.m.CPUWork(st.pp.NThreads(), int64(len(rows))*8*int64(len(q.Having)), 0, int64(len(rows))*int64(len(q.Having)))
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
	idx := bulk.TopK(st.pp, len(rows), k, less)
	bulk.ChargeTopK(st.pp, st.m, len(rows), k, bytesPer)
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
// strategy, then the leg's operator list — conjuncts and disjunctions with
// their estimated selectivities and output rows, the join chain — and the
// delta / grouping / having / top-k stages. The estimates are the ones the
// trace records for the same operators.
func (pl pipeline) describe() []string {
	q := &pl.q
	est := pl.snap.fact.LiveBase()
	var out []string
	out = append(out, fmt.Sprintf("pipeline: mode=%s over %s", modeName(pl.classic), q.Table))
	if pl.classic {
		out = append(out, fmt.Sprintf("  scan: classic row-major base of %s (filters in written order) est=%d rows", q.Table, est))
	} else {
		out = append(out, fmt.Sprintf("  scan: a&r bit-sliced base of %s (filters cost-ordered by estimated selectivity) est=%d rows", q.Table, est))
	}
	joined := 0
	for i := range pl.ops {
		switch op := &pl.ops[i]; op.kind {
		case opFilter:
			out = append(out, fmt.Sprintf("    filter %s.%s in %s%s", op.table, op.text, rangeText(op.filters[0]), op.estText("")))
		case opOr:
			parts := make([]string, len(op.filters))
			for k, f := range op.filters {
				parts[k] = fmt.Sprintf("%s.%s in %s", q.Table, f.Col, rangeText(f))
			}
			out = append(out, fmt.Sprintf("    or: %s%s", strings.Join(parts, " | "), op.estText("<= ")))
		case opProbe:
			joined++
			j := q.Joins[op.join]
			out = append(out, fmt.Sprintf("  join %d/%d: %s.%s -> %s.%s (fk probe)%s",
				joined, len(q.Joins), q.Table, j.FKCol, j.Dim, j.DimPK, op.estText("")))
		}
	}
	if n := pl.snap.fact.DeltaLen(); n > 0 {
		out = append(out, fmt.Sprintf("  delta: %d rows scanned row-major, merged before grouping", n))
	} else {
		out = append(out, "  delta: none")
	}
	if pl.exactLeg() {
		out = append(out, "  refine: nothing to refine — every column read is device resident")
	}
	if len(q.GroupBy) > 0 {
		how := "host rebuild over combined tuples"
		if !pl.classic && pl.snap.devGroupCols(q) != nil {
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
	rep := legs[0].pl.describe()
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
		line := fmt.Sprintf("  partition %d: %s, mode=%s, %d live rows", i, name, modeName(pl.classic), live)
		if pl.estAll >= 0 {
			line += fmt.Sprintf(", est ~%d rows out", pl.estAll)
		}
		out = append(out, line)
	}
	out = append(out, fmt.Sprintf("  gather: merge the partitions' accumulators in partition order, shared tail (having/order) over %s", q.Table))
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

// aggregateRows reads the rows off the accumulators the legs folded (keys,
// each key column's value per group, when grouped). Its bill is
// chargeAggregation. Rows come out in group-discovery order, every row's Keys
// and Vals carved from one backing array; the caller establishes the output
// order (sortRows, or ORDER BY's comparator) after HAVING.
func aggregateRows(pg *program, acc *aggAcc, keys [][]int64, grouped bool) []Row {
	groups, nk, nv := acc.groups, len(keys), len(pg.aggs)
	rows := make([]Row, groups)
	cells := make([]int64, groups*(nk+nv))
	for g := range rows {
		// Full slice expressions: a row appended to never grows into its
		// neighbour's values.
		row := cells[g*(nk+nv) : (g+1)*(nk+nv) : (g+1)*(nk+nv)]
		if grouped {
			rows[g].Keys = row[:nk:nk]
			for k := range keys {
				row[k] = keys[k][g]
			}
		}
		rows[g].Vals = row[nk:]
		for k := range pg.aggs {
			row[nk+k] = pg.value(acc, k, g)
		}
	}
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
