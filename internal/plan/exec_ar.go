package plan

import (
	"context"
	"fmt"

	"repro/internal/ar"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/par"
)

// ExecOpts tunes execution.
type ExecOpts struct {
	// Threads is the CPU thread count used by refinement (and by the whole
	// classic plan). Defaults to 1, the paper's per-query baseline setup.
	// It is the *simulated* thread count: the meter bills every CPU kernel
	// as Threads-way parallel, and (absent an explicit Workers budget) it
	// is also the real morsel-parallel worker count, so wall-clock follows
	// the simulation.
	Threads int
	// Workers overrides the real worker-goroutine budget without touching
	// the meter: the engine's scheduler sets it to this query's share of
	// the CPU pool, so concurrent queries split the machine instead of
	// each assuming all of it. 0 means Threads. Simulated figures are
	// identical for every Workers value.
	Workers int
	// Morsel overrides the morsel size in rows (0 = the default 64k).
	// Tests shrink it to push morsel boundaries through small inputs.
	Morsel int
	// OnStage, if set, is invoked at every cooperative checkpoint with the
	// stage about to run. It exists for observability and deterministic
	// cancellation tests; it must be fast and safe for concurrent use.
	OnStage func(Stage)
	// Trace collects a per-operator obs.Trace on the Result. Tracing reads
	// the clock and the meter but never charges the meter, so results,
	// approximate answers and simulated figures are bit-identical with the
	// flag on or off.
	Trace bool
	// Gate, if set, admission-controls the device streams (the engine's
	// scheduler passes the statement's hold on its device ledger): every A&R
	// leg — a partition's or a plain table's — holds its stream from the
	// start of its approximation subplan to its ship. It never affects
	// results or simulated figures — only real concurrency.
	Gate DeviceGate
}

func (o ExecOpts) threads() int {
	if o.Threads > 0 {
		return o.Threads
	}
	return 1
}

// workers returns the real worker budget (Workers, else Threads).
func (o ExecOpts) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return o.threads()
}

// par bundles the execution options and the query context into the
// parallelism descriptor handed to every CPU kernel: meter charges use
// threads(), real execution uses workers(), and ctx is polled at morsel
// granularity so cancellation latency is bounded by one morsel.
func (o ExecOpts) par(ctx context.Context) par.P {
	return par.P{Threads: o.threads(), Workers: o.workers(), Chunk: o.Morsel, Ctx: ctx}
}

// ExecAR plans, pins and runs the query once under the Approximate & Refine
// paradigm (ModeAR) — the convenience form of Plan + Pin + Run for callers
// that execute a query once; the engine keeps the Plan and skips to Pin.
// The approximation subplan runs entirely on the simulated device first
// (its intermediate results never leave device memory), the candidate set
// and device-side projections are shipped across the bus once, and the
// refinement subplan discharges false positives and reconstructs exact
// values on the CPU. The returned Result carries the exact rows, the
// phase-A approximate answer, and the simulated GPU/CPU/PCI breakdown.
func (c *Catalog) ExecAR(ctx context.Context, q Query, opts ExecOpts) (*Result, error) {
	return c.execOnce(ctx, q, opts, ModeAR)
}

// execOnce plans, pins and runs q under mode.
func (c *Catalog) execOnce(ctx context.Context, q Query, opts ExecOpts, mode Mode) (*Result, error) {
	pl, err := c.Plan(q, mode)
	if err != nil {
		return nil, err
	}
	x, err := c.Pin(pl)
	if err != nil {
		return nil, err
	}
	return c.Run(ctx, x, opts)
}

// scanAR is the A&R scan strategy: the approximation subplan on the
// device (selections, disjunctions, join probes, pre-grouping,
// projections), the single bus crossing, and the refinement subplan on
// the CPU — producing the base segment's exact tuple values for the
// shared pipeline tail. The delta segment is scanned with one classic
// row-major pass before the ship (so the phase-A answer can include its
// exact contribution) and returned unmerged. solo permits the device-side
// pre-grouping: this leg is the only one the statement scans.
//
// On an exact leg (exactLeg) the approximation is the answer: nothing can be
// refined away and every interval is a point, so phase A folds the aggregates
// once, exactly, per pre-group, straight off the packed columns, and phase R
// — still listed, checkpointed and billed operator by operator — copies,
// joins and folds nothing; scanOut carries the accumulators to the tail.
func (pl pipeline) scanAR(st *pipeState, solo bool) (*scanOut, error) {
	q := &pl.q
	snap := pl.snap
	pp := st.pp
	m := st.m
	exact := pl.exactLeg(solo)

	// ---- Phase A: the approximation subplan on the device.
	if err := st.step(StageApprox); err != nil {
		return nil, err
	}
	var cands *ar.Candidates
	switch {
	case len(pl.factFilters) > 0:
		f0 := pl.factFilters[0].f
		d := snap.get("", f0.Col)
		cands = ar.SelectApprox(m, d, d.Relax(f0.Lo, f0.Hi))
		st.emit(cands.Len(), st.estApply(pl.factFilters[0].estSel()), obs.Op{Fmt: opSelectApprox, A: q.Table, B: f0.Col})
		for _, rf := range pl.factFilters[1:] {
			if err := st.step(StageApprox); err != nil {
				return nil, err
			}
			d := snap.get("", rf.f.Col)
			cands = ar.SelectApproxOver(m, d, nil, d.Relax(rf.f.Lo, rf.f.Hi), cands)
			st.emit(cands.Len(), st.estApply(rf.estSel()), obs.Op{Fmt: opSelectApprox, A: q.Table, B: rf.f.Col})
		}
	case len(pl.orGroups) > 0:
		g := pl.orGroups[0]
		cols, rs, _, _ := pl.orGroupRelax(g)
		cands = ar.SelectApproxAny(m, cols, rs, g.id)
		st.emit(cands.Len(), st.estApply(g.sel), obs.Op{Fmt: "bwd.uselectanyapproximate(%[1]s)", A: g.text})
	default:
		anchor, ok := q.anchorColumn()
		if !ok {
			return nil, fmt.Errorf("plan: query references no fact columns")
		}
		d := snap.get("", anchor)
		cands = ar.SelectApprox(m, d, bwd.ApproxRange{Full: true})
		st.emit(cands.Len(), -1, obs.Op{Fmt: "bwd.scanapproximate(%[1]s.%[2]s)", A: q.Table, B: anchor})
	}
	// Remaining disjunction groups narrow the candidate set like further
	// conjuncts — each one the union of its per-disjunct relaxed ranges.
	orStart := 0
	if len(pl.factFilters) == 0 && len(pl.orGroups) > 0 {
		orStart = 1
	}
	for _, g := range pl.orGroups[orStart:] {
		if err := st.step(StageApprox); err != nil {
			return nil, err
		}
		cols, rs, _, _ := pl.orGroupRelax(g)
		cands = ar.SelectApproxAnyOver(m, cols, rs, cands, g.id)
		st.emit(cands.Len(), st.estApply(g.sel), obs.Op{Fmt: "bwd.uselectanyapproximate(%[1]s)", A: g.text})
	}

	// Discharge deleted base rows on the device: the deletion bitmap is
	// mirrored GPU-side (shipped by DELETE), so masking is one kernel over
	// the candidates — an AND-NOT of the bitmap's words into the survivor
	// mask — and the phase-A answer stays a strict bound over the live rows.
	if fs := snap.fact; fs.BaseDeletedCount() > 0 {
		n := cands.Len()
		cands.MaskOut(fs.DeletedWords())
		m.GPUKernel(int64(n)*4+int64(fs.BaseLen()+7)/8, 0, int64(n))
		st.emit(cands.Len(), -1, obs.Op{Fmt: opMaskDeleted, A: q.Table})
	}
	// Foreign-key join chain: each probe, the dimension's deletion bitmap and
	// the dimension-side approximate selections narrow the mask like the
	// conjuncts before them, every one read through the join's key.
	keys := make([]bwd.Key, len(pl.joins))
	for ji, js := range pl.joins {
		spec := js.spec
		if err := st.step(StageApprox); err != nil {
			return nil, err
		}
		ds := snap.snapFor(spec.Dim)
		keys[ji] = snap.joinKey(spec, snap.get("", spec.FKCol), nil)
		key := &keys[ji]
		var err error
		if cands, err = ar.JoinApprox(m, key, cands); err != nil {
			return nil, err
		}
		st.emit(cands.Len(), -1, obs.Op{Fmt: opProjectApprox, A: q.Table, B: js.arrow})
		if ds.BaseDeletedCount() > 0 {
			n := cands.Len()
			cands.MaskOutJoined(key, ds.DeletedWords())
			m.GPUKernel(int64(n)*4+int64(ds.BaseLen()+7)/8, 0, int64(n))
			st.emit(cands.Len(), -1, obs.Op{Fmt: opMaskDeleted, A: spec.Dim})
		}
		for _, rf := range js.dimFilters {
			dd := snap.get(spec.Dim, rf.f.Col)
			cands = ar.SelectApproxOver(m, dd, key, dd.Relax(rf.f.Lo, rf.f.Hi), cands)
			st.emit(cands.Len(), st.estApply(rf.estSel()), obs.Op{Fmt: opSelectApprox, A: spec.Dim, B: rf.f.Col})
		}
	}
	// The narrowing by mask ends here. Ids and the attached codes are
	// materialised once, for the operators that address positions: a
	// refinement's residual lookups after the ship, and a dimension
	// projection's gather, which asks for them itself. An exact leg with
	// neither stays on its mask.
	if !exact {
		cands.Emit()
	}

	var mg *ar.Grouping
	if cols := pl.devGroupCols(solo); cols != nil {
		mg = ar.GroupApprox(m, cols, cands)
		st.emit(cands.Len(), -1, obs.Op{Fmt: "bwd.groupapproximate(%[1]s)", A: pl.groupText})
	}

	// Approximate projections for every column the aggregation phase
	// needs: aggregate inputs, plus the grouping keys when grouping merges
	// with the delta on the host.
	need, refList := pl.tailKeys, pl.projKeys
	if mg != nil {
		need, refList = pl.tail, pl.proj
	}
	projections := make(map[ColRef]*ar.Projection, len(refList))
	for _, ref := range refList {
		table := q.Table
		if ref.IsDim() {
			table = ref.Dim
		}
		projections[ref] = ar.ProjectApprox(m, snap.get(ref.Dim, ref.Name), pl.keyFor(keys, ref.Dim), cands)
		if !exact {
			// Phase R reads the codes by position, so they are listed
			// once, here, and the bounds fold from the list; an exact
			// leg folds straight off the packed column and lists none.
			projections[ref].Codes()
		}
		st.emit(cands.Len(), -1, obs.Op{Fmt: opProjectApprox, A: table, B: ref.Name})
	}

	// ---- Delta scan: the append segment lives in host memory and is
	// never decomposed; one classic row-major pass evaluates the
	// predicates and materializes the needed values exactly.
	var dset *deltaSet
	if snap.fact.DeltaLen() > 0 {
		if err := st.step(StageDelta); err != nil {
			return nil, err
		}
		var err error
		dset, err = scanDelta(m, pp, q, snap, need)
		if err != nil {
			return nil, err
		}
		st.emit(dset.n, -1, obs.Op{Fmt: opDeltaScan, A: q.Table, N: int64(dset.n)})
	}

	// Phase-A approximate answer: strict bounds from approximations over
	// the base segment, plus the (exact) delta contributions — or, on an
	// exact leg, the answer itself, read off the one fold's accumulators.
	var acc aggAcc
	if exact {
		acc, st.res.Approx = exactFold(pp, m, pl.prog, cands, projections, mg)
	} else {
		st.res.Approx = approxAnswer(pp, m, pl.prog, cands, projections, dset)
	}
	st.res.Candidates = cands.Len()
	for _, a := range q.Aggs {
		st.emit(cands.Len(), -1, obs.Op{Fmt: "bwd.%[1]sapproximate(%[2]s)", A: a.Func.String(), B: a.Name})
	}

	// ---- Ship: one bus crossing for candidates, projections, groupings.
	if err := st.step(StageShip); err != nil {
		return nil, err
	}
	cands.Ship(m)
	for _, ref := range refList {
		projections[ref].Ship(m)
	}
	if mg != nil {
		mg.Ship(m)
	}
	for range pl.joins {
		m.Transfer(int64(cands.Len()) * 4) // billed as a shipped position list
	}
	st.emit(cands.Len(), -1, obs.Op{Fmt: "ship(%[1]s, %[3]d projections)", A: q.Table, N: int64(len(refList))})
	// The approximation subplan is over: the device stream goes back, and
	// what follows runs on the CPU pool.
	if err := st.leaveDevice(true); err != nil {
		return nil, err
	}

	// ---- Phase R: the refinement subplan on the CPU. The selectivity
	// estimate restarts at the live base cardinality: refinement walks the
	// same predicate chain with exact bounds, so the same model predicts
	// its per-filter output. The phase-A running estimate is captured first
	// as the trace footer's candidate-set prediction.
	st.estCapture()
	st.estReset(pl)
	refined := cands
	for _, rf := range pl.factFilters {
		if err := st.step(StageRefine); err != nil {
			return nil, err
		}
		if d := snap.get("", rf.f.Col); d.Dec.ResBits > 0 {
			// §IV-C: over a fully device-resident column the relaxed range
			// was the exact predicate and the candidates are the result — no
			// refinement runs (and none is charged).
			refined = refineStep(st, d, nil, rf.f, refined, cands)
		}
		st.emit(refined.Len(), st.estApply(rf.estSel()), obs.Op{Fmt: opSelectRefine, A: q.Table, B: rf.f.Col})
	}
	for _, g := range pl.orGroups {
		if err := st.step(StageRefine); err != nil {
			return nil, err
		}
		cols, _, los, his := pl.orGroupRelax(g)
		cur := refined
		refined = ar.SelectRefineAny(pp, m, cols, los, his, cur)
		if cur != cands && cur != refined {
			cur.Release()
		}
		st.emit(refined.Len(), st.estApply(g.sel), obs.Op{Fmt: "bwd.uselectanyrefine(%[1]s)", A: g.text})
	}
	for ji, js := range pl.joins {
		spec := js.spec
		st.emit(refined.Len(), -1, obs.Op{Fmt: "bwd.leftjoinrefine(%[1]s.%[2]s)", A: q.Table, B: js.arrow})
		for _, rf := range js.dimFilters {
			if err := st.step(StageRefine); err != nil {
				return nil, err
			}
			if dd := snap.get(spec.Dim, rf.f.Col); dd.Dec.ResBits > 0 { // resident: as above
				refined = refineStep(st, dd, &keys[ji], rf.f, refined, cands)
			}
			st.emit(refined.Len(), st.estApply(rf.estSel()), obs.Op{Fmt: opSelectRefine, A: spec.Dim, B: rf.f.Col})
		}
	}
	st.res.Refined = refined.Len()

	// Exact values for every referenced column.
	ectx := &exprCtx{n: refined.Len(), vals: map[ColRef][]int64{}}
	for _, ref := range refList {
		if err := st.step(StageRefine); err != nil {
			return nil, err
		}
		// On an exact leg the codes were the values and phase A has aggregated
		// them: a view, which the refinement of a resident projection is
		// billed as anyway.
		if !exact {
			var err error
			if ectx.vals[ref], err = ar.ProjectRefine(pp, m, projections[ref], refined); err != nil {
				return nil, err
			}
		}
		st.emit(refined.Len(), -1, obs.Op{Fmt: "bwd.leftjoinrefine(%[1]s)", A: ref.Name})
	}

	// The projection code buffers and the original candidate set are dead
	// once every projection has refined; the surviving set travels on to
	// the shared tail (exec releases it after aggregation). mg still holds
	// cands as its Src until the group refinement, so keep it alive then.
	for _, ref := range refList {
		projections[ref].Release()
	}
	if cands != refined && mg == nil {
		cands.Release()
	}

	return &scanOut{ectx: ectx, dset: dset, mg: mg, refined: refined, exact: exact, acc: acc}, nil
}

// orGroupRelax resolves one disjunction group against the snapshot: the
// decomposed columns, the per-disjunct relaxed ranges (each through its
// own column's BWD bounds), and the exact bounds for refinement.
func (pl pipeline) orGroupRelax(g orGroupStage) (cols []*bwd.Column, rs []bwd.ApproxRange, los, his []int64) {
	cols = make([]*bwd.Column, len(g.filters))
	rs = make([]bwd.ApproxRange, len(g.filters))
	los = make([]int64, len(g.filters))
	his = make([]int64, len(g.filters))
	for i, f := range g.filters {
		cols[i] = pl.snap.get("", f.Col)
		rs[i] = cols[i].Relax(f.Lo, f.Hi)
		los[i], his[i] = f.Lo, f.Hi
	}
	return cols, rs, los, his
}

func orGroupText(table string, filters []Filter) string {
	out := ""
	for i, f := range filters {
		if i > 0 {
			out += "|"
		}
		out += table + "." + f.Col
	}
	return out
}

// keyFor is a column's addressing: of keys, aligned with the leg's join
// stages, the key of the join that reaches dimension dim — nil for a column
// of the scanned table (dim "").
func (pl pipeline) keyFor(keys []bwd.Key, dim string) *bwd.Key {
	for ji := range keys {
		if pl.joins[ji].spec.Dim == dim {
			return &keys[ji]
		}
	}
	return nil
}

// refineStep refines prev by one conjunct f on column d, read through key when
// it is a dimension's, and releases prev unless it is cands, the set phase A
// shipped, which the projections still align with.
func refineStep(st *pipeState, d *bwd.Column, key *bwd.Key, f Filter, prev, cands *ar.Candidates) *ar.Candidates {
	refined, vals := ar.SelectRefine(st.pp, st.m, d, key, f.Lo, f.Hi, prev)
	mem.I64.Put(vals)
	if prev != cands {
		prev.Release()
	}
	return refined
}

// approxAnswer derives the phase-A bounds: the candidate-count interval, and
// per aggregate the sum/min/max bounds the compiled program folds from the
// approximate projections over the base segment — a candidate that may be a
// false positive (outside the certain-mask) widens a sum only toward zero —
// plus the exact contributions of the qualifying delta rows (the delta is
// host resident and undecomposed, so its values carry no approximation
// error).
func approxAnswer(pp par.P, m *device.Meter, pg *program, cands *ar.Candidates, projections map[ColRef]*ar.Projection, delta *deltaSet) ApproxAnswer {
	out := ApproxAnswer{Count: ar.CountApprox(m, cands), Aggs: make([]ar.Interval, len(pg.aggs))}
	acc := pg.newAcc(1, true)
	in := pg.bindCodes(cands, projections)
	in.certain = cands.CertainMask()
	pg.fold(pp, &acc, in)
	if delta != nil {
		out.Count.Lo += int64(delta.n)
		out.Count.Hi += int64(delta.n)
		pg.fold(pp, &acc, pg.bindVals(delta.vals, delta.n))
	}
	for k, a := range pg.aggs {
		if a.Func == Count {
			out.Aggs[k] = out.Count
			continue
		}
		total := pg.bounds(&acc, k)
		if cnt := out.Count; a.Func == Avg && cnt.Lo > 0 {
			// The sum and the count are bounded separately, so each side of
			// the quotient takes whichever count end pushes it outward: the
			// larger count shrinks a positive sum bound and the smaller one
			// a negative. Without a certain row (cnt.Lo == 0) the count says
			// nothing about the quotient: the answer is the sum hull, which
			// then contains zero and so every sum/count.
			total = ar.Interval{
				Lo: min(total.Lo/cnt.Hi, total.Lo/cnt.Lo),
				Hi: max(total.Hi/cnt.Lo, total.Hi/cnt.Hi),
			}
		}
		out.Aggs[k] = total
	}
	acc.release()
	return out
}

// exactFold is an exact leg's one aggregation: the program folded over the
// candidates' codes — which are the values — exactly, per device pre-group
// when the statement groups (mg's ids, dense in first-appearance order, are
// the grouping the tail would refine to), and the degenerate phase-A answer
// those accumulators hold. The count is billed as the approximate count it
// stands for.
func exactFold(pp par.P, m *device.Meter, pg *program, cands *ar.Candidates, projections map[ColRef]*ar.Projection, mg *ar.Grouping) (aggAcc, ApproxAnswer) {
	ar.CountApprox(m, cands)
	in := pg.bindCodes(cands, projections)
	groups := 1
	if mg != nil {
		in.ids, groups = mg.IDs, mg.NGroups
	}
	acc := pg.newAcc(groups, false)
	pg.fold(pp, &acc, in)
	return acc, pg.answer(&acc)
}
