package plan

import (
	"context"
	"fmt"

	"repro/internal/ar"
	"repro/internal/bwd"
	"repro/internal/device"
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
	// each assuming all of it. 0 means Threads. It is phase R's and the
	// tail's budget: an A&R leg's phase A holds the device stream and runs
	// on every host core (ar.OnDevice). Simulated figures are identical for
	// every Workers value.
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
// the CPU — ending in the base segment for the shared pipeline tail: the
// refined candidate set, every projected column bound to code and residual
// by its mask. The delta segment is scanned by the classic selection before
// the ship (so the phase-A answer can include its exact contribution) and
// follows the base's. solo permits the device-side pre-grouping: this leg is
// the only one the statement scans. A scan that fails releases what it built.
//
// On an exact leg (exactLeg) the approximation is the answer: nothing can be
// refined away and every interval is a point, so phase A folds the aggregates
// once, exactly, per pre-group, straight off the packed columns, and phase R
// — still listed, checkpointed and billed operator by operator — joins and
// folds nothing; scanOut carries the accumulators to the tail.
func (pl pipeline) scanAR(st *pipeState, solo bool) (_ *scanOut, err error) {
	q := &pl.q
	snap := pl.snap
	pp := st.pp
	m := st.m
	exact := pl.exactLeg(solo)
	var cands *ar.Candidates
	var delta segment
	out := &scanOut{exact: exact}
	defer func() {
		if err != nil {
			out.segs = segments{{set: cands}, delta}
			out.release()
		}
	}()

	// ---- Phase A: the approximation subplan on the device.
	if err := st.step(StageApprox); err != nil {
		return nil, err
	}
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
		if _, err := ar.JoinApprox(m, key, cands); err != nil {
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

	if cols := pl.devGroupCols(solo); cols != nil {
		out.mg = ar.GroupApprox(m, cols, cands)
		st.emit(cands.Len(), -1, obs.Op{Fmt: "bwd.groupapproximate(%[1]s)", A: pl.groupText})
	}

	// Approximate projections for every column the aggregation phase
	// needs: aggregate inputs, plus the grouping keys when grouping merges
	// with the delta on the host.
	need, refList := pl.tailKeys, pl.projKeys
	if out.mg != nil {
		need, refList = pl.tail, pl.proj
	}
	projections := make(map[ColRef]*ar.Projection, len(refList))
	base := segment{set: cands, binds: make(map[ColRef]colBind, len(refList))}
	for _, ref := range refList {
		table := q.Table
		if ref.IsDim() {
			table = ref.Dim
		}
		projections[ref] = ar.ProjectApprox(m, snap.get(ref.Dim, ref.Name), pl.keyFor(keys, ref.Dim), cands)
		base.binds[ref] = colBind{col: projections[ref].Col, key: projections[ref].Key, err: projections[ref].Col.Dec.Err()}
		st.emit(cands.Len(), -1, obs.Op{Fmt: opProjectApprox, A: table, B: ref.Name})
	}

	// ---- Delta scan: the append segment lives in host memory and is never
	// decomposed; the classic selection scans its columns exactly.
	if delta, err = pl.scanDelta(st, need); err != nil {
		return nil, err
	}

	// Phase-A approximate answer: strict bounds from approximations over
	// the base segment, plus the (exact) delta contributions — or, on an
	// exact leg, the answer itself, read off the one fold's accumulators.
	// Either fold runs on every host core: the statement holds the stream,
	// so it owns the device (phase R and the tail keep the grant).
	if exact {
		out.acc, st.res.Approx = exactFold(ar.OnDevice(pp), m, pl.prog, base, out.mg)
	} else {
		st.res.Approx = approxAnswer(ar.OnDevice(pp), m, pl.prog, base, delta)
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
	if out.mg != nil {
		out.mg.Ship(m)
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
	// Every refinement narrows cands itself, so the refined set is the one
	// phase A shipped and aligned with its projections and pre-grouping.
	for _, rf := range pl.factFilters {
		if err := st.step(StageRefine); err != nil {
			return nil, err
		}
		if d := snap.get("", rf.f.Col); d.Dec.ResBits > 0 {
			// §IV-C: over a fully device-resident column the relaxed range
			// was the exact predicate and the candidates are the result — no
			// refinement runs (and none is charged).
			if err := ar.SelectRefine(pp, m, d, nil, rf.f.Lo, rf.f.Hi, cands); err != nil {
				return nil, err
			}
		}
		st.emit(cands.Len(), st.estApply(rf.estSel()), obs.Op{Fmt: opSelectRefine, A: q.Table, B: rf.f.Col})
	}
	for _, g := range pl.orGroups {
		if err := st.step(StageRefine); err != nil {
			return nil, err
		}
		cols, _, los, his := pl.orGroupRelax(g)
		if err := ar.SelectRefineAny(pp, m, cols, los, his, cands); err != nil {
			return nil, err
		}
		st.emit(cands.Len(), st.estApply(g.sel), obs.Op{Fmt: "bwd.uselectanyrefine(%[1]s)", A: g.text})
	}
	for ji, js := range pl.joins {
		spec := js.spec
		st.emit(cands.Len(), -1, obs.Op{Fmt: "bwd.leftjoinrefine(%[1]s.%[2]s)", A: q.Table, B: js.arrow})
		for _, rf := range js.dimFilters {
			if err := st.step(StageRefine); err != nil {
				return nil, err
			}
			if dd := snap.get(spec.Dim, rf.f.Col); dd.Dec.ResBits > 0 { // resident: as above
				if err := ar.SelectRefine(pp, m, dd, &keys[ji], rf.f.Lo, rf.f.Hi, cands); err != nil {
					return nil, err
				}
			}
			st.emit(cands.Len(), st.estApply(rf.estSel()), obs.Op{Fmt: opSelectRefine, A: spec.Dim, B: rf.f.Col})
		}
	}
	st.res.Refined = cands.Len()

	// Exact values for every referenced column: code and residual, bound to
	// be read by the refined mask where the tail reads them (§V-C's fused
	// loop), billed as the projection's refinement.
	for _, ref := range refList {
		if err := st.step(StageRefine); err != nil {
			return nil, err
		}
		// On an exact leg the codes were the values and phase A has aggregated
		// them: a view, which the refinement of a resident projection is
		// billed as anyway.
		if !exact {
			projections[ref].ChargeRefine(pp.NThreads(), m)
		}
		base.binds[ref] = colBind{col: projections[ref].Col, key: projections[ref].Key}
		st.emit(cands.Len(), -1, obs.Op{Fmt: "bwd.leftjoinrefine(%[1]s)", A: ref.Name})
	}

	// The segments travel on to the shared tail; Run releases their sets
	// after aggregation (with the pre-grouping, which still reads the base's).
	out.segs = segments{base}
	if delta.set != nil {
		out.segs = append(out.segs, delta)
	}
	return out, nil
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

// approxAnswer derives the phase-A bounds: the candidate-count interval, and
// per aggregate the sum/min/max bounds the compiled program folds from the
// approximate projections over the base segment — a candidate that may be a
// false positive (outside the certain-mask) widens a sum only toward zero —
// plus the exact contributions of the qualifying delta rows, the delta
// segment folded by its mask (the delta is host resident and undecomposed,
// so its values carry no approximation error).
func approxAnswer(pp par.P, m *device.Meter, pg *program, base, delta segment) ApproxAnswer {
	out := ApproxAnswer{Count: ar.CountApprox(m, base.set), Aggs: make([]ar.Interval, len(pg.aggs))}
	acc := pg.newAcc(1, true)
	in := pg.bind(base)
	in.certain = base.set.CertainMask()
	pg.fold(pp, &acc, in)
	if delta.set != nil {
		out.Count.Lo += int64(delta.set.Len())
		out.Count.Hi += int64(delta.set.Len())
		pg.fold(pp, &acc, pg.bind(delta))
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
func exactFold(pp par.P, m *device.Meter, pg *program, base segment, mg *ar.Grouping) (aggAcc, ApproxAnswer) {
	ar.CountApprox(m, base.set)
	in := pg.bind(base)
	groups := 1
	if mg != nil {
		in.ids, groups = mg.IDs, mg.NGroups
	}
	acc := pg.newAcc(groups, false)
	pg.fold(pp, &acc, in)
	return acc, pg.answer(&acc)
}
