package plan

import (
	"context"

	"repro/internal/ar"
	"repro/internal/bwd"
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

// scanAR is the A&R scan strategy: the leg's operator list walked twice over
// one candidate set (walk) — phase A on the device over the packed codes,
// then, past the pre-grouping, the projections and the single bus crossing,
// phase R on the CPU over code and residual — ending in the base segment, the
// refined candidate set with every projected column bound to code and
// residual by its mask, which the leg then folds with its delta's into its
// accumulators. The delta segment is scanned by the classic selection before
// the ship (so the phase-A answer can include its exact contribution). A scan
// that fails releases what it built.
//
// On an exact leg (exactLeg) the approximation is the answer: nothing can be
// refined away and every interval is a point, so phase A folds the aggregates
// once, exactly, per group, straight off the packed columns, and phase R —
// still listed, checkpointed and billed operator by operator — joins and
// folds nothing.
func (pl pipeline) scanAR(st *pipeState) (_ *scanOut, err error) {
	q := &pl.q
	snap := pl.snap
	pp := st.pp
	m := st.m
	exact := pl.exactLeg()
	preGroup, views := pl.soloBill(st)
	var cands *ar.Candidates
	var delta segment
	out := &scanOut{}
	defer func() {
		if err != nil {
			out.segs = segments{{set: cands}, delta}
			out.release()
		}
	}()

	// ---- Phase A: the approximation subplan on the device, the leg's
	// operators over the packed codes.
	keys := make([]bwd.Key, len(q.Joins))
	if cands, err = pl.walk(st, phaseApprox, nil, keys); err != nil {
		return nil, err
	}

	// Every column the aggregation phase needs is projected: aggregate
	// inputs, plus the grouping keys unless the bill pre-groups them. Each is
	// bound to its codes by the mask now — the binding the folds read — and
	// charged at its projection below.
	need, refList := pl.tailKeys, pl.projKeys
	if preGroup != nil {
		need, refList = pl.tail, pl.proj
	}
	base := segment{set: cands, binds: make(map[ColRef]colBind, len(refList)+len(preGroup))}
	for _, ref := range refList {
		col := snap.get(ref.Dim, ref.Name)
		base.binds[ref] = colBind{col: col, key: pl.keyFor(keys, ref.Dim), err: col.Dec.Err()}
	}
	// A pre-grouped key column is not projected: the grouping fold reads its
	// exact values by mask, billed as the pre-grouping's refinement.
	for k, col := range preGroup {
		if ref := (ColRef{Name: q.GroupBy[k]}); base.binds[ref].col == nil {
			base.binds[ref] = colBind{col: col}
		}
	}

	// An exact leg folds its aggregates here, reading each row's key beside
	// its columns and accumulating per key: the one pass over the candidates,
	// numbered as a serial pass over them meets the keys. It runs on every
	// host core: the statement holds the stream, so it owns the device (phase
	// R and the tail keep the grant). The pre-grouping, where the bill has
	// one, counts the keys — an exact leg's fold has — and is billed.
	if exact {
		pl.fold(ar.OnDevice(pp), segments{base}, out)
	}
	if preGroup != nil {
		if exact {
			out.mg = &ar.Grouping{Cols: preGroup, NGroups: out.acc.groups, Cands: cands.Len()}
		} else {
			out.mg = ar.GroupApprox(preGroup, cands)
		}
		ar.ChargeGroupApprox(m, preGroup, cands, out.mg.NGroups)
		st.emit(cands.Len(), -1, obs.Op{Fmt: "bwd.groupapproximate(%[1]s)", A: pl.groupText})
	}

	// Approximate projections.
	projections := make(map[ColRef]*ar.Projection, len(refList))
	for _, ref := range refList {
		table := q.Table
		if ref.IsDim() {
			table = ref.Dim
		}
		b := base.binds[ref]
		projections[ref] = ar.ProjectApprox(b.col, b.key, cands)
		ar.ChargeProjectApprox(m, b.col, cands.Len())
		st.emit(cands.Len(), -1, obs.Op{Fmt: opProjectApprox, A: table, B: ref.Name})
	}

	// ---- Delta scan: the append segment lives in host memory and is never
	// decomposed; the classic selection scans its columns exactly.
	if delta, err = pl.scanDelta(st, need); err != nil {
		return nil, err
	}
	out.segs = segments{base}
	if delta.set != nil {
		out.segs = append(out.segs, delta)
	}

	// Phase-A approximate answer: strict bounds from approximations over
	// the base segment, plus the (exact) delta contributions — or, on an
	// exact leg, the answer itself, read off its fold's accumulators.
	if exact {
		st.res.Approx = pl.prog.answer(&out.acc)
	} else {
		st.res.Approx = approxAnswer(ar.OnDevice(pp), pl.prog, out.segs)
	}
	ar.ChargeCountApprox(m, cands.Len())
	st.res.Candidates += cands.Len()
	for _, a := range q.Aggs {
		st.emit(cands.Len(), -1, obs.Op{Fmt: "bwd.%[1]sapproximate(%[2]s)", A: a.Func.String(), B: a.Name})
	}

	// ---- Ship: one bus crossing for candidates, projections, groupings.
	if err := st.step(StageShip); err != nil {
		return nil, err
	}
	cands.ChargeShip(m)
	for _, ref := range refList {
		projections[ref].ChargeShip(m)
	}
	if out.mg != nil {
		out.mg.ChargeShip(m)
	}
	for range q.Joins {
		m.Transfer(int64(cands.Len()) * 4) // billed as a shipped position list
	}
	st.emit(cands.Len(), -1, obs.Op{Fmt: "ship(%[1]s, %[3]d projections)", A: q.Table, N: int64(len(refList))})
	// The approximation subplan is over: the device stream goes back, and
	// what follows runs on the CPU pool.
	if err := st.leaveDevice(true); err != nil {
		return nil, err
	}

	// ---- Phase R: the refinement subplan on the CPU, the same operators
	// over code and residual. Every refinement narrows cands itself, so the
	// refined set is the one phase A shipped and aligned with its projections
	// and pre-grouping.
	if _, err = pl.walk(st, phaseRefine, cands, keys); err != nil {
		return nil, err
	}
	st.res.Refined += cands.Len()

	// Exact values for every referenced column: code and residual, bound to
	// be read by the refined mask where the tail reads them (§V-C's fused
	// loop), billed as the projection's refinement.
	for _, ref := range refList {
		if err := st.step(StageRefine); err != nil {
			return nil, err
		}
		// On an exact leg the codes were the values and phase A has aggregated
		// them: a view, which the bill may leave unbilled (soloBill).
		if !views {
			projections[ref].ChargeRefine(pp.NThreads(), m)
		}
		base.binds[ref] = colBind{col: projections[ref].Col, key: projections[ref].Key}
		st.emit(cands.Len(), -1, obs.Op{Fmt: "bwd.leftjoinrefine(%[1]s)", A: ref.Name})
	}
	if !exact {
		pl.fold(pp, out.segs, out)
	}
	return out, nil
}

// orScratch is where a walk compiles one OR group: the decomposed columns,
// the per-disjunct relaxed ranges (each through its own column's BWD
// bounds) and exact bounds of phases A and R, or the classic scan's
// disjuncts. It lives on the walk's stack, as bill's column list does, so a
// group of up to four disjuncts allocates nothing.
type orScratch struct {
	cols     [4]*bwd.Column
	rs       [4]bwd.ApproxRange
	los, his [4]int64
	ds       [4]bwd.Disjunct
}

// orGroupRelax resolves one disjunction group against the snapshot into sc.
func (pl pipeline) orGroupRelax(filters []Filter, sc *orScratch) (cols []*bwd.Column, rs []bwd.ApproxRange, los, his []int64) {
	cols, rs, los, his = sc.cols[:0], sc.rs[:0], sc.los[:0], sc.his[:0]
	for _, f := range filters {
		col := pl.snap.get("", f.Col)
		cols, rs = append(cols, col), append(rs, col.Relax(f.Lo, f.Hi))
		los, his = append(los, f.Lo), append(his, f.Hi)
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

// keyFor is a column's addressing: of keys, aligned with the query's joins,
// the key of the join that reaches dimension dim — nil for a column of the
// scanned table (dim "").
func (pl pipeline) keyFor(keys []bwd.Key, dim string) *bwd.Key {
	if j := pl.q.joinsDim(dim); j >= 0 {
		return &keys[j]
	}
	return nil
}

// approxAnswer derives the phase-A bounds of a leg's segments, its base
// first: the candidate-count interval, and per aggregate the sum/min/max
// bounds the compiled program folds, in one fold, from the approximate
// projections over the base's certain and uncertain candidates (Split) — one
// that may be a false positive widens a sum only toward zero and an
// extreme's inner bound not at all — plus the exact contributions of the
// qualifying delta rows, the delta segment folded by its mask (the delta is
// host resident and undecomposed, so its values carry no approximation
// error). A classic leg's base is a host set with no split and exact
// columns, so its answer is exact, every interval a point. It bills nothing.
func approxAnswer(pp par.P, pg *program, segs segments) ApproxAnswer {
	base := segs[0]
	var certain, uncertain *ar.Candidates
	if len(pg.slots) > 0 {
		certain, uncertain = base.set.Split()
	}
	out := ApproxAnswer{Count: ar.CountApprox(base.set), Aggs: make([]ar.Interval, len(pg.aggs))}
	acc := pg.newAcc(1, true)
	var buf [3]rows // the base's certain and uncertain sets and the delta, on the stack
	ins := append(buf[:0], pg.bind(base))
	if certain != nil {
		ins[0].by = certain
		ins = append(ins, ins[0])
		ins[1].by, ins[1].uncertain = uncertain, true
	}
	for _, d := range segs[1:] {
		out.Count.Lo += int64(d.set.Len())
		out.Count.Hi += int64(d.set.Len())
		ins = append(ins, pg.bind(d))
	}
	pg.fold(pp, &acc, nil, ins...)
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
