// The one execution path. A table is an ordered list of legs — a plain
// table is one leg under its own name, a partitioned table (internal/shard)
// is N independent store.Tables behind one name — and every statement runs
// the same way: pin the plan's legs (plan.go: prune, pin each leg's snapshot,
// settle its scan mode), scan them — classic or A&R per leg, concurrently when
// there are several, each A&R scan admitted onto its simulated device stream
// by the engine's DeviceGate for its approximation subplan and off it at its
// ship — each leg folding its own segments, base then delta, into its own
// accumulators, then gather the legs' accumulators into the one shared
// pipeline tail (HAVING, top-k, the rows).
//
// Determinism contract: the gather merges everything — accumulators, meters,
// phase-A bounds, candidate counts — in leg order, and each leg's scan and
// fold is internally deterministic for any worker count. The aggregates are
// distributive, so the merge of the legs' folds is the fold of their union
// (TestKeyedFoldMergeLaw), and a group is numbered where it first appears in
// leg order, base before delta. Result rows are therefore byte-identical to
// the unpartitioned execution of the same data at every partition count, and
// the simulated figures are bit-identical across worker-count and morsel-size
// sweeps at any fixed partition count. A scatter that scans exactly one leg (a
// 1-partition table, or a range table pruned to one slab) runs the very code
// a plain table does, so its meter is the plain table's too.
package plan

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/ar"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/shard"
)

// DeviceGate admission-controls the device streams A&R legs scan on. The
// engine's scheduler implements it over its device ledger — the statement
// streams and one slot per simulated partition device — generalizing Fig
// 11's contention model: concurrent queries over the same partition
// serialize on its stream while scans of distinct partitions overlap
// freely. A stream is held for the approximation subplan only (§III item 4:
// it runs entirely on the device, then refinement runs on the CPU): every
// A&R leg asks for its stream before phase A and hands it back at its ship.
type DeviceGate interface {
	// AcquireStream blocks until the stream leg part scans on is free, or ctx
	// is done. part is the partition number, or -1 for a plain table's one
	// leg, which scans on the stream its statement was admitted to.
	AcquireStream(ctx context.Context, part int) error
	// ReleaseStream hands the stream back, once per acquisition. shipped is
	// true at the ship checkpoint — the leg's approximation subplan has
	// crossed the bus, the rest of it needs the CPU, which the gate may make
	// it wait for (or fail with ctx's error) — and false for a leg that
	// failed first.
	ReleaseStream(ctx context.Context, part int, shipped bool) error
}

// leg is one scan of one leg table: pinned by Pin (idx, pl), run by scan on
// its own execution state, consumed by the gather.
type leg struct {
	idx  int // position in the table's leg order: the partition number
	pl   pipeline
	st   pipeState
	out  *scanOut
	wall time.Duration
	err  error
}

// prunePartitions marks the partitions a scatter must scan: for a
// range-partitioned table whose conjunctive filters constrain the
// partitioning column, every partition whose value slab is disjoint from
// the filter interval is skipped before any leg is planned. Pruning is exact
// — a row routed to a pruned partition has its partitioning value inside
// that slab, so it fails the filter and contributes nothing — which keeps
// the gathered result rows byte-identical to the unpruned scatter (the
// phase-A bounds can only tighten: pruned legs' approximate candidates
// disappear). Hash partitions and disjunction groups never prune; nil means
// every partition is scanned. At least one leg always survives so the
// executor shape (and an all-pruned query's empty result) stays uniform.
func prunePartitions(q Query, spec shard.Spec) []bool {
	if spec.Kind != shard.Range || spec.N <= 1 {
		return nil
	}
	flo, fhi := int64(NoLo), int64(NoHi)
	found := false
	for _, f := range q.Filters {
		if f.Col != spec.Col {
			continue
		}
		found = true
		if f.Lo > flo {
			flo = f.Lo
		}
		if f.Hi < fhi {
			fhi = f.Hi
		}
	}
	if !found {
		return nil
	}
	keep := make([]bool, spec.N)
	any := false
	for i := range keep {
		lo, hi, ok := spec.Slab(i)
		keep[i] = !ok || (fhi >= lo && flo <= hi)
		any = any || keep[i]
	}
	keep[0] = keep[0] || !any
	return keep
}

// newState builds the mutable state of one execution — a leg's scan, or the
// gather of several — with its own meter and result.
func (c *Catalog) newState(ctx context.Context, opts ExecOpts, nOps int) pipeState {
	m := device.NewMeter(c.sys)
	res := &Result{Meter: m, ops: make([]planLine, 0, nOps)}
	return pipeState{ctx: ctx, opts: opts, pp: opts.par(ctx), m: m, res: res}
}

// scan runs the leg's scan source, which ends in the leg's accumulators, and
// hands the leg's sets back to the arena; the leg's result carries its
// candidate counts and phase-A answer. An A&R scan holds device stream part
// of the gate (when there is one) from here to its ship checkpoint — or to
// the failure that keeps it from getting there.
func (lg *leg) scan(gate DeviceGate, part int, stmtClassic bool) {
	start := time.Now()
	defer func() { lg.wall = time.Since(start) }()
	st, pl := &lg.st, lg.pl
	if gate != nil && !pl.classic {
		if lg.err = gate.AcquireStream(st.ctx, part); lg.err != nil {
			return
		}
		st.gate, st.part = gate, part
		defer st.leaveDevice(false)
	}
	if pl.classic {
		lg.out, lg.err = pl.scanClassic(st)
	} else {
		lg.out, lg.err = pl.scanAR(st)
	}
	if lg.err != nil {
		return
	}
	lg.out.dropSets()
	// A cancellation mid-kernel leaves the scan incomplete (workers stop
	// claiming morsels); never gather a partial leg.
	if lg.err = st.ctx.Err(); lg.err != nil {
		return
	}
	if pl.classic && !stmtClassic {
		// A classic leg's partial is exact, so a mixed-mode scatter still
		// reports strict phase-A bounds: its own accumulators'.
		st.res.Approx = pl.prog.answer(&lg.out.acc)
	}
}

// scatter scans several legs concurrently, each on a private state, and
// reports the first failure, preferring a leg's own over the cancellations
// it caused.
func (c *Catalog) scatter(ctx context.Context, legs []leg, opts ExecOpts, gate DeviceGate, classic bool) error {
	scanCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for li := range legs {
		lg := &legs[li]
		lg.st = c.newState(scanCtx, opts, lg.pl.nOps)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if lg.scan(gate, lg.idx, classic); lg.err != nil {
				cancel()
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	var scanErr error
	for li := range legs {
		if err := legs[li].err; err != nil && (scanErr == nil ||
			errors.Is(scanErr, context.Canceled) && !errors.Is(err, context.Canceled)) {
			scanErr = err
		}
	}
	return scanErr
}

// Run is the executor: scan the pinned legs, each folding its own segments,
// merge their accumulators in leg order, run the shared tail once. One leg runs
// inline on the caller's goroutine and the tail continues on the leg's own
// state and accumulators; several run concurrently (scatter) and gatherLegs
// merges them. The pipeline polls ctx between stages (plan.Stage) and returns
// ctx.Err() without a result once the context is done. Every leg's sets go
// back to the arena once it has folded them, or its scan failed, and its
// accumulators once the tail is done with them, or the statement failed.
func (c *Catalog) Run(ctx context.Context, x *Pinned, opts ExecOpts) (*Result, error) {
	legs, p, pl, classic := x.legs, x.p, x.pl, x.pr.choice.Classic
	q := &pl.q
	defer func() {
		for li := range legs {
			legs[li].out.release()
			legs[li].out = nil
		}
	}()
	// Each leg gets an equal share of the real worker pool; the simulated
	// Threads stay untouched, so the meter is independent of how the pool
	// is split. A plain table's leg has no partition device of its own.
	legOpts, gate, part, pruned := opts, opts.Gate, -1, 0
	legOpts.Workers = max(1, opts.workers()/len(legs))
	if p != nil {
		part = legs[0].idx
		pruned = p.Spec.N - len(legs)
		c.prunedParts.Add(int64(pruned))
	}
	lg := &legs[0]
	st := &lg.st
	var out *scanOut
	if len(legs) == 1 {
		lg.st = c.newState(ctx, legOpts, pl.nOps)
		lg.st.solo = true
		if p == nil && opts.Trace {
			// A plain table's scan operators are its trace events.
			st.startTrace(classic)
		}
		if lg.scan(gate, part, classic); lg.err != nil {
			return nil, lg.err
		}
		out = lg.out
	} else {
		if err := c.scatter(ctx, legs, legOpts, gate, classic); err != nil {
			return nil, err
		}
		gst := c.newState(ctx, opts, pl.nOps)
		st = &gst
		out = gatherLegs(st, pl, legs, classic)
		defer out.acc.release() // the legs keep their own
	}
	st.res.InputBytes = scatterInputBytes(pl, legs)

	if p != nil {
		// A partitioned table's listing and trace lead with the fan-out: each
		// leg's mode and counts over its indented scan operators, one scatter
		// event per leg, then the gather.
		if opts.Trace {
			st.startTrace(classic)
		}
		lines := make([]planLine, 0, 2+len(legs)*(1+pl.nOps))
		lines = append(lines, planLine{op: obs.Op{Fmt: "scatter: %[1]s over %[3]d partitions (%[2]s)", A: q.Table, B: p.Spec.String(), N: int64(p.Spec.N)}})
		if pruned > 0 {
			lines = append(lines, planLine{op: obs.Op{Fmt: "  pruned: %[3]d of %[4]d partitions (filters on %[1]s exclude their slabs)", A: p.Spec.Col, N: int64(pruned), M: int64(p.Spec.N)}})
		}
		for li := range legs {
			lg := &legs[li]
			ls, mode := &lg.st, modeName(lg.pl.classic)
			lines = append(lines, planLine{op: obs.Op{Fmt: "  partition %[3]d: mode=%[1]s, %[4]d candidates, %[5]d refined",
				A: mode, N: int64(lg.idx), M: int64(ls.res.Candidates), K: int64(ls.res.Refined)}})
			for _, l := range ls.res.ops {
				lines = append(lines, planLine{op: l.op, indent: 4})
			}
			if st.tr != nil {
				st.tr.Add(obs.StageEvent{
					Stage: string(StageScatter),
					Op:    obs.Op{Fmt: "scatter(%[1]s, mode=%[2]s)", A: lg.pl.q.Table, B: mode},
					Rows:  int64(lg.out.rows),
					Est:   lg.pl.estCand(),
					Wall:  lg.wall,
					GPU:   ls.m.GPU,
					CPU:   ls.m.CPU,
					PCI:   ls.m.PCI,
				})
			}
		}
		st.res.ops = lines
		// Baseline the tail's trace deltas after the legs' charges.
		if st.tr != nil {
			st.last = *st.m
			st.mark = time.Since(st.tr.Start)
		}
		if err := st.step(StageGather); err != nil {
			return nil, err
		}
		st.emit(out.rows, -1, obs.Op{Fmt: "gather(%[1]s, %[3]d partitions)", A: q.Table, N: int64(len(legs))})
	}

	if err := finish(st, pl, classic, out); err != nil {
		return nil, err
	}
	// A context cancelled mid-kernel leaves that kernel's output incomplete;
	// the final check guarantees such partial results are never returned as
	// an answer.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if st.tr != nil {
		st.tr.Wall = time.Since(st.tr.Start)
		st.tr.Candidates = int64(st.res.Candidates)
		st.tr.Refined = int64(st.res.Refined)
		st.tr.Rows = int64(len(st.res.Rows))
		st.tr.EstCandidates = estCandidates(legs)
	}
	return st.res, nil
}

// gatherLegs merges the partials of several legs onto the gather state st,
// in leg order: meters, candidate counts and folded rows add, the phase-A
// answers combine, and the legs' accumulators merge (program.mergeFolds) —
// the legs keep their own.
func gatherLegs(st *pipeState, pl *Plan, legs []leg, classic bool) *scanOut {
	answers, parts, keys := make([]ApproxAnswer, len(legs)), make([]aggAcc, len(legs)), make([][][]int64, len(legs))
	merged := &scanOut{}
	for li := range legs {
		ls, out := &legs[li].st, legs[li].out
		st.m.Add(ls.m)
		st.res.Candidates += ls.res.Candidates
		st.res.Refined += ls.res.Refined
		answers[li] = ls.res.Approx
		merged.rows += out.rows
		parts[li], keys[li] = out.acc, out.keys
	}
	merged.acc, merged.keys = pl.prog.mergeFolds(parts, keys)
	if !classic {
		st.res.Approx = combineAnswers(pl.q, answers)
	}
	return merged
}

// estCandidates is the planner's estimate of the statement's candidate rows,
// which the trace footer sets against the actual count: the legs' estimates
// (legPlan.estCand) summed, -1 when one is unknown.
func estCandidates(legs []leg) int64 {
	var n int64
	for i := range legs {
		e := legs[i].pl.estCand()
		if e < 0 {
			return -1
		}
		n += e
	}
	return n
}

// scatterInputBytes sums the stream-baseline footprint of the scanned legs:
// the physical size of every fact column the query reads plus the delta
// segment's whole rows (DeltaBytes), per leg, and each joined dimension
// column exactly once (dimensions are shared, not partitioned).
func scatterInputBytes(pl *Plan, legs []leg) int64 {
	var total int64
	for i := range legs {
		s := legs[i].pl.snap
		for _, ref := range pl.cols {
			if i > 0 && ref.IsDim() {
				continue // dimension columns count once
			}
			fs := s.snapFor(ref.Dim)
			if w, err := fs.Table().ColumnWidth(ref.Name); err == nil {
				total += int64(fs.BaseLen()) * int64(w)
			}
		}
		total += s.fact.DeltaBytes()
	}
	return total
}

// combineAnswers folds per-partition phase-A answers into bounds for the
// whole table, over the partitions that may hold qualifying rows (Count.Hi >
// 0). Counts and sums add. An extreme takes the least (Min) or the greatest
// (Max) of each of its sides: a partition with no certain row holds its fold's
// identity on the inner side, which an uncertain candidate never tightens, so
// only a partition that certainly holds rows moves the inner bound. Averages
// take the conservative hull of the per-partition intervals.
func combineAnswers(q Query, answers []ApproxAnswer) ApproxAnswer {
	out := ApproxAnswer{Aggs: make([]ar.Interval, len(q.Aggs))}
	first := true
	for _, a := range answers {
		out.Count.Lo += a.Count.Lo
		out.Count.Hi += a.Count.Hi
		if a.Count.Hi == 0 {
			continue
		}
		for k, spec := range q.Aggs {
			iv, o := a.Aggs[k], &out.Aggs[k]
			switch {
			case spec.Func == Count || spec.Func == Sum:
				o.Lo, o.Hi = o.Lo+iv.Lo, o.Hi+iv.Hi
			case first:
				*o = iv
			case spec.Func == Min:
				o.Lo, o.Hi = min(o.Lo, iv.Lo), min(o.Hi, iv.Hi)
			case spec.Func == Max:
				o.Lo, o.Hi = max(o.Lo, iv.Lo), max(o.Hi, iv.Hi)
			default: // Avg
				o.Lo, o.Hi = min(o.Lo, iv.Lo), max(o.Hi, iv.Hi)
			}
		}
		first = false
	}
	return out
}
