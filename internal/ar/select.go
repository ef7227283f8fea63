package ar

import (
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/par"
)

// SelectApproxOver narrows a candidate set with a further relaxed predicate
// on another column (conjunctive selections, e.g. the two BETWEENs of the
// spatial range query) — a column of the scanned table (key nil), or of a
// dimension it joins, read at the position each candidate's key addresses.
// The device gathers col's codes at the candidate positions and keeps the
// matches; on the host that is the scan's mask step over the granules that
// still hold a survivor (bwd.NarrowGranules), its outcome ANDed into the set's
// mask. The set is narrowed in place and returned, col attached to it with
// its key; candidate order is the order of the final mask, which is what
// filtering the list in place would have kept. Its bill is
// ChargeSelectApproxOver.
func SelectApproxOver(col *bwd.Column, key *bwd.Key, r bwd.ApproxRange, in *Candidates) *Candidates {
	in.attach = append(in.attach, attachment{col: col, key: key, rng: r})
	in.narrow(in.attach[len(in.attach)-1:], true)
	return in
}

// ChargeSelectApproxOver bills a further approximate selection of n
// candidates by cols, one per disjunct, that kept out (SelectApproxOver,
// SelectApproxAnyOver): ids streamed — with the joined positions, keyed —
// codes gathered, every disjunct evaluated, the survivors written.
func ChargeSelectApproxOver(m *device.Meter, keyed bool, n, out int, cols ...*bwd.Column) {
	seq := int64(n+out) * idBytes(keyed)
	var rnd int64
	for _, col := range cols {
		seq += packedBytes(out, col.Dec.ApproxBits)
		rnd += packedBytes(n, col.Dec.ApproxBits)
	}
	m.GPUKernel(seq, rnd, int64(n)*OpsPackedScan*int64(len(cols)))
}

// SelectRefine is the refinement of a selection (Algorithm 2): on the CPU,
// each candidate's exact value is reconstructed by bitwise concatenation of
// its approximation code and its host-resident residual, the precise
// predicate lo <= v <= hi is re-evaluated, and false positives are
// eliminated. It narrows in, in place, as one further conjunct over the
// survivor mask (bwd.NarrowGranules) whose disjunct is col's exact values
// (bwd.Exactly without tails): col's bounds settle most granules from the
// codes, and only a row whose code lies in a boundary bucket reads its
// residual. A dimension column is refined through the key it was
// approximated through: its code and residual are the ones at the position
// the candidate's key joins.
//
// The walk runs on p, a work-group at a time, so the refined set keeps the
// candidate order of the set phase A shipped and stays aligned with every
// phase-A intermediate. A walk cancelled partway returns the context's error.
// Its bill is ChargeSelectRefine.
func SelectRefine(p par.P, col *bwd.Column, key *bwd.Key, lo, hi int64, in *Candidates) error {
	return in.Narrow(p, bwd.Exactly(col, nil, lo, hi).Through(key))
}

// ChargeSelectRefine bills the refinement of a selection of n candidates by
// col that kept out of them, read through a key when keyed. §IV-C: fully
// device-resident data needs no refinement — exact codes admit no false
// positives, so that case charges nothing (the candidate set already is the
// result). Otherwise it is ChargeSelectRefineAny's pass over the one column.
func ChargeSelectRefine(p par.P, m *device.Meter, col *bwd.Column, keyed bool, n, out int) {
	if col.Dec.ResBits > 0 {
		ChargeSelectRefineAny(p, m, keyed, n, out, col)
	}
}

// ChargeSelectRefineAny bills one fused refinement pass of n candidates by the
// disjuncts cols that kept out of them (SelectRefineAny), whether or not a
// column keeps residual bits: the IDs — and beside them the joined positions,
// keyed — and every column's codes stream sequentially, residuals are touched
// at candidate order: cache-line-bounded when sparse, array-bounded when
// dense. A survivor is written as its id — through a key, as id, position and
// value. Deterministic in (n, columns): what the host short-circuits only
// saves real work, never billed work.
func ChargeSelectRefineAny(p par.P, m *device.Meter, keyed bool, n, out int, cols ...*bwd.Column) {
	seq := int64(n)*idBytes(keyed) + int64(out)*4
	if keyed {
		seq += int64(out) * 8
	}
	var ops int64
	for _, col := range cols {
		seq += packedBytes(n, col.Dec.ApproxBits)
		if col.Dec.ResBits > 0 {
			seq += device.RandomFetchBytes(int64(n), residualBytes(col.Dec.ResBits), col.Residual.Bytes())
		}
		ops += int64(n) * 2
	}
	m.CPUWork(p.NThreads(), seq, 0, ops)
}
