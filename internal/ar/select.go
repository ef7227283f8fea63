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
// filtering the list in place would have kept.
func SelectApproxOver(m *device.Meter, col *bwd.Column, key *bwd.Key, r bwd.ApproxRange, in *Candidates) *Candidates {
	n := in.Len()
	in.attach = append(in.attach, attachment{col: col, key: key, rng: r})
	in.narrow(in.attach[len(in.attach)-1:], true)
	in.shipped = false // a fresh device-side intermediate
	if m != nil {
		seq := int64(n+in.n)*idBytes(key) + packedBytes(in.n, col.Dec.ApproxBits)
		m.GPUKernel(seq, packedBytes(n, col.Dec.ApproxBits), int64(n)*OpsPackedScan)
	}
	return in
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
func SelectRefine(p par.P, m *device.Meter, col *bwd.Column, key *bwd.Key, lo, hi int64, in *Candidates) error {
	n := in.Len()
	if err := in.Narrow(p, bwd.Exactly(col, nil, lo, hi).Through(key)); err != nil {
		return err
	}
	if m != nil && col.Dec.ResBits > 0 {
		// §IV-C: fully device-resident data needs no refinement — exact
		// codes admit no false positives, so that case charges nothing
		// (the candidate set already is the result). Otherwise the fused
		// loop streams IDs and codes and touches the residual at candidate
		// order: cache-line-bounded when sparse, array-bounded when dense.
		// A survivor is written as its id — through a key, as id, position
		// and value.
		resFetch := device.RandomFetchBytes(int64(n), residualBytes(col.Dec.ResBits), col.Residual.Bytes())
		written := int64(in.n) * 4
		if key != nil {
			written *= 3
		}
		seq := int64(n)*idBytes(key) + packedBytes(n, col.Dec.ApproxBits) + resFetch + written
		m.CPUWork(p.NThreads(), seq, 0, int64(n)*2)
	}
	return nil
}
