package ar

import (
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/par"
)

// This file implements the disjunction (OR) operators that run over an
// existing candidate set: narrowing it with a union of relaxed ranges —
// each disjunct relaxed through its own column's BWD bounds — and the
// refinement of a disjunction. Both the full-column disjunctive scan,
// SelectApproxAny, and the narrowing are the k-column case of the one mask
// step in scan.go. The candidate union never materializes per-disjunct
// sets: one pass evaluates every disjunct per granule.

// SelectApproxAnyOver narrows a candidate set with a further disjunctive
// predicate: the device gathers each disjunct column's codes at the
// candidate positions and keeps the tuples matching any relaxed range. Like
// SelectApproxOver it is the scan's mask step over the granules that still
// hold a survivor — per granule the union of the disjuncts' outcomes, ANDed
// into the set's mask — narrowing in in place and attaching every disjunct
// column under the group id.
func SelectApproxAnyOver(m *device.Meter, cols []*bwd.Column, rs []bwd.ApproxRange, in *Candidates, group int) *Candidates {
	n := in.Len()
	first := len(in.attach)
	for j, col := range cols {
		in.attach = append(in.attach, attachment{col: col, rng: rs[j], filtered: true, group: group})
	}
	in.narrow(in.attach[first:], true)
	in.shipped = false // a fresh device-side intermediate
	if m != nil {
		seq := int64(n)*4 + int64(in.n)*4
		var rnd int64
		for _, col := range cols {
			seq += packedBytes(in.n, col.Dec.ApproxBits)
			rnd += packedBytes(n, col.Dec.ApproxBits)
		}
		m.GPUKernel(seq, rnd, int64(n)*OpsPackedScan*int64(len(cols)))
	}
	return in
}

// SelectRefineAny is the refinement of a disjunctive selection: on the
// CPU, each candidate's exact value is reconstructed per disjunct column
// (shipped code + host-resident residual) and the precise disjunction —
// any lo_k <= v_k <= hi_k — is re-evaluated, eliminating false positives.
// Morsel survivors land in disjoint arena regions and left-pack in morsel
// order, preserving candidate order exactly like the conjunctive
// refinement. When every disjunct column is fully device resident the
// relaxed ranges were the exact predicates (§IV-C): no candidate can be
// eliminated, the pass is charged but not run, and in itself is returned.
func SelectRefineAny(p par.P, m *device.Meter, cols []*bwd.Column, los, his []int64, in *Candidates) *Candidates {
	n := in.Len()
	resident := true
	for _, col := range cols {
		resident = resident && col.Dec.ResBits == 0
	}
	if resident {
		chargeRefineAny(p, m, cols, n, n)
		return in
	}
	codes := make([][]uint64, len(cols))
	for k, col := range cols {
		codes[k] = in.CodesFor(col)
		if codes[k] == nil {
			panic("ar: SelectRefineAny on a column that was never approximated over these candidates")
		}
	}
	ids := in.IDs()
	keepBuf := mem.Ints.GetN(n)
	counts, _, err := par.ForCounted(p, n, func(_ *mem.Scratch, _, mlo, mhi int) int {
		cnt := 0
		for i := mlo; i < mhi; i++ {
			for k, col := range cols {
				var r uint64
				if col.Dec.ResBits > 0 {
					r = col.Residual.Get(int(ids[i]))
				}
				v := col.ReconstructFrom(codes[k][i], r)
				if v >= los[k] && v <= his[k] {
					keepBuf[mlo+cnt] = i
					cnt++
					break
				}
			}
		}
		return cnt
	})
	var keep []int
	if err != nil {
		keep = keepBuf[:0]
	} else {
		keep = par.Compact(counts, p.ChunkSize(), keepBuf)
		mem.Ints.Put(counts)
	}
	out := in.filterTo(keep)
	mem.Ints.Put(keepBuf)
	chargeRefineAny(p, m, cols, n, len(keep))
	return out
}

// chargeRefineAny bills one fused disjunction pass over n candidates of
// which kept survive: IDs and every disjunct's codes stream sequentially,
// residuals are touched at candidate order. Deterministic in (n, columns) —
// what the host short-circuits only saves real work, never billed work.
func chargeRefineAny(p par.P, m *device.Meter, cols []*bwd.Column, n, kept int) {
	if m == nil {
		return
	}
	seq := int64(n)*4 + int64(kept)*4
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
