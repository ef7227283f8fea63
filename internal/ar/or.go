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
// refinement of a disjunction. The full-column disjunctive scan,
// SelectApproxAny, is the k-column case of the one approximate scan in
// scan.go. The candidate union never materializes per-disjunct sets: one
// pass evaluates every disjunct per tuple.

// SelectApproxAnyOver narrows an existing candidate set with a further
// disjunctive predicate: the device gathers each disjunct column's codes
// at the candidate positions and keeps the tuples matching any relaxed
// range, preserving candidate order so later translucent joins remain
// valid.
func SelectApproxAnyOver(m *device.Meter, cols []*bwd.Column, rs []bwd.ApproxRange, in *Candidates, group int) *Candidates {
	keep := mem.Ints.Get(len(in.IDs))
	colBufs := make([][]uint64, len(cols))
	for j := range colBufs {
		colBufs[j] = mem.U64.Get(len(in.IDs))
	}
	for i, id := range in.IDs {
		match := false
		for j, col := range cols {
			code := col.Approx.Get(int(id))
			colBufs[j] = append(colBufs[j], code)
			if rs[j].Contains(code) {
				match = true
			}
		}
		if match {
			keep = append(keep, i)
		} else {
			for j := range colBufs {
				colBufs[j] = colBufs[j][:len(colBufs[j])-1]
			}
		}
	}
	out := in.filterTo(keep)
	out.shipped = false // a fresh device-side intermediate
	for j, col := range cols {
		out.attach = append(out.attach, attachment{col: col, codes: colBufs[j], rng: rs[j], filtered: true, group: group})
	}
	if m != nil {
		n := len(in.IDs)
		seq := int64(n)*4 + int64(len(keep))*4
		var rnd int64
		for _, col := range cols {
			seq += packedBytes(len(keep), col.Dec.ApproxBits)
			rnd += packedBytes(n, col.Dec.ApproxBits)
		}
		m.GPUKernel(seq, rnd, int64(n)*OpsPackedScan*int64(len(cols)))
	}
	mem.Ints.Put(keep)
	return out
}

// SelectRefineAny is the refinement of a disjunctive selection: on the
// CPU, each candidate's exact value is reconstructed per disjunct column
// (shipped code + host-resident residual) and the precise disjunction —
// any lo_k <= v_k <= hi_k — is re-evaluated, eliminating false positives.
// Morsel survivors land in disjoint arena regions and left-pack in morsel
// order, preserving candidate order exactly like the conjunctive
// refinement.
func SelectRefineAny(p par.P, m *device.Meter, cols []*bwd.Column, los, his []int64, in *Candidates) *Candidates {
	codes := make([][]uint64, len(cols))
	for k, col := range cols {
		codes[k] = in.CodesFor(col)
		if codes[k] == nil {
			panic("ar: SelectRefineAny on a column that was never approximated over these candidates")
		}
	}
	n := len(in.IDs)
	keepBuf := mem.Ints.GetN(n)
	counts, _, err := par.ForCounted(p, n, func(_ *mem.Scratch, _, mlo, mhi int) int {
		cnt := 0
		for i := mlo; i < mhi; i++ {
			for k, col := range cols {
				var r uint64
				if col.Dec.ResBits > 0 {
					r = col.Residual.Get(int(in.IDs[i]))
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
	if m != nil {
		// Charge one fused disjunction pass: IDs and every disjunct's codes
		// stream sequentially, residuals are touched at candidate order.
		// Deterministic in (n, columns) — the short-circuit above only
		// saves real work, never billed work.
		seq := int64(n)*4 + int64(len(keep))*4
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
	return out
}
