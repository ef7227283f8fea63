package ar

import (
	"repro/internal/bat"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/par"
)

// This file implements the disjunction (OR) selection operators: the
// approximate select of a union of relaxed ranges — each disjunct relaxed
// through its own column's BWD bounds — and its refinement. The candidate
// union never materializes per-disjunct sets: one pass evaluates every
// disjunct per tuple, so the device output is already the union, in the
// same deterministic permutation as a conjunctive scan.

// SelectApproxAny is the approximation of a disjunctive selection over the
// bitwise decomposed columns cols with relaxed ranges rs (one per
// disjunct, possibly repeating a column): the device scans every disjunct
// column's packed approximation and emits the tuples whose code matches
// any relaxed range — a superset of the exact OR result. All disjunct
// columns' codes attach to the candidates under one disjunction group id,
// so Certain and the refinement can evaluate the group as a whole.
//
// Host-side, every disjunct column is decoded word-parallel into one flat
// morsel-scratch block (bitpack.UnpackRange) and matches land in disjoint
// arena regions, concatenated in the deterministic device permutation.
func SelectApproxAny(m *device.Meter, cols []*bwd.Column, rs []bwd.ApproxRange, group int) *Candidates {
	n := cols[0].Len()
	k := len(cols)
	c := getCandidates()
	total := 0
	nchunks := (n + gpuChunk - 1) / gpuChunk
	if n > 0 {
		idsBuf := oidPool.GetN(n)
		colBufs := make([][]uint64, k)
		for j := range colBufs {
			colBufs[j] = mem.U64.GetN(n)
		}
		counts := mem.Ints.GetN(nchunks)
		devP.ForScratch(n, func(s *mem.Scratch, lo, hi int) {
			g := hi - lo
			dec := s.U64(k * g)
			for j, col := range cols {
				col.Approx.UnpackRange(dec[j*g:j*g:(j+1)*g], lo, hi)
			}
			cnt := 0
			for i := 0; i < g; i++ {
				match := false
				for j := range cols {
					if rs[j].Contains(dec[j*g+i]) {
						match = true
						break
					}
				}
				if match {
					idsBuf[lo+cnt] = bat.OID(lo + i)
					for j := range cols {
						colBufs[j][lo+cnt] = dec[j*g+i]
					}
					cnt++
				}
			}
			counts[lo/gpuChunk] = cnt
		})
		for _, cnt := range counts {
			total += cnt
		}
		order := par.PermuteInto(mem.Ints.GetN(nchunks))
		c.IDs = oidPool.GetN(total)
		off := 0
		for _, ci := range order {
			cnt := counts[ci]
			copy(c.IDs[off:off+cnt], idsBuf[ci*gpuChunk:ci*gpuChunk+cnt])
			off += cnt
		}
		for j, col := range cols {
			codes := mem.U64.GetN(total)
			off = 0
			for _, ci := range order {
				cnt := counts[ci]
				copy(codes[off:off+cnt], colBufs[j][ci*gpuChunk:ci*gpuChunk+cnt])
				off += cnt
			}
			c.attach = append(c.attach, attachment{col: col, codes: codes, rng: rs[j], filtered: true, group: group})
			mem.U64.Put(colBufs[j])
		}
		mem.Ints.Put(order)
		mem.Ints.Put(counts)
		oidPool.Put(idsBuf)
	} else {
		c.IDs = oidPool.GetN(0)
		for j, col := range cols {
			c.attach = append(c.attach, attachment{col: col, codes: mem.U64.GetN(0), rng: rs[j], filtered: true, group: group})
		}
	}
	if m != nil {
		var scanned int64
		var written int64 = int64(total) * 4
		for _, col := range cols {
			scanned += col.Approx.Bytes()
			written += packedBytes(total, col.Dec.ApproxBits)
		}
		m.GPUKernel(scanned+written, 0, int64(n)*OpsPackedScan*int64(k))
	}
	return c
}

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
