package ar

import (
	"repro/internal/bat"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/par"
)

// Dimension-side operators: after a foreign-key join has mapped each fact
// candidate to a dimension position (FKPositionsApprox), selections and
// projections on dimension attributes address the dimension column through
// that position indirection while the candidate list itself stays
// fact-side. This is how the paper evaluates TPC-H Q14's predicate on
// part.p_type (§VI-D1): FK joins share the projective-join code path.

// SelectApproxAt narrows a candidate set with a relaxed predicate on a
// dimension column, gathering codes at the joined dimension positions `at`
// (aligned with in). It returns the filtered candidates — with the
// dimension codes attached for later refinement — and the correspondingly
// filtered position list.
func SelectApproxAt(m *device.Meter, col *bwd.Column, r bwd.ApproxRange, in *Candidates, at []bat.OID) (*Candidates, []bat.OID) {
	n := in.Len()
	keep := mem.Ints.Get(n)
	codes := mem.U64.Get(n)
	outAt := oidPool.Get(n)
	if !r.Empty {
		for i := range at {
			code := col.Approx.Get(int(at[i]))
			if r.Contains(code) {
				keep = append(keep, i)
				codes = append(codes, code)
				outAt = append(outAt, at[i])
			}
		}
	}
	out := in.filterTo(keep)
	out.shipped = false
	out.attach = append(out.attach, attachment{col: col, codes: codes, rng: r, filtered: true})
	if m != nil {
		seq := int64(n)*8 + int64(len(keep))*8 + packedBytes(len(keep), col.Dec.ApproxBits)
		m.GPUKernel(seq, packedBytes(n, col.Dec.ApproxBits), int64(n)*OpsPackedScan)
	}
	mem.Ints.Put(keep)
	return out, outAt
}

// SelectRefineAt is the refinement of a dimension-side selection: exact
// dimension values are reconstructed from the shipped codes and the
// host-resident dimension residuals at the joined positions, the precise
// predicate is re-evaluated, and false positives are dropped from the
// candidate set and the position list alike. Survivors concatenate in
// morsel order, keeping candidate order and the position list aligned for
// every worker count.
func SelectRefineAt(p par.P, m *device.Meter, col *bwd.Column, lo, hi int64, in *Candidates, at []bat.OID) (*Candidates, []bat.OID, []int64) {
	codes := in.CodesFor(col)
	if codes == nil {
		panic("ar: SelectRefineAt on a dimension column without attached codes")
	}
	n := in.Len()
	keepBuf := mem.Ints.GetN(n)
	valsBuf := mem.I64.GetN(n)
	counts, total, err := par.ForCounted(p, n, func(_ *mem.Scratch, _, mlo, mhi int) int {
		cnt := 0
		for i := mlo; i < mhi; i++ {
			var r uint64
			if col.Dec.ResBits > 0 {
				r = col.Residual.Get(int(at[i]))
			}
			v := col.ReconstructFrom(codes[i], r)
			if v >= lo && v <= hi {
				keepBuf[mlo+cnt] = i
				valsBuf[mlo+cnt] = v
				cnt++
			}
		}
		return cnt
	})
	var keep []int
	var vals []int64
	var outAt []bat.OID
	if err != nil {
		keep, vals, outAt = keepBuf[:0], valsBuf[:0], oidPool.GetN(0)
	} else {
		chunk := p.ChunkSize()
		keep = par.Compact(counts, chunk, keepBuf)
		vals = par.Compact(counts, chunk, valsBuf)
		mem.Ints.Put(counts)
		outAt = oidPool.GetN(total)
		for i, k := range keep {
			outAt[i] = at[k]
		}
	}
	out := in.filterTo(keep)
	mem.Ints.Put(keepBuf)
	if m != nil && col.Dec.ResBits > 0 {
		// Fully resident dimension columns need no refinement (§IV-C).
		resFetch := device.RandomFetchBytes(int64(n), residualBytes(col.Dec.ResBits), col.Residual.Bytes())
		seq := int64(n)*8 + packedBytes(n, col.Dec.ApproxBits) + resFetch + int64(len(keep))*12
		m.CPUWork(p.NThreads(), seq, 0, int64(n)*2)
	}
	return out, outAt, vals
}

// ProjectRefineAt refines a dimension projection: like ProjectRefine, but
// the residual lookups address the dimension column through the refined
// position list `atRefined` (aligned with refined) instead of the
// candidate IDs.
func ProjectRefineAt(pp par.P, m *device.Meter, p *Projection, refined *Candidates, atRefined []bat.OID) ([]int64, error) {
	pos, err := TranslucentJoinMetered(m, pp.NThreads(), p.Src.IDs(), refined.IDs())
	if err != nil {
		return nil, err
	}
	out := mem.I64.GetN(refined.Len())
	col, codes := p.Col, p.Codes()
	pp.For(len(pos), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var r uint64
			if col.Dec.ResBits > 0 {
				r = col.Residual.Get(int(atRefined[i]))
			}
			out[i] = col.ReconstructFrom(codes[pos[i]], r)
		}
	})
	mem.Ints.Put(pos)
	if m != nil && col.Dec.ResBits > 0 {
		n := refined.Len()
		resFetch := device.RandomFetchBytes(int64(n), residualBytes(col.Dec.ResBits), col.Residual.Bytes())
		seq := packedBytes(n, col.Dec.ApproxBits) + resFetch + int64(n)*8
		m.CPUWork(pp.NThreads(), seq, 0, int64(n))
	}
	return out, nil
}
