package ar

import (
	"repro/internal/bulk"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/par"
)

// Projection is the output of an approximate projection: the approximation
// codes of the projected column, positionally aligned with the candidate
// set it was computed over. Exact reports whether the codes are already
// precise (the projected column is fully device resident, ResBits == 0),
// in which case no refinement is necessary (§IV-C).
//
// On the host a projection over a set that still carries its survivor mask
// holds no codes until someone asks for the list (Codes): a consumer that
// reads by mask (ByMask) decodes the packed column a block at a time and the
// candidate-length buffer is never written.
//
// Key is the projected column's addressing: nil for a column of the scanned
// table, the join's key for a dimension column, whose code for a candidate is
// the one at the position the candidate's key joins (§IV-D: the projective
// foreign-key join shares this code path).
type Projection struct {
	Src     *Candidates
	Col     *bwd.Column
	Key     *bwd.Key
	codes   []uint64
	n       int
	shipped bool
}

// Release returns the projection's code buffer to the arena. The source
// candidate set is not owned by the projection and stays untouched. Must
// only be called once nothing references the projection.
func (p *Projection) Release() {
	mem.U64.Put(p.codes)
	p.codes = nil
	p.Src = nil
}

// Exact reports whether the projected codes need no refinement.
func (p *Projection) Exact() bool { return p.Col.Dec.ResBits == 0 }

// ApproxLow returns the smallest value consistent with projected code i.
func (p *Projection) ApproxLow(i int) int64 {
	return p.Col.Dec.Base + int64(p.Codes()[i]<<p.Col.Dec.ResBits)
}

// ByMask reports whether the projection is still only its source's mask over
// the packed column: read it with Src.Blocks and Src.Decode.
func (p *Projection) ByMask() bool { return p.codes == nil && p.Src.WorkGroups() > 0 }

// Codes returns the projected codes aligned with the candidate order,
// decoding them by granule from the source's mask on first use. The slice is
// owned by the projection.
func (p *Projection) Codes() []uint64 {
	if p.codes == nil {
		p.codes = mem.U64.GetN(p.n)
		p.Src.emitCodes(p.Col.Approx, p.codes)
	}
	return p.codes
}

// Ship charges the PCI-E transfer of the projected codes to the host. The
// candidate IDs are not re-shipped; they travel with the candidate set.
func (p *Projection) Ship(m *device.Meter) {
	if p.shipped {
		return
	}
	p.shipped = true
	if m != nil {
		m.Transfer(packedBytes(p.n, p.Col.Dec.ApproxBits))
	}
}

// ProjectApprox is the approximation of a projection (§IV-C): an invisible
// join — a positional lookup of the candidate IDs into the bit-packed,
// device-resident approximation of the projected column. The output is
// aligned with the candidate order, which a parallel projection preserves
// for free because each lane writes at the position of its input id
// (§IV-A item 2). On the host a set that still carries its survivor mask is
// projected by granule — one decode where a granule's survivors are dense,
// one Get per survivor where they are sparse (emitGranule), and only once a
// reader wants the codes as a list — and an id-list set, or any set through a
// key, by one lookup per id; the codes and the charge are the same either
// way.
func ProjectApprox(m *device.Meter, col *bwd.Column, key *bwd.Key, cands *Candidates) *Projection {
	n := cands.Len()
	p := &Projection{Src: cands, Col: col, Key: key, n: n}
	if key != nil || cands.mask == nil {
		p.codes = mem.U64.GetN(n)
		ids := cands.IDs()
		devP().For(n, func(lo, hi int) {
			gatherThrough(col.Approx, key, ids[lo:hi], p.codes[lo:hi])
		})
	}
	chargeProject(m, col, n)
	return p
}

// chargeProject bills the device for projecting col over n candidates.
func chargeProject(m *device.Meter, col *bwd.Column, n int) {
	if m != nil {
		seq := int64(n)*4 + packedBytes(n, col.Dec.ApproxBits)
		m.GPUKernel(seq, packedBytes(n, col.Dec.ApproxBits), int64(n)*bulk.OpsFetch)
	}
}

// ProjectRefine is the refinement of a projection (§IV-C): a translucent
// join of the refined candidate subset into the approximate projection —
// re-aligning the projected codes with the surviving IDs — followed by
// residual lookups and bitwise reconstruction of the exact values.
//
// refined must be an order-preserving subset of p.Src (which every A&R
// refinement guarantees); otherwise ErrTranslucentPrecondition is
// returned. The translucent join stays a sequential merge pass (its cursor
// is inherently serial); the residual lookups and reconstructions fan out
// over morsels with disjoint output writes. A dimension projection looks its
// residuals up at the position each surviving candidate's key joins, and is
// billed as the dimension-side operator always was: its translucent join
// whatever survived, its reconstruction only where there are residuals.
func ProjectRefine(pp par.P, m *device.Meter, p *Projection, refined *Candidates) ([]int64, error) {
	if p.Key == nil && p.Exact() && refined.Len() == p.Src.Len() {
		// §IV-C: all bits of the projected attribute are device resident
		// and no candidates were eliminated — the shipped codes already
		// are the exact result (a view, no refinement operator runs).
		out := mem.I64.GetN(len(p.Codes()))
		pp.For(len(out), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = p.ApproxLow(i)
			}
		})
		return out, nil
	}
	ids := refined.IDs()
	pos, err := TranslucentJoinMetered(m, pp.NThreads(), p.Src.IDs(), ids)
	if err != nil {
		return nil, err
	}
	out := mem.I64.GetN(len(ids))
	col, key, codes := p.Col, p.Key, p.Codes()
	pp.For(len(pos), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var r uint64
			if col.Dec.ResBits > 0 {
				at := int(ids[i])
				if key != nil {
					at, _ = key.At(at)
				}
				r = col.Residual.Get(at)
			}
			out[i] = col.ReconstructFrom(codes[pos[i]], r)
		}
	})
	mem.Ints.Put(pos)
	if m != nil && (p.Key == nil || col.Dec.ResBits > 0) {
		// Reads: refined IDs (32-bit), shipped codes, residuals (at
		// candidate order); writes: reconstructed values at the column's
		// native width — through a key, 8 bytes a candidate stand for both.
		n := len(ids)
		resFetch := device.RandomFetchBytes(int64(n), residualBytes(col.Dec.ResBits), col.Residual.Bytes())
		seq := packedBytes(n, col.Dec.ApproxBits) + resFetch
		if p.Key == nil {
			seq += int64(n)*4 + int64(n)*int64(col.Dec.Width)
		} else {
			seq += int64(n) * 8
		}
		m.CPUWork(pp.NThreads(), seq, 0, int64(n))
	}
	return out, nil
}
