package ar

import (
	"math/bits"

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
// On the host a projection holds no codes: it is its source's mask over the
// packed column, which a consumer reads by mask — Src.Blocks and Src.Decode,
// a block at a time — so the candidate-length buffer is never written. Once a
// refinement narrows the source, the column's exact values are code and
// residual read by the narrower mask, billed by ChargeRefine; ProjectRefine
// writes them out.
//
// Key is the projected column's addressing: nil for a column of the scanned
// table, the join's key for a dimension column, whose code for a candidate is
// the one at the position the candidate's key joins (§IV-D: the projective
// foreign-key join shares this code path).
type Projection struct {
	Src     *Candidates
	Col     *bwd.Column
	Key     *bwd.Key
	n       int
	shipped bool
}

// Exact reports whether the projected codes need no refinement.
func (p *Projection) Exact() bool { return p.Col.Dec.ResBits == 0 }

// Codes lists the projected codes of the source's candidates in candidate
// order, decoded afresh from its mask on every call: a lister for tests and
// benchmarks, as IDs is.
func (p *Projection) Codes() []uint64 {
	src := p.Src
	codes := make([]uint64, src.Len())
	src.Blocks(0, src.WorkGroups(), src.chunk/bwd.GranuleRows, func(g0, g1, pos, n int) {
		src.Decode(p.Col.Approx, p.Key, codes[pos:pos+n], g0, g1)
	})
	return codes
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
// (§IV-A item 2). On the host it stores nothing: its readers decode the
// column by mask — a column of the scanned table by granule, one decode where
// a granule's survivors are dense, one read per survivor where they are
// sparse (emitGranule), a dimension column by one read per survivor through
// its key — and the charge is the operator's.
func ProjectApprox(m *device.Meter, col *bwd.Column, key *bwd.Key, cands *Candidates) *Projection {
	n := cands.Len()
	chargeProject(m, col, n)
	return &Projection{Src: cands, Col: col, Key: key, n: n}
}

// chargeProject bills the device for projecting col over n candidates.
func chargeProject(m *device.Meter, col *bwd.Column, n int) {
	if m != nil {
		seq := int64(n)*4 + packedBytes(n, col.Dec.ApproxBits)
		m.GPUKernel(seq, packedBytes(n, col.Dec.ApproxBits), int64(n)*bulk.OpsFetch)
	}
}

// ProjectRefine is the refinement of a projection (§IV-C): the exact values
// of p's column for the candidates its source holds now — the set phase A
// projected over, narrowed in place by the refinements since — in candidate
// order. The source's mask is walked a work-group at a time on pp: each
// granule's codes are decoded as ProjectApprox's are and concatenated with
// the residual at each row, or — a dimension column — code and residual are
// read at the position the row's key joins. It is billed as ChargeRefine
// bills it. A walk cancelled partway returns the context's error.
func ProjectRefine(pp par.P, m *device.Meter, p *Projection) ([]int64, error) {
	src := p.Src
	out := mem.I64.GetN(src.Len())
	if err := forGroups(pp, src.WorkGroups(), func(ci int) { src.rebuildGroup(p.Col, p.Key, out, ci) }); err != nil {
		mem.I64.Put(out)
		return nil, err
	}
	p.ChargeRefine(pp.NThreads(), m)
	return out, nil
}

// ChargeRefine bills the refinement of the projection over the candidates its
// source holds now, the operator's bill whoever reads the exact values: when
// the column is fully device resident and nothing was refined away, the
// shipped codes already are the exact result (a view, no refinement operator
// runs, nothing is charged); otherwise the translucent join that realigns the
// refined subset with the projection (chargeTranslucentJoin) and, unless a
// dimension column has nothing to reconstruct, the residual lookups and
// reconstruction.
func (p *Projection) ChargeRefine(threads int, m *device.Meter) {
	col, key, n := p.Col, p.Key, p.Src.Len()
	if m == nil || key == nil && p.Exact() && n == p.n {
		return
	}
	chargeTranslucentJoin(m, threads, p.n, n)
	if key == nil || col.Dec.ResBits > 0 {
		// Reads: refined IDs (32-bit), shipped codes, residuals (at
		// candidate order); writes: reconstructed values at the column's
		// native width — through a key, 8 bytes a candidate stand for both.
		resFetch := device.RandomFetchBytes(int64(n), residualBytes(col.Dec.ResBits), col.Residual.Bytes())
		seq := packedBytes(n, col.Dec.ApproxBits) + resFetch
		if key == nil {
			seq += int64(n)*4 + int64(n)*int64(col.Dec.Width)
		} else {
			seq += int64(n) * 8
		}
		m.CPUWork(threads, seq, 0, int64(n))
	}
}

// forGroups runs fn for each of wg work-groups on p, distinct ones
// concurrently, polling the context between them; one worker runs them on
// the calling goroutine.
func forGroups(p par.P, wg int, fn func(ci int)) error {
	p.Chunk = 1
	return p.For(wg, func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			fn(ci)
		}
	})
}

// rebuildGroup writes col's exact values of work-group ci's survivors into
// their slot of out (Rebuild).
func (c *Candidates) rebuildGroup(col *bwd.Column, key *bwd.Key, out []int64, ci int) {
	g0, g1 := c.groupGranules(ci)
	c.Rebuild(col, key, out[c.offs[ci]:], g0, g1)
}

// Rebuild writes col's exact values of the survivors in granules [g0,g1) into
// the front of out, in row order, and returns how many there are: per
// granule the codes as emitGranule emits them, each concatenated with the
// residual at its row — the residual granule read whole where the survivors
// are dense — or, through a key, code and residual at the position the row's
// key joins. It is Decode for the exact values of a decomposed column.
func (c *Candidates) Rebuild(col *bwd.Column, key *bwd.Key, out []int64, g0, g1 int) int {
	at := 0
	var codes, res [bwd.GranuleRows]uint64
	for g := g0; g < g1; g++ {
		word, base := c.mask[g], g*bwd.GranuleRows
		switch {
		case word == 0:
			continue
		case key != nil:
			for w := word; w != 0; w &= w - 1 {
				pos, _ := key.At(base + bits.TrailingZeros64(w))
				out[at] = col.Reconstruct(pos)
				at++
			}
			continue
		}
		k := emitGranule(col.Approx, codes[:], word, base, &codes) // room for a whole granule: decoded in place
		switch {
		case col.Dec.ResBits == 0:
			for i, code := range codes[:k] {
				out[at+i] = col.Dec.Base + int64(code)
			}
		case k < denseSurvivors:
			for i, w := 0, word; w != 0; i, w = i+1, w&(w-1) {
				out[at+i] = col.ReconstructFrom(codes[i], col.Residual.At(base+bits.TrailingZeros64(w)))
			}
		default:
			col.Residual.Unpack64(&res, base, 0)
			for i, w := 0, word; w != 0; i, w = i+1, w&(w-1) {
				out[at+i] = col.ReconstructFrom(codes[i], res[bits.TrailingZeros64(w)])
			}
		}
		at += k
	}
	return at
}
