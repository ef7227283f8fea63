// Package ar implements the Approximate & Refine (A&R) operator library —
// the paper's primary contribution (§III–IV).
//
// Instead of classic relational operators over a unified data
// representation, each operator is split into two:
//
//   - an approximation operator that runs on the fast device (the simulated
//     GPU) over the bit-packed approximations and produces a candidate
//     result: a superset of the true result for structural operators, or a
//     value interval for arithmetic;
//   - a refinement operator that runs on the CPU, combining the shipped
//     candidates with the CPU-resident residuals to produce the exact
//     result (false positives eliminated, values reconstructed by bitwise
//     concatenation).
//
// Approximation operators never depend on refinement results, so an entire
// approximation subplan can execute on the device first — yielding a fast
// approximate query answer at no extra cost (§III item 4) — before the
// refinement subplan starts on the CPU.
//
// On the host both subplans share one currency, the candidate set's survivor
// mask (DESIGN.md §13): the approximate selections narrow it, and so do the
// refinements, which compare exact values — code and residual concatenated —
// in the granules the bounds leave open. A refined set is the phase-A set,
// narrower; its candidate order is the mask's, so it is aligned with every
// phase-A intermediate for free. The paper realigns the permuted output of a
// device kernel with a translucent join (Algorithm 1); here that join is the
// mask itself, and it remains in the meter as the operator it stands for
// (chargeTranslucentJoin).
package ar

import (
	"sync"

	"repro/internal/bat"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/mem"
)

// oidPool recycles candidate ID lists through the shared bat.OIDPool
// arena; codes ride the shared mem.U64 pool.
var oidPool = &bat.OIDPool

// candPool recycles Candidates headers (struct + attach backing array) so
// a scan's set costs no allocation at all in steady state.
var candPool = sync.Pool{New: func() any { return new(Candidates) }}

// getCandidates takes a recycled (or fresh) empty candidate set marked as
// arena-backed.
func getCandidates() *Candidates {
	c := candPool.Get().(*Candidates)
	c.pooled = true
	return c
}

// attachment carries the approximation codes of one column, positionally
// aligned with a candidate list, together with the relaxed predicate range
// that was applied on that column (zero ApproxRange when the column was
// only projected, not filtered). Attachments sharing a non-zero group id
// belong to one disjunction (OR) predicate: a candidate satisfies the
// group when any member's predicate holds. A dimension column is attached
// with the key of the join it was filtered through: its code for a candidate
// is the one at the dimension position the candidate's key joins.
type attachment struct {
	col      *bwd.Column
	key      *bwd.Key
	codes    []uint64
	rng      bwd.ApproxRange
	filtered bool
	group    int
}

// Candidates is the output of approximation operators on the structural
// path: the tuples of a superset of the exact result, in device (permuted)
// order, plus the approximation codes of every column that has been touched
// so far. The codes travel with the tuples because the approximations are
// device-resident only: once candidates are shipped to the host, the codes
// are the CPU's only view of the major bits.
//
// A set is its survivor mask, one bit per scanned row (DESIGN.md §13); a scan
// of no rows is a mask of none. Further conjuncts, disjunction groups, the
// deletion bitmap, the join chain — probes, dimension deletions, dimension
// filters — and every refinement narrow the mask in place (narrow, MaskOut,
// JoinApprox, refine). Candidate order is fixed by the mask: work-groups in
// par.PermuteInto order, rows ascending inside one. The ids and the attached
// codes are materialised from it on demand, by Emit, which the first reader
// of a position triggers; a narrowing after that releases them, to be
// emitted again from the narrower mask. ProjectApprox, GroupApprox and the
// refinements read the mask by granule.
type Candidates struct {
	ids     []bat.OID
	attach  []attachment
	shipped bool
	// mask holds the survivors among the rows scanned rows, bit i%64 of
	// word i/64 for row i; n is its popcount. offs has one entry per
	// work-group: the group's survivor count while the mask narrows, its
	// slot in candidate order once sealed.
	mask            []uint64
	rows, n         int
	offs            []int
	sealed, emitted bool
	// walk is the scratch a narrowing step compiles its disjuncts into; it
	// stays with the pooled header so that a step allocates nothing.
	walk []bwd.Disjunct
	// pooled is set while the set owns its arena buffers; Release clears
	// it as it returns them.
	pooled bool
	// certain caches CertainMask: built on first use (the attachments are
	// complete once a set leaves its constructor), recycled by Release.
	certain      []uint64
	certainBuilt bool
}

// Release returns the candidate set's buffers (the mask, IDs and every
// attached code column) to the arena and empties the set. It must only be
// called once nothing references the set — the pipeline calls it once the
// tail has aggregated. Releasing a released set is a no-op.
func (c *Candidates) Release() {
	if c == nil || !c.pooled {
		return
	}
	c.pooled = false
	oidPool.Put(c.ids)
	c.ids = nil
	mem.U64.Put(c.mask)
	mem.Ints.Put(c.offs)
	c.mask, c.offs, c.rows, c.n = nil, nil, 0, 0
	c.sealed, c.emitted = false, false
	for i := range c.attach {
		mem.U64.Put(c.attach[i].codes)
		c.attach[i] = attachment{}
	}
	c.attach = c.attach[:0]
	clear(c.walk)
	c.walk = c.walk[:0]
	c.shipped = false
	mem.U64.Put(c.certain)
	c.certain, c.certainBuilt = nil, false
	candPool.Put(c)
}

// Len returns the number of candidate tuples.
func (c *Candidates) Len() int { return c.n }

// IDs returns the candidate tuple ids in device order, emitting them first
// if the mask was not emitted since it last narrowed. The slice is owned by
// the set and valid until the next narrowing.
func (c *Candidates) IDs() []bat.OID {
	c.Emit()
	return c.ids
}

// CodesFor returns the approximation codes of col aligned with the
// candidate IDs, or nil if col was never attached.
func (c *Candidates) CodesFor(col *bwd.Column) []uint64 {
	for i := range c.attach {
		if c.attach[i].col == col {
			c.Emit()
			return c.attach[i].codes
		}
	}
	return nil
}

// attached reports whether col's codes travel with the set.
func (c *Candidates) attached(col *bwd.Column) bool {
	for i := range c.attach {
		if c.attach[i].col == col {
			return true
		}
	}
	return false
}

// Certain reports whether candidate i is guaranteed to satisfy every
// relaxed predicate exactly (i.e. it cannot be a false positive): its code
// on every filtered column lies strictly inside the relaxed range, away
// from the boundary buckets. For a disjunction group, some member must be
// certainly satisfied. Approximate min/max aggregation uses this to bound
// the true extremum (§IV-F, Fig 6).
func (c *Candidates) Certain(i int) bool {
	c.Emit()
	for k := range c.attach {
		a := &c.attach[k]
		if !a.filtered {
			continue
		}
		if a.group != 0 {
			// Disjunction groups: each group needs one certainly-satisfied
			// member. Evaluate a group once, at its first attachment —
			// attachment lists are a handful of filters long, so the inner
			// scans stay cheaper than any per-call scratch allocation
			// (Certain runs per candidate when CertainMask is built).
			first := true
			for j := 0; j < k; j++ {
				if c.attach[j].filtered && c.attach[j].group == a.group {
					first = false
					break
				}
			}
			if !first {
				continue
			}
			ok := false
			for j := k; j < len(c.attach); j++ {
				b := &c.attach[j]
				if b.filtered && b.group == a.group && certainIn(b, i) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
			continue
		}
		if a.exactRange() {
			continue
		}
		if code := a.codes[i]; code == a.rng.Lo || code == a.rng.Hi {
			return false
		}
	}
	return true
}

// exactRange reports whether the attachment's relaxed range is its exact
// predicate: exact codes have no boundary uncertainty, and a full range has
// no boundary.
func (a *attachment) exactRange() bool {
	return a.col.Dec.ResBits == 0 || a.rng.Full
}

// boundaryFree reports whether filtered attachment k can never make a
// candidate uncertain. A conjunct cannot when its range is exact. A
// disjunction group cannot when every member's is: a candidate matched some
// member's relaxed range, and that range was the member's predicate.
func (c *Candidates) boundaryFree(k int) bool {
	a := &c.attach[k]
	if a.group == 0 {
		return a.exactRange()
	}
	for j := range c.attach {
		if b := &c.attach[j]; b.filtered && b.group == a.group && !b.exactRange() {
			return false
		}
	}
	return true
}

// CertainMask returns Certain as a bitmask over the candidate positions —
// bit i%64 of word i/64 is set iff Certain(i), bits past Len are clear — or
// nil when every candidate is certain, which a look at the attachments
// alone often settles (all filtered columns fully device resident). The
// phase-A aggregates read it instead of re-deriving Certain per aggregate
// per row. The set builds the mask on first use and owns it.
func (c *Candidates) CertainMask() []uint64 {
	if c.certainBuilt {
		return c.certain
	}
	c.certainBuilt = true
	all := true
	for k := range c.attach {
		if c.attach[k].filtered && !c.boundaryFree(k) {
			all = false
			break
		}
	}
	n := c.Len()
	if all || n == 0 {
		return nil
	}
	c.Emit()
	mask := mem.U64.GetN((n + 63) / 64)
	devP().For(n, func(lo, hi int) { // gpuChunk is a multiple of 64: morsels own whole words
		for w := lo / 64; w*64 < hi; w++ {
			var bits uint64
			for i := w * 64; i < min(w*64+64, hi); i++ {
				if c.Certain(i) {
					bits |= 1 << (uint(i) & 63)
				}
			}
			mask[w] = bits
		}
	})
	c.certain = mask
	return mask
}

// certainIn reports whether candidate i certainly satisfies one
// disjunct's exact predicate: its code lies inside the relaxed range and
// away from the boundary buckets (always, for exact codes).
func certainIn(a *attachment, i int) bool {
	if a.rng.Empty {
		return false
	}
	if a.rng.Full {
		return true
	}
	code := a.codes[i]
	if code < a.rng.Lo || code > a.rng.Hi {
		return false
	}
	if a.col.Dec.ResBits == 0 {
		return true
	}
	return code != a.rng.Lo && code != a.rng.Hi
}

// Ship charges the PCI-E transfer that moves the candidate set (IDs plus
// every attached code column) from device to host. Calling it twice is a
// no-op: data already on the host is not re-shipped.
func (c *Candidates) Ship(m *device.Meter) {
	if c.shipped {
		return
	}
	c.shipped = true
	if m == nil {
		return
	}
	n := c.Len()
	bytes := int64(n) * 4
	for i := range c.attach {
		// Codes of fully device-resident columns are not shipped for
		// refinement: with no residual bits there is nothing to refine
		// (§IV-C); consumers that need the values ship them as explicit
		// projections.
		if c.attach[i].col.Dec.ResBits == 0 {
			continue
		}
		bytes += packedBytes(n, c.attach[i].col.Dec.ApproxBits)
	}
	m.Transfer(bytes)
}

// chargeTranslucentJoin bills the translucent join (Algorithm 1) that
// realigns a refined subset of n of the phase-A set's pre candidates with the
// phase-A intermediates: a merge pass over both id lists, O(pre) comparisons.
// When nothing was refined away the subset is the set and the operator
// aliases its input (a MonetDB view), free. On the host the refined set is
// the phase-A mask narrowed, aligned without a pass; the charge is the
// execution model's (DESIGN.md §7).
func chargeTranslucentJoin(m *device.Meter, threads, pre, n int) {
	if m != nil && pre != n {
		m.CPUWork(threads, int64(pre)*4+int64(n)*12, 0, int64(pre))
	}
}

// packedBytes is the physical byte footprint of n bit-packed values of the
// given width, as charged for transfers and scans.
func packedBytes(n int, bits uint) int64 {
	return (int64(n)*int64(bits) + 7) / 8
}

// residualBytes is the per-value byte cost of a random residual access:
// sub-byte residuals still cost a full byte to touch.
func residualBytes(bits uint) int64 {
	if bits == 0 {
		return 0
	}
	return int64(bits+7) / 8
}
