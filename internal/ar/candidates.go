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
// in the granules the bounds leave open; the candidates that certainly
// qualify, which bound the phase-A aggregates, are a narrowing of a copy of
// it by each filter's interior codes. A refined set is the phase-A set,
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
// arena; masks ride the shared mem.U64 pool.
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

// attachment describes one column that filtered a candidate set: the relaxed
// predicate range applied on it. Attachments sharing a non-zero group id
// belong to one disjunction (OR) predicate: a candidate satisfies the group
// when any member's predicate holds. A dimension column is attached with the
// key of the join it was filtered through: its code for a candidate is the one
// at the dimension position the candidate's key joins.
type attachment struct {
	col   *bwd.Column
	key   *bwd.Key
	rng   bwd.ApproxRange
	group int
}

// Candidates is the output of approximation operators on the structural
// path: the tuples of a superset of the exact result, in device (permuted)
// order, and the relaxed predicate of every column that filtered them. On the
// device the filtered columns' codes travel with the tuples, and Ship bills
// them: once candidates are shipped to the host, the codes are the CPU's only
// view of the major bits. The host never lists them; a reader decodes the
// packed column by mask.
//
// A set is its survivor mask, one bit per scanned row (DESIGN.md §13); a scan
// of no rows is a mask of none. Further conjuncts, disjunction groups, the
// deletion bitmap, the join chain — probes, dimension deletions, dimension
// filters — and every refinement narrow the mask in place (narrow, MaskOut,
// JoinApprox, refine), and the certain mask is one more narrowing of a copy
// (CertainMask). Candidate order is fixed by the mask: work-groups in
// par.PermuteInto order, rows ascending inside one. The ids are materialised
// from it on demand, by Emit, which the first reader of a position triggers; a
// narrowing after that releases them, to be emitted again from the narrower
// mask. ProjectApprox, GroupApprox and the refinements read the mask by
// granule.
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
	// walk is the scratch a narrowing step compiles its disjuncts into, and
	// steps the ends of the certain mask's steps in it; both stay with the
	// pooled header so that a step allocates nothing.
	walk  []bwd.Disjunct
	steps []int
	// pooled is set while the set owns its arena buffers; Release clears
	// it as it returns them.
	pooled bool
	// certain caches CertainMask: built on first use (the attachments are
	// complete once a set leaves its constructor), recycled by Release.
	certain      []uint64
	certainBuilt bool
}

// Release returns the candidate set's buffers (the mask, the IDs and the
// certain mask) to the arena and empties the set. It must only be called once
// nothing references the set — the pipeline calls it once the tail has
// aggregated. Releasing a released set is a no-op.
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
	clear(c.attach)
	c.attach = c.attach[:0]
	clear(c.walk)
	c.walk, c.steps = c.walk[:0], c.steps[:0]
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

// attached reports whether col's codes travel with the set.
func (c *Candidates) attached(col *bwd.Column) bool {
	for i := range c.attach {
		if c.attach[i].col == col {
			return true
		}
	}
	return false
}

// exactRange reports whether the attachment's relaxed range is its exact
// predicate: exact codes have no boundary uncertainty, and a full range has
// no boundary.
func (a *attachment) exactRange() bool {
	return a.col.Dec.ResBits == 0 || a.rng.Full
}

// interior is the range of codes that certainly satisfy the attachment's
// exact predicate: its relaxed range without the two boundary buckets, which
// may hold false positives — or all of it, when the range is exact.
func (a *attachment) interior() bwd.ApproxRange {
	switch {
	case a.exactRange():
		return a.rng
	case a.rng.Hi < a.rng.Lo+2:
		return bwd.ApproxRange{Empty: true} // nothing between the boundaries
	}
	return bwd.ApproxRange{Lo: a.rng.Lo + 1, Hi: a.rng.Hi - 1}
}

// boundaryFree reports whether attachment k can never make a candidate
// uncertain. A conjunct cannot when its range is exact. A disjunction group
// cannot when every member's is: a candidate matched some member's relaxed
// range, and that range was the member's predicate.
func (c *Candidates) boundaryFree(k int) bool {
	a := &c.attach[k]
	if a.group == 0 {
		return a.exactRange()
	}
	for j := range c.attach {
		if b := &c.attach[j]; b.group == a.group && !b.exactRange() {
			return false
		}
	}
	return true
}

// CertainMask returns the candidates that cannot be false positives, in the
// survivor mask's layout — bit r%64 of word r/64 for row r — or nil when every
// candidate is certain, which a look at the attachments alone often settles
// (all filtered columns fully device resident). A candidate is certain when
// its code on every filtered column lies in that filter's interior, away from
// the boundary buckets; for a disjunction group, some member's must. The
// approximate aggregates use it to bound the true count, sum and extremum
// (§IV-F, Fig 6).
//
// That test is one more selection, so the mask is one more narrowing: one
// step per filter that can leave a boundary, a conjunct's interior or a
// group's interiors as its disjuncts, each read through its key. Every
// work-group's survivor words are copied and narrowed by each step in turn
// while they are hot (narrowCertain), on the device's P; the walk files no
// granule outcomes and lists no candidate. The set builds the mask on first
// use and owns it.
func (c *Candidates) CertainMask() []uint64 {
	if c.certainBuilt {
		return c.certain
	}
	c.certainBuilt = true
	c.walk, c.steps = c.walk[:0], c.steps[:0]
	for k := range c.attach {
		if c.boundaryFree(k) || !c.leads(k) {
			continue
		}
		for j := k; j < len(c.attach); j++ {
			if a := &c.attach[j]; j == k || a.group != 0 && a.group == c.attach[k].group {
				c.walk = append(c.walk, a.col.Approximately(a.interior()).Through(a.key))
			}
		}
		c.steps = append(c.steps, len(c.walk))
	}
	if len(c.steps) == 0 || c.n == 0 {
		return nil
	}
	c.certain = mem.U64.GetN(len(c.mask))
	if len(c.offs) == 1 {
		c.narrowCertain(0, c.rows)
	} else {
		devP().For(c.rows, c.narrowCertain)
	}
	return c.certain
}

// leads reports whether attachment k starts a step of the certain mask: a
// conjunct does, and so does the first member of a disjunction group.
func (c *Candidates) leads(k int) bool {
	for j := range k {
		if c.attach[j].group != 0 && c.attach[j].group == c.attach[k].group {
			return false
		}
	}
	return true
}

// narrowCertain builds the certain mask of work-group [lo,hi): its survivor
// words copied, then narrowed by every step compiled into walk.
func (c *Candidates) narrowCertain(lo, hi int) {
	g0, g1 := lo/bwd.GranuleRows, granulesTo(hi)
	copy(c.certain[g0:g1], c.mask[g0:g1])
	from := 0
	for _, to := range c.steps {
		bwd.NarrowGranules(c.walk[from:to], c.certain, lo, hi)
		from = to
	}
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
