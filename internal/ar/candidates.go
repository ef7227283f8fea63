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
// in the granules the bounds leave open. The phase-A aggregates are bounded
// by two more sets split off it (Split): the candidates that certainly
// qualify, a narrowing of a copy of the mask by each filter's interior codes,
// and the rest, which may be false positives. A refined set is the phase-A
// set, narrower; its candidate order is the mask's, so it is aligned with
// every phase-A intermediate for free. The paper realigns the permuted output of a
// device kernel with a translucent join (Algorithm 1); here that join is the
// mask itself, and it remains in the meter as the operator it stands for
// (chargeTranslucentJoin).
//
// The classic baseline's selection is the same set, built on the host
// (SelectExact): exact values compared, its work-groups the statement's
// morsels, sealed in row order. Its columns are read by mask (Values).
// Only this package knows the set's format — mask words, per-work-group
// counts, slot order — and no id list of it exists outside the tests (IDs).
package ar

import (
	"math/bits"
	"sync"

	"repro/internal/bat"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/par"
)

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

// Candidates is a survivor set: the output of approximation operators on the
// structural path — the tuples of a superset of the exact result, in device
// (permuted) order, and the relaxed predicate of every column that filtered
// them — and of the classic selection (SelectExact), the exact result in row
// order, and of a device set's certainty split (Split), its certain and its
// uncertain candidates in its order. On the device the filtered columns'
// codes travel with the tuples, and Ship bills them: once candidates are
// shipped to the host, the codes are the CPU's only view of the major bits.
// The host never lists them; a reader decodes the packed column by mask.
//
// A set is its survivor mask, one bit per scanned row (DESIGN.md §13); a scan
// of no rows is a mask of none. Further conjuncts, disjunction groups, the
// deletion bitmap, the join chain — probes, dimension deletions, dimension
// filters — and every refinement narrow the mask in place (narrow, MaskOut,
// JoinApprox, Narrow), and its split into the certain and the uncertain
// candidates (Split) is one more narrowing of a copy. Candidate order is
// fixed by the mask and the set's constructor: work-groups in
// par.PermuteInto order on the device, in index order on the host, rows
// ascending inside one. Nothing lists the ids but IDs, for tests:
// ProjectApprox, GroupApprox, the refinements, Values and the aggregate
// program read the mask by granule.
type Candidates struct {
	attach  []attachment
	shipped bool
	// mask holds the survivors among the rows scanned rows, bit i%64 of
	// word i/64 for row i; n is its popcount. The rows fall into work-groups
	// of chunk rows, a whole number of granules, and offs has one entry per
	// work-group: the group's survivor count while the mask narrows, its
	// slot in candidate order once sealed — the groups taken in
	// par.PermuteInto order when permuted, in index order otherwise, an
	// order seal records behind offs' length (order).
	mask             []uint64
	rows, n, chunk   int
	offs             []int
	permuted, sealed bool
	// live has one bit per granule, bit g%64 of word g/64, set for every
	// granule whose mask word is not zero (and maybe for some whose word is):
	// a further step visits only the granules it holds. It lives in the
	// mask's arena buffer, behind the mask's length.
	live []uint64
	// walk is the scratch a narrowing step compiles its disjuncts into, and
	// steps the ends of the split's steps in it; both stay with the pooled
	// header so that a step allocates nothing.
	walk  []bwd.Disjunct
	steps []int
	// pooled is set while the set owns its arena buffers; Release clears
	// it as it returns them.
	pooled bool
	// certain and uncertain cache the split (Split): built on first use (the
	// attachments are complete once a set leaves its constructor) — the
	// uncertain set only when asked for, a count needing the certain one
	// alone — and released with the set or when it narrows further; split
	// records that the narrowing ran.
	certain, uncertain *Candidates
	split              bool
}

// open lays an empty set out over rows rows, in work-groups of chunk rows
// sealed in par.PermuteInto order (permuted) or in index order. The slots'
// buffer holds that order of the work-groups too (order), behind its length.
func (c *Candidates) open(rows, chunk int, permuted bool) {
	c.rows, c.chunk, c.permuted = rows, chunk, permuted
	g := granulesTo(rows)
	buf := mem.U64.GetN(g + (g+63)/64)
	c.mask, c.live = buf[:g], buf[g:]
	clear(c.live)
	wg := (rows + chunk - 1) / chunk
	c.offs = mem.Ints.GetN(2 * wg)[:wg]
}

// SelectExact starts a host set over rows [0,rows): the rows that satisfy any
// of the disjuncts ds — exact values, compared where the bounds of a
// decomposition leave a granule open (bwd.Exactly) — or every row when ds is
// empty. It is the classic selection's set, MonetDB's order-preserving bulk
// selection (§IV-A item 2): its work-groups are p's morsels rounded up to whole
// granules, so that workers write disjoint words, walked on p and sealed in
// index order, so candidate order is row order. Its further steps are Narrow
// and MaskOut. It files no granule outcomes and charges nothing: the caller
// bills the bulk operators it stands for. A walk cancelled partway releases
// the set and returns the context's error.
func SelectExact(p par.P, rows int, ds ...bwd.Disjunct) (*Candidates, error) {
	c := getCandidates()
	c.open(rows, (p.ChunkSize()+bwd.GranuleRows-1)/bwd.GranuleRows*bwd.GranuleRows, false)
	if len(ds) == 0 {
		c.all()
		return c, nil
	}
	c.walk = append(c.walk[:0], ds...)
	if err := c.step(p, true, false); err != nil {
		c.Release()
		return nil, err
	}
	return c, nil
}

// all fills the set with every row.
func (c *Candidates) all() {
	for g := range c.mask {
		c.mask[g] = ^uint64(0) >> uint(bwd.GranuleRows-min(bwd.GranuleRows, c.rows-g*bwd.GranuleRows))
		c.live[g/64] |= 1 << uint(g%64)
	}
	for ci := range c.offs {
		c.offs[ci] = min(c.chunk, c.rows-ci*c.chunk)
	}
	c.n = c.rows
}

// Release returns the candidate set's buffers (the mask and its live
// granules, the work-group offsets and the split's sets) to the arena and
// empties the set. It must only be called once nothing references the set —
// the pipeline calls it once the tail has aggregated. Releasing a released
// set is a no-op.
func (c *Candidates) Release() {
	if c == nil || !c.pooled {
		return
	}
	c.pooled = false
	mem.U64.Put(c.mask) // and live, which shares its buffer
	mem.Ints.Put(c.offs)
	c.mask, c.live, c.offs, c.rows, c.n, c.chunk = nil, nil, nil, 0, 0, 0
	c.permuted, c.sealed = false, false
	clear(c.attach)
	c.attach = c.attach[:0]
	clear(c.walk)
	c.walk, c.steps = c.walk[:0], c.steps[:0]
	c.shipped = false
	c.dropSplit()
	candPool.Put(c)
}

// Len returns the number of candidate tuples.
func (c *Candidates) Len() int { return c.n }

// IDs lists the candidate tuple ids in candidate order, afresh from the mask
// on every call: the one lister of a set, for tests, examples and benchmarks.
// The executor reads sets by mask only.
func (c *Candidates) IDs() []bat.OID {
	c.seal()
	ids := make([]bat.OID, c.n)
	for ci, at := range c.offs {
		g0, g1 := c.groupGranules(ci)
		for g := g0; g < g1; g++ {
			for w := c.mask[g]; w != 0; w &= w - 1 {
				ids[at] = bat.OID(g*bwd.GranuleRows + bits.TrailingZeros64(w))
				at++
			}
		}
	}
	return ids
}

// Values writes tails' values of the survivors in granules [g0,g1) into the
// front of out, in row order, and returns how many there are: a survivor's
// value at its row or, through key, at the dimension position its key joins.
// It is Decode for a column of exact values — the classic scan's fetch of a
// column at the selected rows, a block at a time, without a list of them.
func (c *Candidates) Values(tails []int64, key *bwd.Key, out []int64, g0, g1 int) int {
	k := 0
	for g := g0; g < g1; g++ {
		base := g * bwd.GranuleRows
		for w := c.mask[g]; w != 0; w &= w - 1 {
			row := base + bits.TrailingZeros64(w)
			if key != nil {
				row, _ = key.At(row)
			}
			out[k] = tails[row]
			k++
		}
	}
	return k
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

// Split divides the set by certainty: certain holds the candidates that
// cannot be false positives, uncertain the rest — or both are nil when every
// candidate is certain, which a look at the attachments alone often settles
// (all filtered columns fully device resident). A candidate is certain when
// its code on every filtered column lies in that filter's interior, away from
// the boundary buckets; for a disjunction group, some member's must. The
// approximate aggregates fold the two sets apart to bound the true count, sum
// and extremum (§IV-F, Fig 6). Both are host sets over this set's rows, in
// its work-groups and order, so each one's candidate order is this set's
// restricted to its rows; this set owns them.
//
// That test is one more selection, so the certain set is one more narrowing:
// one step per filter that can leave a boundary, a conjunct's interior or a
// group's interiors as its disjuncts, each read through its key. Every
// work-group's survivor words are copied and narrowed by each step in turn
// while they are hot (narrowCertain), on every host core; the walk files no
// granule outcomes and lists no candidate. The uncertain set is a copy of
// the survivors with the certain ones masked out.
func (c *Candidates) Split() (certain, uncertain *Candidates) {
	c.splitOff()
	if c.certain != nil && c.uncertain == nil {
		c.uncertain = c.part()
		copy(c.uncertain.mask, c.mask)
		copy(c.uncertain.live, c.live)
		c.uncertain.MaskOut(c.certain.mask)
	}
	return c.certain, c.uncertain
}

// splitOff builds the certain set on first use: the narrowing's one run, all
// a count needs (CountApprox).
func (c *Candidates) splitOff() {
	if c.split {
		return
	}
	c.split = true
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
		return
	}
	c.certain = c.part()
	copy(c.certain.live, c.live)
	if len(c.offs) == 1 {
		c.narrowCertain(0, c.rows)
	} else {
		p := devP()
		p.Chunk = c.chunk
		c.fewLive(p).For(c.rows, c.narrowCertain)
	}
	c.certain.recount()
}

// part opens an empty set over c's rows, in c's work-groups and order.
func (c *Candidates) part() *Candidates {
	p := getCandidates()
	p.open(c.rows, c.chunk, c.permuted)
	return p
}

// dropSplit returns the split's sets to the arena.
func (c *Candidates) dropSplit() {
	c.certain.Release()
	c.uncertain.Release()
	c.certain, c.uncertain, c.split = nil, nil, false
}

// leads reports whether attachment k starts a step of the split: a
// conjunct does, and so does the first member of a disjunction group.
func (c *Candidates) leads(k int) bool {
	for j := range k {
		if c.attach[j].group != 0 && c.attach[j].group == c.attach[k].group {
			return false
		}
	}
	return true
}

// narrowCertain builds the certain set's words of work-group [lo,hi): its
// survivor words copied, then narrowed by every step compiled into walk over
// the live granules, which splitOff copied.
func (c *Candidates) narrowCertain(lo, hi int) {
	g0, g1 := lo/bwd.GranuleRows, granulesTo(hi)
	copy(c.certain.mask[g0:g1], c.mask[g0:g1])
	from, n := 0, 0
	for _, to := range c.steps {
		n, _ = bwd.NarrowGranules(c.walk[from:to], c.certain.mask, c.certain.live, lo, hi)
		from = to
	}
	c.certain.offs[lo/c.chunk] = n
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
