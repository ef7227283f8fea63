package ar

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"

	"repro/internal/bat"
	"repro/internal/bitpack"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/par"
)

// This file is the approximate scan (§IV-B): the one kernel every A&R
// statement starts with, behind SelectApprox (one column) and
// SelectApproxAny (k disjunct columns). Host-side it is built around the
// 64-row granule and runs in three steps — skip, mask, materialise
// (DESIGN.md §13) — so that rows a relaxed range cannot admit are never
// decoded: the first two are bwd's granule walk, which the classic selection
// and the refinements (refine) share; the third is here. None of that is
// visible to the simulated device, which still pays the paper's full packed
// scan.

// gpuChunk is the tuple count per simulated device work-group.
const gpuChunk = 64 << 10

// devP is the host-side execution of every device kernel: work-groups of
// gpuChunk tuples over all host cores (OnDevice), never cancelled (a device
// kernel runs to completion; the meter bills the simulated device, not this
// P).
func devP() par.P {
	return OnDevice(par.P{Chunk: gpuChunk})
}

// OnDevice is p with every host core as its workers: the one rule for
// host-side work that holds the device stream, which owns the simulated
// device — the device kernels (devP) and a statement's phase-A fold alike.
// Threads, which the meter bills, the morsel size and the context are p's.
// The worker count is read per call, so it follows GOMAXPROCS changes made
// after this package was initialised (go test -cpu, embedders).
func OnDevice(p par.P) par.P {
	p.Workers = runtime.GOMAXPROCS(0)
	return p
}

// OpsPackedScan is the per-tuple operation count of a JIT-generated packed
// selection kernel: unpacking a bit-packed code straddling word boundaries,
// masking, shifting and evaluating the relaxed predicate. It makes wide
// scans compute-bound on the device, which is what the paper's untuned
// kernels observably were (their approximation times barely vary with the
// packed width, Fig 8c).
const OpsPackedScan = 6

// GranuleStats counts, process-wide, how the approximate scans disposed of
// the granules they visited: Skipped were never read and admitted no row (no
// disjunct's range meets the code bounds of the granule, or of either of its
// two parts), Inside were never read and admitted rows — the whole granule,
// or exactly the part a range covers — and Decoded had codes compared.
type GranuleStats struct {
	Skipped, Inside, Decoded uint64
}

var granuleStats struct {
	skipped, inside, decoded atomic.Uint64
}

// String renders the counters as the scan: line of \stats, leading with
// the share of granules that were never read.
func (s GranuleStats) String() string {
	total := s.Skipped + s.Inside + s.Decoded
	ratio := 0.0
	if total > 0 {
		ratio = 100 * float64(s.Skipped) / float64(total)
	}
	return fmt.Sprintf("scan: %d granules, %d skipped (%.0f%%), %d inside, %d decoded",
		total, s.Skipped, ratio, s.Inside, s.Decoded)
}

// ScanStats returns the process-wide granule counters. They are bumped
// once per work-group, never per row.
func ScanStats() GranuleStats {
	return GranuleStats{
		Skipped: granuleStats.skipped.Load(),
		Inside:  granuleStats.inside.Load(),
		Decoded: granuleStats.decoded.Load(),
	}
}

// SelectApprox is the approximation of a selection on a bitwise decomposed
// column (§IV-B): the device scans the bit-packed approximation with the
// relaxed predicate r and emits every tuple whose approximation code
// matches — a superset of the exact result. The output order is a
// deterministic permutation of the input order, modelling the
// non-order-preserving massively parallel kernel (§IV-A item 3).
//
// On the device the candidate codes ride along with the IDs; they are the
// host's only view of the device-resident major bits once the candidates are
// shipped.
func SelectApprox(m *device.Meter, col *bwd.Column, r bwd.ApproxRange) *Candidates {
	c := getCandidates()
	c.attach = append(c.attach, attachment{col: col, rng: r})
	scanApprox(m, c)
	return c
}

// SelectApproxAny is the approximation of a disjunctive selection over the
// bitwise decomposed columns cols with relaxed ranges rs (one per
// disjunct, possibly repeating a column): the device scans every disjunct
// column's packed approximation and emits the tuples whose code matches
// any relaxed range — a superset of the exact OR result, in the same
// deterministic permutation as a conjunctive scan. All disjunct columns
// attach to the candidates under one disjunction group id, so CertainMask can
// evaluate the group as a whole.
func SelectApproxAny(m *device.Meter, cols []*bwd.Column, rs []bwd.ApproxRange, group int) *Candidates {
	c := getCandidates()
	for j, col := range cols {
		c.attach = append(c.attach, attachment{col: col, rng: rs[j], group: group})
	}
	scanApprox(m, c)
	return c
}

// scanApprox runs the approximate scan described by c's attachments — one
// filtered column per disjunct — and leaves its survivors on c as a mask.
// The disjuncts travel in the (pooled) candidate header rather than in
// argument slices so that nothing the caller built escapes to the worker
// goroutines: a one-work-group scan allocates nothing.
func scanApprox(m *device.Meter, c *Candidates) {
	att := c.attach
	n := att[0].col.Len()
	c.rows = n
	c.mask = mem.U64.GetN((n + bwd.GranuleRows - 1) / bwd.GranuleRows)
	c.offs = mem.Ints.GetN((n + gpuChunk - 1) / gpuChunk)
	c.narrow(att, false)
	if m != nil {
		// The simulated device reads every disjunct's whole packed plane and
		// evaluates every tuple: the granule bounds are a host-side
		// emulation aid and never discount the charge (DESIGN.md §7).
		var scanned int64
		written := int64(c.n) * 4
		for j := range att {
			scanned += att[j].col.Approx.Bytes()
			written += packedBytes(c.n, att[j].col.Dec.ApproxBits)
		}
		m.GPUKernel(scanned+written, 0, int64(n)*OpsPackedScan*int64(len(att)))
	}
}

// narrow is the mask step of every approximate selection: each work-group
// walks its granules and records which rows satisfy any of the disjuncts att
// in one word per granule — over all rows for the scan that starts a set,
// and (and) over the words earlier steps left non-zero for a further
// conjunct, whose outcome is ANDed in. The walk and the decision it takes
// per granule are bwd's (ScanGranules, NarrowGranules), shared with the
// classic selection; what an approximate selection compares in a granule its
// range cuts through is the packed codes. One work-group runs on the calling
// goroutine without materializing a closure; an empty column has none.
func (c *Candidates) narrow(att []attachment, and bool) {
	c.walk = c.walk[:0]
	for j := range att {
		c.walk = append(c.walk, att[j].col.Approximately(att[j].rng).Through(att[j].key))
	}
	c.walkGranules(and)
}

// walkGranules runs the mask step over the disjuncts compiled into c.walk.
func (c *Candidates) walkGranules(and bool) {
	c.reopen()
	ds, mask, counts, group := c.walk, c.mask, c.offs, bwd.ScanGranules
	if and {
		group = bwd.NarrowGranules
	}
	if len(counts) == 1 {
		counts[0] = countGroup(group(ds, mask, 0, c.rows))
	} else if len(counts) > 1 {
		devP().For(c.rows, func(lo, hi int) {
			counts[lo/gpuChunk] = countGroup(group(ds, mask, lo, hi))
		})
	}
	c.recount()
}

// refine is the mask step of a refinement: the disjuncts compiled into
// c.walk narrow the survivors like a further conjunct, but on p — the
// statement's share of the host, phase R's grant — a work-group at a time,
// and without filing granule outcomes, which count the approximate scans
// only. One work-group runs on the calling goroutine without materializing a
// closure. A walk cancelled partway leaves the mask undefined and returns
// the context's error.
func (c *Candidates) refine(p par.P) error {
	c.reopen()
	ds, mask, counts := c.walk, c.mask, c.offs
	if len(counts) <= 1 {
		if len(counts) == 1 {
			counts[0], _ = bwd.NarrowGranules(ds, mask, 0, c.rows)
		}
		c.recount()
		return p.Cancelled()
	}
	p.Chunk = gpuChunk
	err := p.For(c.rows, func(lo, hi int) {
		counts[lo/gpuChunk], _ = bwd.NarrowGranules(ds, mask, lo, hi)
	})
	c.recount()
	return err
}

// countGroup adds one work-group's granule outcomes to the process-wide
// counters and passes its survivor count through.
func countGroup(n int, o bwd.Outcomes) int {
	granuleStats.skipped.Add(o.Skipped)
	granuleStats.inside.Add(o.Inside)
	granuleStats.decoded.Add(o.Compared)
	return n
}

// recount sums the work-groups' survivor counts into the set's length.
func (c *Candidates) recount() {
	c.n = 0
	for _, cnt := range c.offs {
		c.n += cnt
	}
}

// reopen readies the set for a narrowing, which rewrites every work-group's
// survivor count: slots sealed in candidate order become counts again (seal
// recomputes them, in the same order), and whatever was built from the old
// mask — the ids, the certain mask — goes back to the arena, to be built from
// the narrower one on demand.
func (c *Candidates) reopen() {
	c.sealed = false
	if c.emitted {
		c.emitted = false
		oidPool.Put(c.ids)
		c.ids = nil
	}
	mem.U64.Put(c.certain)
	c.certain, c.certainBuilt = nil, false
}

// MaskOut clears the candidates whose bit is set in drop — a bitmap over the
// scanned rows, bit i%64 of word i/64, which may end early. It is how the
// device discharges deleted rows: the deletion bitmap is mirrored
// device-side, so masking is one AND-NOT per granule; the caller, which
// knows the bitmap's footprint, charges it.
func (c *Candidates) MaskOut(drop []uint64) {
	c.reopen()
	for ci := range c.offs {
		lo := ci * groupGranules
		hi := min(lo+groupGranules, len(c.mask))
		cnt := 0
		for g := lo; g < hi; g++ {
			if g < len(drop) {
				c.mask[g] &^= drop[g]
			}
			cnt += bits.OnesCount64(c.mask[g])
		}
		c.offs[ci] = cnt
	}
	c.recount()
}

// seal ends the narrowing: the work-groups' survivor counts are prefix-
// summed in the deterministic shuffled completion order of par.PermuteInto —
// the unordered device discipline — which gives every work-group its slot
// in candidate order. Everything emitted from the mask afterwards — the ids,
// projections, grouping keys — lands in those slots, rows ascending inside
// one, so all of it is positionally aligned.
func (c *Candidates) seal() {
	if c.sealed {
		return
	}
	c.sealed = true
	order := par.PermuteInto(mem.Ints.GetN(len(c.offs)))
	total := 0
	for _, ci := range order {
		cnt := c.offs[ci]
		c.offs[ci] = total
		total += cnt
	}
	mem.Ints.Put(order)
}

// Emit materialises the set's ids: every work-group writes its survivors'
// ids straight into its slot of the exact-size output (emitGroup), in
// parallel, no concatenation. It is the one place candidate ids come from;
// calling it again before the mask narrows does nothing. IDs calls it on
// demand — so a statement none of whose operators addresses positions (only a
// dimension projection does) never pays for a list.
func (c *Candidates) Emit() {
	if c.emitted {
		return
	}
	c.emitted = true
	c.seal()
	c.ids = oidPool.GetN(c.n)
	ids, mask, offs := c.ids, c.mask, c.offs
	if len(offs) == 1 {
		emitGroup(ids, mask, 0, c.rows, 0)
	} else if c.n > 0 {
		devP().For(c.rows, func(lo, hi int) {
			emitGroup(ids, mask, lo, hi, offs[lo/gpuChunk])
		})
	}
}

// emitCodes writes col's code of every candidate into codes, aligned with
// the candidate order, decoding by granule from the mask.
func (c *Candidates) emitCodes(approx *bitpack.Array, codes []uint64) {
	c.seal()
	mask, offs := c.mask, c.offs
	if len(offs) == 1 {
		decodeGranules(approx, codes, mask, 0, len(mask))
	} else if c.n > 0 {
		devP().For(c.rows, func(lo, hi int) {
			g0, g1, off := lo/bwd.GranuleRows, granulesTo(hi), offs[lo/gpuChunk]
			decodeGranules(approx, codes[off:off+survivors(mask[g0:g1])], mask, g0, g1)
		})
	}
}

// survivors counts the rows a stretch of mask words holds.
func survivors(mask []uint64) int {
	n := 0
	for _, word := range mask {
		n += bits.OnesCount64(word)
	}
	return n
}

// granulesTo is the number of granules that hold rows [0,hi).
func granulesTo(hi int) int { return (hi + bwd.GranuleRows - 1) / bwd.GranuleRows }

// groupGranules is the number of granules in one work-group.
const groupGranules = gpuChunk / bwd.GranuleRows

// WorkGroups seals the set's mask in candidate order (seal) and returns how
// many work-groups it spans; 0 says it scanned no row. Blocks, Decode and
// Granules read a set by its mask, which is how a column of the approximation
// reaches a consumer without a candidate-length buffer in between: the
// aggregate program's block registers (internal/plan), GroupApprox's key
// tuples and the refinements' exact values.
func (c *Candidates) WorkGroups() int {
	c.seal()
	return len(c.offs)
}

// Blocks walks work-groups [wlo,whi) of a set whose WorkGroups was taken, in
// runs of at most span granules, and calls fn for every run that holds a
// survivor: its granules [g0,g1), the candidate position of its first
// survivor and how many it holds — they are consecutive in candidate order.
// Distinct work-groups may be walked concurrently.
func (c *Candidates) Blocks(wlo, whi, span int, fn func(g0, g1, pos, n int)) {
	for ci := wlo; ci < whi; ci++ {
		pos := c.offs[ci]
		end := min((ci+1)*groupGranules, len(c.mask))
		for g0 := ci * groupGranules; g0 < end; g0 += span {
			g1 := min(g0+span, end)
			if n := survivors(c.mask[g0:g1]); n > 0 {
				fn(g0, g1, pos, n)
				pos += n
			}
		}
	}
}

// Decode writes approx's codes of the survivors in granules [g0,g1) into the
// front of out, in row order, and returns how many there are. All of out is
// the caller's to scribble on: where there is room a granule decodes in place.
func (c *Candidates) Decode(approx *bitpack.Array, out []uint64, g0, g1 int) int {
	return decodeGranules(approx, out, c.mask, g0, g1)
}

// Granules returns the survivor words of granules [g0,g1) of a set whose
// WorkGroups was taken — the set's own, to read only — and how many rows
// those granules hold: 64 each, but the scan's last may hold fewer. A reader
// that takes a run of granules whole, dropped rows and all, reads them here.
func (c *Candidates) Granules(g0, g1 int) ([]uint64, int) {
	return c.mask[g0:g1], min(g1*bwd.GranuleRows, c.rows) - g0*bwd.GranuleRows
}

// denseSurvivors is the survivor count from which reading a granule by one
// 64-row decode is cheaper than one positional Get per survivor.
const denseSurvivors = 16

// emitGroup writes the ids of the survivors of work-group [lo,hi) into the
// output slot starting at off, in row order.
func emitGroup(ids []bat.OID, mask []uint64, lo, hi, off int) {
	for g := lo / bwd.GranuleRows; g < granulesTo(hi); g++ {
		base := g * bwd.GranuleRows
		for w := mask[g]; w != 0; w &= w - 1 {
			ids[off] = bat.OID(base + bits.TrailingZeros64(w))
			off++
		}
	}
}

// decodeGranules writes one packed column's codes of the rows of granules
// [g0,g1) whose mask bit is set into the front of out, in row order, and
// returns how many it wrote; out is at least that long and none of it is
// anyone else's. It is the one loop every reader of a column by mask runs — a
// projection, the grouping keys, the aggregate program's registers — and
// emitGranule the one rule it applies.
func decodeGranules(approx *bitpack.Array, out []uint64, mask []uint64, g0, g1 int) int {
	var buf [bwd.GranuleRows]uint64
	k := 0
	for g := g0; g < g1; g++ {
		if word := mask[g]; word != 0 {
			k += emitGranule(approx, out[k:], word, g*bwd.GranuleRows, &buf)
		}
	}
	return k
}

// emitGranule writes the codes of the rows of the granule at base whose bit
// is set in word into the front of out and returns how many that is. A sparse
// word is fetched per set bit; a dense one is taken from one granule decode —
// in place, where out has room for a whole granule, in buf otherwise — and
// compacted over its holes, the rows before the first one being where they
// belong already; a full word is that decode and nothing else. The word's
// popcount alone makes the choice.
func emitGranule(approx *bitpack.Array, out []uint64, word uint64, base int, buf *[bwd.GranuleRows]uint64) int {
	cnt := bits.OnesCount64(word)
	if cnt < denseSurvivors {
		k := 0
		for w := word; w != 0; w &= w - 1 {
			out[k] = approx.Get(base + bits.TrailingZeros64(w))
			k++
		}
		return cnt
	}
	rows := buf
	if len(out) >= bwd.GranuleRows {
		rows = (*[bwd.GranuleRows]uint64)(out)
	}
	approx.Unpack64(rows, base)
	k := bits.TrailingZeros64(^word) // the first hole; 64 when there is none
	if rows == buf {
		copy(out, buf[:k])
	}
	for i := k + 1; i < bits.Len64(word); i++ {
		out[k] = rows[i]
		k += int(word >> uint(i) & 1)
	}
	return cnt
}
