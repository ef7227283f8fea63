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
// shares; the third is here. None of that is visible to the simulated
// device, which still pays the paper's full packed scan.

// gpuChunk is the tuple count per simulated device work-group.
const gpuChunk = 64 << 10

// devP is the host-side execution of every device kernel: work-groups of
// gpuChunk tuples over all host cores, never cancelled (a device kernel
// runs to completion; the meter bills the simulated device, not this P).
// The worker count is read per call, so it follows GOMAXPROCS changes made
// after this package was initialised (go test -cpu, embedders).
func devP() par.P {
	return par.P{Workers: runtime.GOMAXPROCS(0), Chunk: gpuChunk}
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
// The candidate codes ride along with the IDs; they are the host's only
// view of the device-resident major bits once the candidates are shipped.
func SelectApprox(m *device.Meter, col *bwd.Column, r bwd.ApproxRange) *Candidates {
	c := getCandidates()
	c.attach = append(c.attach, attachment{col: col, rng: r, filtered: true})
	scanApprox(m, c)
	return c
}

// SelectApproxAny is the approximation of a disjunctive selection over the
// bitwise decomposed columns cols with relaxed ranges rs (one per
// disjunct, possibly repeating a column): the device scans every disjunct
// column's packed approximation and emits the tuples whose code matches
// any relaxed range — a superset of the exact OR result, in the same
// deterministic permutation as a conjunctive scan. All disjunct columns'
// codes attach to the candidates under one disjunction group id, so
// Certain and the refinement can evaluate the group as a whole.
func SelectApproxAny(m *device.Meter, cols []*bwd.Column, rs []bwd.ApproxRange, group int) *Candidates {
	c := getCandidates()
	for j, col := range cols {
		c.attach = append(c.attach, attachment{col: col, rng: rs[j], filtered: true, group: group})
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
	if c.mask == nil || c.sealed {
		panic("ar: narrowing a candidate set that has no survivor mask or whose positions were already read")
	}
	c.walk = c.walk[:0]
	for j := range att {
		c.walk = append(c.walk, att[j].col.Approximately(att[j].rng))
	}
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

// MaskOut clears the candidates whose bit is set in drop — a bitmap over the
// scanned rows, bit i%64 of word i/64, which may end early. It is how the
// device discharges deleted rows: the deletion bitmap is mirrored
// device-side, so masking is one AND-NOT per granule; the caller, which
// knows the bitmap's footprint, charges it.
func (c *Candidates) MaskOut(drop []uint64) {
	if c.mask == nil || c.sealed {
		panic("ar: masking a candidate set that has no survivor mask or whose positions were already read")
	}
	const groupWords = gpuChunk / bwd.GranuleRows
	for ci := range c.offs {
		lo := ci * groupWords
		hi := min(lo+groupWords, len(c.mask))
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
// the attached codes, projections, grouping keys — lands in those slots,
// rows ascending inside one, so all of it is positionally aligned.
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

// Emit materialises a mask-carrying set: every work-group writes its
// survivors' ids and the codes of every attached column straight into its
// slot of the exact-size output (emitGroup), in parallel, no concatenation.
// It is the one place candidate ids come from a mask; calling it again, or
// on an id-list set, does nothing. The pipeline calls it after the last
// narrowing; the accessors that hand out positions call it on demand.
func (c *Candidates) Emit() {
	if c.mask == nil || c.emitted {
		return
	}
	c.emitted = true
	c.seal()
	c.ids = oidPool.GetN(c.n)
	for j := range c.attach {
		c.attach[j].codes = mem.U64.GetN(c.n)
	}
	ids, att, mask, offs := c.ids, c.attach, c.mask, c.offs
	if len(offs) == 1 {
		emitGroup(ids, att, mask, 0, c.rows, 0)
	} else if c.n > 0 {
		devP().For(c.rows, func(lo, hi int) {
			emitGroup(ids, att, mask, lo, hi, offs[lo/gpuChunk])
		})
	}
}

// emitCodes writes col's code of every candidate into codes, aligned with
// the candidate order, decoding by granule from the mask.
func (c *Candidates) emitCodes(approx *bitpack.Array, codes []uint64) {
	c.seal()
	mask, offs := c.mask, c.offs
	if len(offs) == 1 {
		emitColumn(approx, codes, mask, 0, c.rows, 0)
	} else if c.n > 0 {
		devP().For(c.rows, func(lo, hi int) {
			emitColumn(approx, codes, mask, lo, hi, offs[lo/gpuChunk])
		})
	}
}

// denseSurvivors is the survivor count from which reading a granule by one
// 64-row decode is cheaper than one positional Get per survivor.
const denseSurvivors = 16

// fewHoles is the number of missing rows up to which copying the stretches
// of a decoded granule between them beats picking its survivors one by one.
const fewHoles = 8

// emitGroup materialises the survivors of work-group [lo,hi) into the
// output slot starting at off: per granule with a survivor, the ids in row
// order and the survivors' codes of every attached column (emitGranule).
func emitGroup(ids []bat.OID, att []attachment, mask []uint64, lo, hi, off int) {
	var buf [bwd.GranuleRows]uint64
	for g := lo / bwd.GranuleRows; g*bwd.GranuleRows < hi; g++ {
		word := mask[g]
		if word == 0 {
			continue
		}
		base := g * bwd.GranuleRows
		cnt := bits.OnesCount64(word)
		out := ids[off : off+cnt]
		k := 0
		for w := word; w != 0; w &= w - 1 {
			out[k] = bat.OID(base + bits.TrailingZeros64(w))
			k++
		}
		for j := range att {
			emitGranule(att[j].col.Approx, att[j].codes[off:off+cnt], word, base, &buf)
		}
		off += cnt
	}
}

// emitColumn writes one packed column's codes of the survivors of
// work-group [lo,hi) into the output slot starting at off: what emitGroup
// does for an attached column, for a column projected from the same mask.
func emitColumn(approx *bitpack.Array, codes []uint64, mask []uint64, lo, hi, off int) {
	var buf [bwd.GranuleRows]uint64
	for g := lo / bwd.GranuleRows; g*bwd.GranuleRows < hi; g++ {
		word := mask[g]
		if word == 0 {
			continue
		}
		cnt := bits.OnesCount64(word)
		emitGranule(approx, codes[off:off+cnt], word, g*bwd.GranuleRows, &buf)
		off += cnt
	}
}

// emitGranule writes the codes of the rows of the granule at base whose bit
// is set in word into out, which has one entry per set bit — fetched per
// set bit where the word is sparse, taken from one granule decode where it
// is dense: decoded in place when the word is full, copied as the stretches
// between its few holes when it is nearly full (what an unselective scan
// leaves), picked out bit by bit otherwise. The word's popcount alone makes
// that choice. buf is the caller's decode scratch.
func emitGranule(approx *bitpack.Array, out []uint64, word uint64, base int, buf *[bwd.GranuleRows]uint64) {
	k := 0
	switch cnt := len(out); {
	case cnt == bwd.GranuleRows:
		approx.Unpack64((*[bwd.GranuleRows]uint64)(out), base)
	case cnt > bwd.GranuleRows-fewHoles:
		approx.Unpack64(buf, base)
		from := 0
		for holes := ^word; holes != 0; holes &= holes - 1 {
			at := bits.TrailingZeros64(holes)
			k += copy(out[k:], buf[from:at])
			from = at + 1
		}
		copy(out[k:], buf[from:])
	case cnt >= denseSurvivors:
		approx.Unpack64(buf, base)
		for w := word; w != 0; w &= w - 1 {
			out[k] = buf[bits.TrailingZeros64(w)]
			k++
		}
	default:
		for w := word; w != 0; w &= w - 1 {
			out[k] = approx.Get(base + bits.TrailingZeros64(w))
			k++
		}
	}
}
