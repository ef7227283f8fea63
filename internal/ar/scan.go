package ar

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"

	"repro/internal/bitpack"
	"repro/internal/bwd"
	"repro/internal/device"
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
// attach to the candidates under one disjunction group id, so Split can
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
// filtered column per disjunct — and leaves its survivors on c as a mask, in
// work-groups of gpuChunk rows sealed in device (permuted) order. The
// disjuncts travel in the (pooled) candidate header rather than in argument
// slices so that nothing the caller built escapes to the worker goroutines: a
// one-work-group scan allocates nothing.
func scanApprox(m *device.Meter, c *Candidates) {
	att := c.attach
	n := att[0].col.Len()
	c.open(n, gpuChunk, true)
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
// conjunct, whose outcome is ANDed in — on the device's P, filing the granule
// outcomes. The walk and the decision it takes per granule are bwd's
// (ScanGranules, NarrowGranules), shared with the classic selection; what an
// approximate selection compares in a granule its range cuts through is the
// packed codes.
func (c *Candidates) narrow(att []attachment, and bool) {
	c.walk = c.walk[:0]
	for j := range att {
		c.walk = append(c.walk, att[j].col.Approximately(att[j].rng).Through(att[j].key))
	}
	c.step(devP(), !and, true)
}

// Narrow keeps the candidates that satisfy any of the disjuncts ds, on p, a
// work-group at a time: the mask step of a refinement (SelectRefine,
// SelectRefineAny) and of every step of the classic selection after its
// first. It files no granule outcomes, which count the approximate scans
// only. A walk cancelled partway leaves the mask undefined and returns the
// context's error.
func (c *Candidates) Narrow(p par.P, ds ...bwd.Disjunct) error {
	c.walk = append(c.walk[:0], ds...)
	return c.step(p, false, false)
}

// step is every mask step: the disjuncts compiled into c.walk, walked over
// each work-group on p — its Chunk the set's — by bwd.ScanGranules for the
// step that starts the set (first) and bwd.NarrowGranules for a further one,
// which records every group's survivor count and keeps the set's live
// granules; file adds the groups' granule outcomes to the process-wide
// counters. A first step whose disjuncts the part index serves
// (bwd.Indexed) settles only the parts the index finds, on the calling
// goroutine, and records the same counts (bwd.ScanIndexed). One work-group
// runs on the calling goroutine without materializing a closure; a set of no
// rows has none. A walk cancelled partway leaves the mask undefined and
// returns the context's error.
func (c *Candidates) step(p par.P, first, file bool) error {
	c.reopen()
	ds, mask, live, counts, chunk := c.walk, c.mask, c.live, c.offs, c.chunk
	walk := bwd.NarrowGranules
	if first {
		walk = bwd.ScanGranules
	}
	var err error
	switch {
	case first && bwd.Indexed(ds, len(mask)):
		_, o := bwd.ScanIndexed(ds, mask, live, c.rows, chunk, counts)
		fileGroup(file, 0, o)
		err = p.Cancelled()
	case len(counts) == 1:
		n, o := walk(ds, mask, live, 0, c.rows)
		counts[0] = fileGroup(file, n, o)
		err = p.Cancelled()
	case len(counts) > 1:
		p.Chunk = chunk
		if !first {
			p = c.fewLive(p)
		}
		err = p.For(c.rows, func(lo, hi int) {
			n, o := walk(ds, mask, live, lo, hi)
			counts[lo/chunk] = fileGroup(file, n, o)
		})
	}
	c.recount()
	return err
}

// serialGranules is the live granule count below which a narrowing walks
// its work-groups on the calling goroutine: handing them to other cores
// costs a few microseconds, more than walking that many granules (tens of
// nanoseconds each) saves.
const serialGranules = 1024

// fewLive returns p with one worker when the set has fewer than
// serialGranules live granules, and p otherwise.
func (c *Candidates) fewLive(p par.P) par.P {
	k := 0
	for _, w := range c.live {
		k += bits.OnesCount64(w)
	}
	if k < serialGranules {
		p.Workers = 1
	}
	return p
}

// fileGroup adds one work-group's granule outcomes to the process-wide
// counters when file is set, and passes its survivor count through.
func fileGroup(file bool, n int, o bwd.Outcomes) int {
	if file {
		granuleStats.skipped.Add(o.Skipped)
		granuleStats.inside.Add(o.Inside)
		granuleStats.decoded.Add(o.Compared)
	}
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
// recomputes them, in the same order), and the split of the old mask goes
// back to the arena, to be split off the narrower one on demand.
func (c *Candidates) reopen() {
	c.sealed = false
	c.dropSplit()
}

// MaskOut clears the candidates whose bit is set in drop — a bitmap over the
// scanned rows, bit i%64 of word i/64, which may end early. It is how the
// device discharges deleted rows: the deletion bitmap is mirrored
// device-side, so masking is one AND-NOT per live granule; the caller, which
// knows the bitmap's footprint, charges it.
func (c *Candidates) MaskOut(drop []uint64) {
	c.reopen()
	clear(c.offs)
	for i, w := range c.live {
		var dead uint64
		for t := w; t != 0; t &= t - 1 {
			g := i*64 + bits.TrailingZeros64(t)
			if g < len(drop) {
				c.mask[g] &^= drop[g]
			}
			k := bits.OnesCount64(c.mask[g])
			c.offs[g*bwd.GranuleRows/c.chunk] += k
			if k == 0 {
				dead |= 1 << uint(g%64)
			}
		}
		c.live[i] = w &^ dead
	}
	c.recount()
}

// seal ends the narrowing: the work-groups' survivor counts are prefix-
// summed — in the deterministic shuffled completion order of par.PermuteInto
// for a device set, the unordered device discipline, in index order for a
// host one — which gives every work-group its slot in candidate order, and
// that order of the work-groups is kept beside the slots (order).
// Everything read from the mask afterwards — projections, grouping keys,
// exact values — lands in those slots, rows ascending inside one, so all
// of it is positionally aligned.
func (c *Candidates) seal() {
	if c.sealed {
		return
	}
	c.sealed = true
	order := c.offs[len(c.offs) : 2*len(c.offs)]
	if c.permuted {
		par.PermuteInto(order)
	} else {
		for ci := range order {
			order[ci] = ci
		}
	}
	total := 0
	for _, ci := range order {
		cnt := c.offs[ci]
		c.offs[ci] = total
		total += cnt
	}
}

// Order returns the set's work-groups in candidate order, as seal took them:
// the order in which a serial pass over the candidates meets them. It lives
// in the second half of the slots' buffer.
func (c *Candidates) Order() []int {
	c.seal()
	return c.offs[len(c.offs) : 2*len(c.offs)]
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

// groupGranules returns the granules [g0,g1) of work-group ci.
func (c *Candidates) groupGranules(ci int) (g0, g1 int) {
	per := c.chunk / bwd.GranuleRows
	return ci * per, min((ci+1)*per, len(c.mask))
}

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
		start, end := c.groupGranules(ci)
		for g0 := start; g0 < end; g0 += span {
			g1 := min(g0+span, end)
			if n := survivors(c.mask[g0:g1]); n > 0 {
				fn(g0, g1, pos, n)
				pos += n
			}
		}
	}
}

// Decode writes approx's codes of the survivors in granules [g0,g1) into the
// front of out, in row order, and returns how many there are: a survivor's
// code at its row or, through key, at the dimension position its key joins.
// All of out is the caller's to scribble on: where there is room a granule
// decodes in place.
func (c *Candidates) Decode(approx *bitpack.Array, key *bwd.Key, out []uint64, g0, g1 int) int {
	return decodeGranules(approx, key, out, c.mask, g0, g1)
}

// Granules returns the survivor words of granules [g0,g1) of a set whose
// WorkGroups was taken — the set's own, to read only — and how many rows
// those granules hold: 64 each, but the scan's last may hold fewer. A reader
// that takes a run of granules whole, dropped rows and all, reads them here.
func (c *Candidates) Granules(g0, g1 int) ([]uint64, int) {
	return c.mask[g0:g1], min(g1*bwd.GranuleRows, c.rows) - g0*bwd.GranuleRows
}

// denseSurvivors is the survivor count from which reading a granule by one
// 64-row decode — the width's kernel, then a pass over the granule's holes —
// is cheaper than one At per survivor. In order over 1 M random codes
// (2-vCPU x86-64 host) the two cost the same, ≈ 120 ns a granule, at about
// 32 survivors at 2, 4, 12 and 23 bits: the decode is ≈ 25 ns of it, the
// pass over the holes the rest, and At ≈ 3.5 ns a survivor. TPC-H Q1, Q6
// and Q14 (BenchmarkOpOlapTail), whose words are nearly full or nearly
// empty, ran alike at 16 and 32.
const denseSurvivors = 32

// decodeGranules writes one packed column's codes of the rows of granules
// [g0,g1) whose mask bit is set into the front of out, in row order, and
// returns how many it wrote; out is at least that long and none of it is
// anyone else's. It is the one loop every reader of a column by mask runs — a
// projection, the grouping keys, the aggregate program's registers — and
// emitGranule the one rule it applies to a column of the scanned table. A
// dimension column is read through key, one At per survivor at the position
// its key joins: only a survivor's key is known to have a partner.
func decodeGranules(approx *bitpack.Array, key *bwd.Key, out []uint64, mask []uint64, g0, g1 int) int {
	var buf [bwd.GranuleRows]uint64
	k := 0
	for g := g0; g < g1; g++ {
		switch word := mask[g]; {
		case word == 0:
		case key != nil:
			for w, base := word, g*bwd.GranuleRows; w != 0; w &= w - 1 {
				pos, _ := key.At(base + bits.TrailingZeros64(w))
				out[k] = approx.At(pos)
				k++
			}
		default:
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
			out[k] = approx.At(base + bits.TrailingZeros64(w))
			k++
		}
		return cnt
	}
	rows := buf
	if len(out) >= bwd.GranuleRows {
		rows = (*[bwd.GranuleRows]uint64)(out)
	}
	approx.Unpack64(rows, base, 0)
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
