package ar

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"

	"repro/internal/bat"
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
// decoded. None of that is visible to the simulated device, which still
// pays the paper's full packed scan.

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
// the granules they visited: Skipped were never read (no disjunct's range
// meets the granule's code bounds), Inside were accepted whole from the
// bounds alone, Decoded were unpacked and compared row by row.
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
// filtered column per disjunct, codes not yet filled in — and fills c.IDs
// and every attachment's codes. The disjuncts travel in the (pooled)
// candidate header rather than in argument slices so that nothing the
// caller built escapes to the worker goroutines: a one-work-group scan
// allocates nothing.
//
//   - Mask: every work-group walks its granules and records the survivors
//     of each in one word of an n/64-word bitmask (maskGroup), returning
//     its survivor count.
//   - The counts are prefix-summed in the deterministic shuffled completion
//     order of par.PermuteInto — the unordered device discipline — which
//     gives every work-group its slot in the exact-size output.
//   - Materialise: every work-group writes its survivors' ids and codes
//     straight into its slot (emitGroup), in parallel, no concatenation.
//
// The mask and the offsets are arena buffers owned by this call and
// released before it returns; the ids and codes pass to the candidate set.
func scanApprox(m *device.Meter, c *Candidates) {
	att := c.attach
	n := att[0].col.Len()
	nchunks := (n + gpuChunk - 1) / gpuChunk
	mask := mem.U64.GetN((n + bwd.GranuleRows - 1) / bwd.GranuleRows)
	offs := mem.Ints.GetN(nchunks)
	// One work-group runs on the calling goroutine without materializing a
	// closure, keeping the scan allocation-free; an empty column has none.
	if nchunks == 1 {
		offs[0] = maskGroup(att, mask, 0, n)
	} else if nchunks > 1 {
		devP().For(n, func(lo, hi int) {
			offs[lo/gpuChunk] = maskGroup(att, mask, lo, hi)
		})
	}
	order := par.PermuteInto(mem.Ints.GetN(nchunks))
	total := 0
	for _, ci := range order {
		cnt := offs[ci]
		offs[ci] = total
		total += cnt
	}
	mem.Ints.Put(order)

	ids := oidPool.GetN(total)
	for j := range att {
		att[j].codes = mem.U64.GetN(total)
	}
	if nchunks == 1 {
		emitGroup(ids, att, mask, 0, n, 0)
	} else if total > 0 {
		devP().For(n, func(lo, hi int) {
			emitGroup(ids, att, mask, lo, hi, offs[lo/gpuChunk])
		})
	}
	mem.Ints.Put(offs)
	mem.U64.Put(mask)
	c.IDs = ids

	if m != nil {
		// The simulated device reads every disjunct's whole packed plane and
		// evaluates every tuple: the granule bounds are a host-side
		// emulation aid and never discount the charge (DESIGN.md §7).
		var scanned int64
		written := int64(total) * 4
		for j := range att {
			scanned += att[j].col.Approx.Bytes()
			written += packedBytes(total, att[j].col.Dec.ApproxBits)
		}
		m.GPUKernel(scanned+written, 0, int64(n)*OpsPackedScan*int64(len(att)))
	}
}

// maskGroup computes the survivor words of the granules of work-group
// [lo,hi) — lo is a multiple of the granule size — and returns the
// group's survivor count. Per granule and disjunct, the column's code
// bounds decide first: a range that misses them contributes nothing
// without a read, a range that covers them admits the whole granule
// without a decode, and only a range that cuts through them has the
// granule unpacked into a stack buffer and compared row by row.
func maskGroup(att []attachment, mask []uint64, lo, hi int) int {
	var buf [bwd.GranuleRows]uint64
	var skipped, inside, decoded uint64
	cnt := 0
	for g := lo / bwd.GranuleRows; g*bwd.GranuleRows < hi; g++ {
		base := g * bwd.GranuleRows
		rows := min(bwd.GranuleRows, hi-base)
		all := ^uint64(0) >> (bwd.GranuleRows - rows)
		var word uint64
		unpacked := false
		for j := range att {
			a := &att[j]
			if a.rng.Empty {
				continue
			}
			rlo, rhi := a.rng.Lo, a.rng.Hi
			if a.rng.Full {
				rlo, rhi = 0, ^uint64(0)
			}
			b := a.col.Granules()[g]
			if b.Max < rlo || b.Min > rhi {
				continue
			}
			if b.Min >= rlo && b.Max <= rhi {
				word = all
				break
			}
			a.col.Approx.Unpack64(&buf, base)
			unpacked = true
			span := rhi - rlo
			for i := 0; i < bwd.GranuleRows; i += 8 {
				b := (*[8]uint64)(buf[i : i+8])
				word |= (inRange(b[0], rlo, span) | inRange(b[1], rlo, span)<<1 |
					inRange(b[2], rlo, span)<<2 | inRange(b[3], rlo, span)<<3 |
					inRange(b[4], rlo, span)<<4 | inRange(b[5], rlo, span)<<5 |
					inRange(b[6], rlo, span)<<6 | inRange(b[7], rlo, span)<<7) << uint(i)
			}
			word &= all
		}
		switch {
		case unpacked:
			decoded++
		case word != 0:
			inside++
		default:
			skipped++
		}
		mask[g] = word
		cnt += bits.OnesCount64(word)
	}
	granuleStats.skipped.Add(skipped)
	granuleStats.inside.Add(inside)
	granuleStats.decoded.Add(decoded)
	return cnt
}

// inRange is 1 when lo <= code <= lo+span and 0 otherwise, without a branch.
func inRange(code, lo, span uint64) uint64 {
	if code-lo <= span {
		return 1
	}
	return 0
}

// denseSurvivors is the survivor count from which materialising a granule
// by one 64-row decode is cheaper than one positional Get per survivor.
const denseSurvivors = 16

// emitGroup materialises the survivors of work-group [lo,hi) into the
// output slot starting at off: ids in row order, and for every attached
// column the survivors' codes — fetched per set bit where the survivor
// word is sparse, picked out of one granule decode where it is dense. The
// word's popcount alone makes that choice.
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
			approx := att[j].col.Approx
			codes := att[j].codes[off : off+cnt]
			k = 0
			if cnt == bwd.GranuleRows {
				approx.Unpack64((*[bwd.GranuleRows]uint64)(codes), base)
			} else if cnt >= denseSurvivors {
				approx.Unpack64(&buf, base)
				for w := word; w != 0; w &= w - 1 {
					codes[k] = buf[bits.TrailingZeros64(w)]
					k++
				}
			} else {
				for w := word; w != 0; w &= w - 1 {
					codes[k] = approx.Get(base + bits.TrailingZeros64(w))
					k++
				}
			}
		}
		off += cnt
	}
}
