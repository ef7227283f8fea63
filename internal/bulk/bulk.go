// Package bulk implements the classic MonetDB-style bulk processing model
// (§II-B of the paper): operators are simple, tight loops without function
// calls in the hot path that fully materialize their results for the next
// operator to pick up. Package bulk is both
//
//   - the CPU-only baseline ("MonetDB" in the paper's charts) that the
//     Approximate & Refine implementation is compared against, and
//   - the refinement substrate: A&R refinement operators run the same tight
//     CPU loops over candidates and residuals.
//
// Every operator takes an optional *device.Meter; when non-nil, the
// operator charges its simulated cost (bytes scanned/gathered/written and
// tuple-ops executed) against the CPU device at the billed thread count.
// A nil meter executes without cost accounting.
//
// Each operator exists once and takes a par.P: it executes morsel-parallel
// with the P's real worker budget while charging the meter for the P's
// simulated thread count. A serial P (the zero value, or par.P{Threads: t,
// Workers: 1}) runs the same implementation's plain loop on the calling
// goroutine — what loaders and examples pass, and the ground truth tests
// compare parallel runs against. Results are byte-identical for every
// worker count: selections concatenate morsel outputs in morsel order, and
// grouping/aggregation build per-worker partial states over contiguous
// blocks that merge in block order, preserving first-appearance group
// order exactly. (The executor's grouped and expression aggregates are the
// compiled program of internal/plan.)
//
// The selections here — SelectRange, then SelectOIDs per further conjunct,
// an id list handed from each to the next — are the model the classic
// executor is billed for, the reference its selection is tested against and
// what the Fig 8 micro-benchmarks time; a classic statement's scan itself
// narrows a host survivor set (ar.SelectExact) and charges what
// these operators charge, through ChargeSelectRange, ChargeSelectOIDs and
// ChargeFetch.
package bulk

import (
	"repro/internal/bat"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/par"
)

// oidPool recycles candidate lists through the shared bat.OIDPool arena;
// values and aggregate partials ride the shared mem pools.
var oidPool = &bat.OIDPool

// Per-tuple op weights used for compute-cost charging. A plain comparison
// in a selection loop is the unit; hashing costs several units, matching
// the relative operator costs observable in bulk engines.
// Hash weights reflect measured bulk-engine costs (tens of ns per tuple
// for hash build/group on out-of-cache tables).
const (
	OpsSelect    = 1
	OpsFetch     = 1
	OpsArith     = 1
	OpsAggregate = 1
	OpsHashBuild = 24
	OpsHashProbe = 12
	OpsHashGroup = 12
)

// oidBytes is the physical size the classic engine pays per tuple ID in
// candidate lists: MonetDB v11 BATs carry 64-bit oids on 64-bit builds.
// (The A&R operators ship compact 32-bit IDs across the bus instead; that
// difference is part of the design.)
const oidBytes = 8

// parallelMin is the input size below which the kernels fall back to the
// serial loop even with a multi-worker budget: goroutine fan-out on a
// few thousand rows costs more than it saves. Results are identical either
// way; this is purely a scheduling decision.
const parallelMin = 1 << 10

// serial reports whether p should run the serial loop for n rows.
func serial(p par.P, n int) bool {
	return p.NWorkers() <= 1 || (n < parallelMin && p.Chunk <= 0)
}

// SelectRange returns the positions of b whose value v satisfies
// lo <= v <= hi, in input order (the bulk selection is order-preserving,
// §IV-A item 2). This is MonetDB's uselect. Morsel survivors land in
// disjoint regions of one arena buffer and left-pack in morsel order.
func SelectRange(p par.P, m *device.Meter, b *bat.BAT, lo, hi int64) []bat.OID {
	tails := b.Tails()
	var out []bat.OID
	if serial(p, len(tails)) {
		out = oidPool.Get(len(tails))
		for i, v := range tails {
			if v >= lo && v <= hi {
				out = append(out, bat.OID(i))
			}
		}
	} else {
		buf := oidPool.GetN(len(tails))
		counts, _, err := par.ForCounted(p, len(tails), func(_ *mem.Scratch, _, mlo, mhi int) int {
			cnt := 0
			for i := mlo; i < mhi; i++ {
				if v := tails[i]; v >= lo && v <= hi {
					buf[mlo+cnt] = bat.OID(i)
					cnt++
				}
			}
			return cnt
		})
		if err != nil {
			out = buf[:0]
		} else {
			out = par.Compact(counts, p.ChunkSize(), buf)
			mem.Ints.Put(counts)
		}
	}
	ChargeSelectRange(p, m, b, len(out))
	return out
}

// ChargeSelectRange bills a SelectRange over b that kept out rows: the whole
// tail streamed, the survivors' ids written, one comparison per row. The
// executor's classic selection (internal/plan), which keeps its survivors in
// a mask, charges through it too — the bill is the execution model's, not
// the host's.
func ChargeSelectRange(p par.P, m *device.Meter, b *bat.BAT, out int) {
	if m != nil {
		m.CPUWork(p.NThreads(), b.TailBytes()+int64(out)*oidBytes, 0, int64(b.Len())*OpsSelect)
	}
}

// SelectOIDs filters an existing candidate list: it returns the subset of
// ids whose value in b satisfies lo <= v <= hi, preserving candidate order.
// Access to b is positional (gather).
func SelectOIDs(p par.P, m *device.Meter, b *bat.BAT, ids []bat.OID, lo, hi int64) []bat.OID {
	tails := b.Tails()
	var out []bat.OID
	if serial(p, len(ids)) {
		out = oidPool.Get(len(ids))
		for _, id := range ids {
			if v := tails[id]; v >= lo && v <= hi {
				out = append(out, id)
			}
		}
	} else {
		buf := oidPool.GetN(len(ids))
		counts, _, err := par.ForCounted(p, len(ids), func(_ *mem.Scratch, _, mlo, mhi int) int {
			cnt := 0
			for _, id := range ids[mlo:mhi] {
				if v := tails[id]; v >= lo && v <= hi {
					buf[mlo+cnt] = id
					cnt++
				}
			}
			return cnt
		})
		if err != nil {
			out = buf[:0]
		} else {
			out = par.Compact(counts, p.ChunkSize(), buf)
			mem.Ints.Put(counts)
		}
	}
	ChargeSelectOIDs(p, m, b, len(ids), len(out))
	return out
}

// ChargeSelectOIDs bills a SelectOIDs that kept out of in candidates: both id
// lists streamed, b gathered at the candidate positions, one comparison per
// candidate.
func ChargeSelectOIDs(p par.P, m *device.Meter, b *bat.BAT, in, out int) {
	if m != nil {
		gather := device.RandomFetchBytes(int64(in), int64(b.Width()), b.TailBytes())
		m.CPUWork(p.NThreads(), int64(in+out)*oidBytes+gather, 0, int64(in)*OpsSelect)
	}
}

// Fetch is the invisible (positional) join: it returns b's values at the
// given positions, aligned with ids. This is how late-materializing
// column stores implement projections (§IV-C). Each worker writes a
// disjoint slice of the output, so candidate alignment is preserved for
// free.
func Fetch(p par.P, m *device.Meter, b *bat.BAT, ids []bat.OID) []int64 {
	tails := b.Tails()
	out := mem.I64.GetN(len(ids))
	if serial(p, len(ids)) {
		for i, id := range ids {
			out[i] = tails[id]
		}
	} else {
		p.For(len(ids), func(mlo, mhi int) {
			for i := mlo; i < mhi; i++ {
				out[i] = tails[ids[i]]
			}
		})
	}
	ChargeFetch(p, m, b, len(ids))
	return out
}

// ChargeFetch bills a Fetch of n positions of b: the ids streamed, the
// values gathered and written.
func ChargeFetch(p par.P, m *device.Meter, b *bat.BAT, n int) {
	if m != nil {
		gather := device.RandomFetchBytes(int64(n), int64(b.Width()), b.TailBytes())
		m.CPUWork(p.NThreads(), int64(n)*oidBytes+int64(n)*int64(b.Width())+gather, 0, int64(n)*OpsFetch)
	}
}

// Grouping is the result of a group-by: a group ID per input position
// (positionally aligned with the input, the MonetDB representation noted
// in §IV-E), groups numbered in first-appearance order.
type Grouping struct {
	IDs     []uint32 // group id per input position; arena-backed (mem.U32), the consumer's to release
	NGroups int
}

// GroupBy hash-groups tuples by the key columns cols, assigning dense
// group IDs in order of first appearance, and returns the grouping plus
// the per-group key values of every column (keys[k][g]). Tuples group
// through one flat table (tupleTable), and a group's key values are read
// back from its first row. With several workers each hash-groups one
// contiguous block into a partial table, the partials merge in block order
// (so global group IDs follow global first appearance, exactly as the serial
// loop assigns them), and the per-position ID rewrite runs parallel again.
func GroupBy(p par.P, m *device.Meter, cols [][]int64) (*Grouping, [][]int64) {
	if len(cols) == 0 {
		return &Grouping{}, nil
	}
	n := len(cols[0])
	ids := mem.U32.GetN(n)
	global := tupleTable{cols: cols}
	if n == 0 || serial(p, n) { // no rows, no blocks to merge
		for i := 0; i < n; i++ {
			ids[i] = global.id(i)
		}
	} else {
		blocks := p.Blocks(n)
		parts := make([]tupleTable, len(blocks))
		for b := range parts {
			parts[b].cols = cols
		}
		par.RunBlocks(p, n, func(b, lo, hi int) {
			pt := &parts[b]
			for i := lo; i < hi; i++ {
				ids[i] = pt.id(i) // block-local, rewritten below
			}
		})
		// Merge block partials in block order: first appearance across
		// blocks equals first appearance in the serial scan.
		remap := make([][]uint32, len(blocks))
		for b := range parts {
			remap[b] = make([]uint32, len(parts[b].firsts))
			for localID, first := range parts[b].firsts {
				remap[b][localID] = global.id(first)
			}
		}
		// Blocks are equal-sized except the last; derive a position's
		// block from the first block's span.
		size := blocks[0].Hi - blocks[0].Lo
		p.For(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				b := i / size
				if b >= len(blocks) {
					b = len(blocks) - 1
				}
				ids[i] = remap[b][ids[i]]
			}
		})
	}
	order := global.firsts // global first-appearance position per group
	keys := make([][]int64, len(cols))
	for k := range cols {
		keys[k] = make([]int64, len(order))
		for gi, first := range order {
			keys[k][gi] = cols[k][first]
		}
	}
	if m != nil {
		// One group.new pass plus a group.derive pass per further column.
		m.CPUWork(p.NThreads(), int64(n)*8*int64(len(cols))+int64(n)*4, 0,
			int64(n)*OpsHashGroup*int64(len(cols)))
	}
	return &Grouping{IDs: ids, NGroups: len(order)}, keys
}

// tupleTable maps the key tuple at a row position — one int64 per column of
// cols — to a dense group id in first-appearance order: one flat
// open-addressing table, linear probing, at most half full. A slot holds the
// group id plus one (zero marks it free) and the tuple's hash; a hash match
// is confirmed against the group's first row. The zero value with cols set
// is an empty table.
type tupleTable struct {
	cols   [][]int64
	slots  []tupleSlot
	shift  uint  // 64 - log2(len(slots))
	firsts []int // the first row of every group, in id order
}

type tupleSlot struct {
	hash uint64
	gid  uint32
}

// hashMul is the 64-bit Fibonacci-hashing multiplier (2^64 / phi, odd).
const hashMul = 0x9E3779B97F4A7C15

// hash mixes row i's key tuple. One column hashes to its own value, so
// there a hash match is the tuple match (sameTuple never disagrees).
func (t *tupleTable) hash(i int) uint64 {
	h := uint64(t.cols[0][i])
	for _, col := range t.cols[1:] {
		h = (h*hashMul ^ h>>29) + uint64(col[i])
	}
	return h
}

func (t *tupleTable) sameTuple(i, j int) bool {
	for _, col := range t.cols {
		if col[i] != col[j] {
			return false
		}
	}
	return true
}

// id returns the group id of row i's tuple, assigning the next one on first
// sight.
func (t *tupleTable) id(i int) uint32 {
	if 2*(len(t.firsts)+1) > len(t.slots) {
		t.grow()
	}
	h := t.hash(i)
	mask := uint64(len(t.slots) - 1)
	for at := h * hashMul >> t.shift; ; at = (at + 1) & mask {
		switch s := &t.slots[at]; {
		case s.gid == 0:
			t.firsts = append(t.firsts, i)
			*s = tupleSlot{hash: h, gid: uint32(len(t.firsts))}
			return s.gid - 1
		case s.hash == h && t.sameTuple(i, t.firsts[s.gid-1]):
			return s.gid - 1
		}
	}
}

// grow doubles the table (64 slots to begin with) and re-inserts every
// group under its id.
func (t *tupleTable) grow() {
	old := t.slots
	if len(old) == 0 {
		t.slots, t.shift = make([]tupleSlot, 64), 64-6
	} else {
		t.slots, t.shift = make([]tupleSlot, 2*len(old)), t.shift-1
	}
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.gid == 0 {
			continue
		}
		at := s.hash * hashMul >> t.shift
		for t.slots[at].gid != 0 {
			at = (at + 1) & mask
		}
		t.slots[at] = s
	}
}

// Sum returns the sum of vals.
func Sum(p par.P, m *device.Meter, vals []int64) int64 {
	var s int64
	if serial(p, len(vals)) {
		for _, v := range vals {
			s += v
		}
	} else {
		nb := p.NBlocks(len(vals))
		parts := mem.I64.GetN(nb)
		clear(parts)
		par.RunBlocks(p, len(vals), func(b, lo, hi int) {
			var bs int64
			for _, v := range vals[lo:hi] {
				bs += v
			}
			parts[b] += bs
		})
		for _, v := range parts {
			s += v
		}
		mem.I64.Put(parts)
	}
	charge(m, p.NThreads(), len(vals), 8)
	return s
}

// Min returns the smallest value; ok is false on empty input.
func Min(p par.P, m *device.Meter, vals []int64) (int64, bool) {
	return extrema(p, m, vals, true)
}

// Max returns the largest value; ok is false on empty input.
func Max(p par.P, m *device.Meter, vals []int64) (int64, bool) {
	return extrema(p, m, vals, false)
}

func extrema(p par.P, m *device.Meter, vals []int64, min bool) (int64, bool) {
	if len(vals) == 0 {
		return 0, false
	}
	best := vals[0]
	if serial(p, len(vals)) {
		for _, v := range vals[1:] {
			if better(min, v, best) {
				best = v
			}
		}
	} else {
		nb := p.NBlocks(len(vals))
		parts := mem.I64.GetN(nb)
		clear(parts)
		par.RunBlocks(p, len(vals), func(b, lo, hi int) {
			bb := vals[lo]
			for _, v := range vals[lo+1 : hi] {
				if better(min, v, bb) {
					bb = v
				}
			}
			if blo, _ := p.BlockRange(len(vals), b); lo == blo || better(min, bb, parts[b]) {
				parts[b] = bb
			}
		})
		best = parts[0]
		for _, v := range parts[1:] {
			if better(min, v, best) {
				best = v
			}
		}
		mem.I64.Put(parts)
	}
	charge(m, p.NThreads(), len(vals), 8)
	return best, true
}

// better is the extremum comparison: a improves on b. A named function
// (not a captured closure) so the serial aggregate paths stay
// allocation-free.
func better(min bool, a, b int64) bool {
	if min {
		return a < b
	}
	return a > b
}

func charge(m *device.Meter, threads, n, bytesPer int) {
	if m != nil {
		m.CPUWork(threads, int64(n)*int64(bytesPer), 0, int64(n)*OpsAggregate)
	}
}
