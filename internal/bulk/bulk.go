// Package bulk implements the classic MonetDB-style bulk processing model
// (§II-B of the paper): operators are simple, tight loops without function
// calls in the hot path that fully materialize their results for the next
// operator to pick up. It is the CPU-only baseline ("MonetDB" in the paper's
// charts) that the Approximate & Refine implementation is compared against.
//
// The executor owns the scan (internal/ar's survivor sets); this package
// holds the model's bill, its grouping and top-k, and the FK index:
//
//   - ChargeSelectRange, ChargeSelectOIDs, ChargeFetch and ChargeFKJoin bill
//     the model's full-scan selection, its candidate-list filters, its fetch
//     and its FK join — an id list handed from each to the next. A classic
//     statement's scan narrows a host survivor set instead (ar.SelectExact)
//     and charges what these operators would have charged (DESIGN.md §7).
//   - GroupBy and TopK take a par.P: they execute morsel-parallel with the
//     P's real worker budget while charging the meter for the P's simulated
//     thread count. A serial P (the zero value, or par.P{Threads: t,
//     Workers: 1}) runs the same implementation's plain loop on the calling
//     goroutine, the ground truth tests compare parallel runs against.
//     Grouping builds per-worker partial states over contiguous blocks that
//     merge in block order, preserving first-appearance group order exactly,
//     so results are byte-identical for every worker count.
//   - FKIndex is a dense primary key's base and length (BuildFKIndex).
//
// Every charge and operator takes an optional *device.Meter; when non-nil,
// it charges its simulated cost (bytes scanned/gathered/written and
// tuple-ops executed) against the CPU device at the billed thread count. A
// nil meter executes without cost accounting. (The executor's aggregates
// are the compiled program of internal/plan; OpsAggregate is what it bills
// per row.)
package bulk

import (
	"repro/internal/bat"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/par"
)

// Per-tuple op weights used for compute-cost charging. A plain comparison
// in a selection loop is the unit; hashing costs several units, matching
// the relative operator costs observable in bulk engines.
// Hash weights reflect measured bulk-engine costs (tens of ns per tuple
// for hash probe/group on out-of-cache tables).
const (
	OpsSelect    = 1
	OpsFetch     = 1
	OpsArith     = 1
	OpsAggregate = 1
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

// ChargeSelectRange bills the bulk model's range selection over b that kept
// out rows (MonetDB's uselect, order-preserving, §IV-A item 2): the whole
// tail streamed, the survivors' ids written, one comparison per row. The
// executor's classic selection (internal/plan), which keeps its survivors in
// a mask, charges through it — the bill is the execution model's, not the
// host's.
func ChargeSelectRange(p par.P, m *device.Meter, b *bat.BAT, out int) {
	if m != nil {
		m.CPUWork(p.NThreads(), b.TailBytes()+int64(out)*oidBytes, 0, int64(b.Len())*OpsSelect)
	}
}

// ChargeSelectOIDs bills the bulk model's filter of an id list that kept out
// of in candidates: both id lists streamed, b gathered at the candidate
// positions, one comparison per candidate.
func ChargeSelectOIDs(p par.P, m *device.Meter, b *bat.BAT, in, out int) {
	if m != nil {
		gather := device.RandomFetchBytes(int64(in), int64(b.Width()), b.TailBytes())
		m.CPUWork(p.NThreads(), int64(in+out)*oidBytes+gather, 0, int64(in)*OpsSelect)
	}
}

// ChargeFetch bills the bulk model's fetch of b at n positions — the
// invisible (positional) join that late-materializing column stores project
// with (§IV-C): the ids streamed, the values gathered and written.
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
