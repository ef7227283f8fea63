// Package bulk implements the classic MonetDB-style bulk processing model
// (§II-B of the paper): operators are simple, tight loops without function
// calls in the hot path that fully materialize their results for the next
// operator to pick up. It is the CPU-only baseline ("MonetDB" in the paper's
// charts) that the Approximate & Refine implementation is compared against.
//
// The executor owns the scan (internal/ar's survivor sets) and the folds
// (internal/plan); this package holds the model's bill, its grouping table and
// top-k, and the FK index:
//
//   - ChargeSelectRange, ChargeSelectOIDs, ChargeFetch and ChargeFKJoin bill
//     the model's full-scan selection, its candidate-list filters, its fetch
//     and its FK join — an id list handed from each to the next. A classic
//     statement's scan narrows a host survivor set instead (ar.SelectExact)
//     and charges what these operators would have charged (DESIGN.md §7).
//   - ChargeGroupBy bills the model's hash grouping, a group id per row. What
//     runs is a keyed fold (internal/plan) whose blocks number their keys
//     through a KeyTable: no group id per row exists (DESIGN.md §7).
//   - TopK takes a par.P: it executes morsel-parallel with the P's real
//     worker budget, and a serial P (the zero value, or par.P{Threads: t,
//     Workers: 1}) runs the plain loop on the calling goroutine, the ground
//     truth tests compare parallel runs against. ChargeTopK bills it at the
//     P's simulated thread count.
//   - FKIndex is a dense primary key's base and length (BuildFKIndex).
//
// No operator takes a meter: each Charge function bills its simulated cost
// (bytes scanned/gathered/written and tuple-ops executed) against the CPU
// device at the billed thread count, from counts alone, and a caller that
// bills nothing does not call it. (The executor's aggregates are the compiled
// program of internal/plan; OpsAggregate is what it bills per row.)
package bulk

import (
	"slices"

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

// ChargeSelectRange bills the bulk model's range selection over a column of
// rows values, width bytes each, that kept out rows (MonetDB's uselect,
// order-preserving, §IV-A item 2): the whole tail streamed, the survivors'
// ids written, one comparison per row. The executor's classic selection
// (internal/plan), which keeps its survivors in a mask and reads a decomposed
// column by its code and residual, charges through it — the bill is the
// execution model's, not the host's.
func ChargeSelectRange(p par.P, m *device.Meter, width, rows, out int) {
	m.CPUWork(p.NThreads(), int64(rows)*int64(width)+int64(out)*oidBytes, 0, int64(rows)*OpsSelect)
}

// ChargeSelectOIDs bills the bulk model's filter of an id list that kept out
// of in candidates: both id lists streamed, the column (rows values, width
// bytes each) gathered at the candidate positions, one comparison per
// candidate.
func ChargeSelectOIDs(p par.P, m *device.Meter, width, rows, in, out int) {
	gather := device.RandomFetchBytes(int64(in), int64(width), int64(rows)*int64(width))
	m.CPUWork(p.NThreads(), int64(in+out)*oidBytes+gather, 0, int64(in)*OpsSelect)
}

// ChargeFetch bills the bulk model's fetch at n positions of a column of rows
// values, width bytes each — the invisible (positional) join that
// late-materializing column stores project with (§IV-C): the ids streamed,
// the values gathered and written. The bill is the model's full-width fetch
// whatever form the column is held in: a BAT, or a decomposition read by its
// code and residual (DESIGN.md §7).
func ChargeFetch(p par.P, m *device.Meter, width, rows, n int) {
	gather := device.RandomFetchBytes(int64(n), int64(width), int64(rows)*int64(width))
	m.CPUWork(p.NThreads(), int64(n)*oidBytes+int64(n)*int64(width)+gather, 0, int64(n)*OpsFetch)
}

// ChargeGroupBy bills the bulk model's hash grouping of n rows by k key
// columns (MonetDB's group.new, then a group.derive per further column): each
// key column streamed, a 4-byte group id written per row, a hash-table probe
// per row and column.
func ChargeGroupBy(p par.P, m *device.Meter, n, k int) {
	m.CPUWork(p.NThreads(), int64(n)*8*int64(k)+int64(n)*4, 0, int64(n)*OpsHashGroup*int64(k))
}

// KeyTable numbers keys — each a tuple of a fixed number of 64-bit words — in
// the order it first sees them: one flat open-addressing table, linear
// probing, at most half full, whose slots hold a key's number plus one (zero
// marks a free slot), the keys kept by value in number order. Reset takes its
// buffers from the arena, Release returns them.
type KeyTable struct {
	w     int
	slots []uint32
	keys  []uint64 // w words per key, in number order
	shift uint     // 64 - log2(len(slots))
}

// hashMul is the 64-bit Fibonacci-hashing multiplier (2^64 / phi, odd).
const hashMul = 0x9E3779B97F4A7C15

// Reset empties the table for keys of w words.
func (t *KeyTable) Reset(w int) {
	t.Release()
	t.w, t.slots, t.keys, t.shift = w, mem.U32.GetN(64), mem.U64.Get(32*w), 64-6 // 64 slots
	clear(t.slots)
}

// Release returns the table's buffers to the arena.
func (t *KeyTable) Release() {
	mem.U32.Put(t.slots)
	mem.U64.Put(t.keys)
	t.slots, t.keys = nil, nil
}

// Len is how many keys the table has numbered.
func (t *KeyTable) Len() int { return len(t.keys) / max(t.w, 1) }

// Keys is every numbered key's words, in number order.
func (t *KeyTable) Keys() []uint64 { return t.keys }

// Word returns the number of the one-word key, numbering it on first sight.
func (t *KeyTable) Word(key uint64) uint32 {
	mask := uint64(len(t.slots) - 1)
	for at := key * hashMul >> t.shift; ; at = (at + 1) & mask {
		switch s := t.slots[at]; {
		case s == 0:
			return t.insert(at, key)
		case t.keys[s-1] == key:
			return s - 1
		}
	}
}

// Tuple returns the number of the key of w words, numbering it on first sight.
func (t *KeyTable) Tuple(key []uint64) uint32 {
	mask := uint64(len(t.slots) - 1)
	for at := hashTuple(key) * hashMul >> t.shift; ; at = (at + 1) & mask {
		switch s := t.slots[at]; {
		case s == 0:
			return t.insert(at, key...)
		case slices.Equal(t.keys[int(s-1)*t.w:][:t.w], key):
			return s - 1
		}
	}
}

// hashTuple mixes a key's words; a one-word key hashes to itself.
func hashTuple(key []uint64) uint64 {
	h := key[0]
	for _, word := range key[1:] {
		h = (h*hashMul ^ h>>29) + word
	}
	return h
}

// insert numbers key, whose probe ended at the free slot at, growing the
// table first when it would be more than half full.
func (t *KeyTable) insert(at uint64, key ...uint64) uint32 {
	id := uint32(t.Len())
	if len(t.keys)+t.w > cap(t.keys) {
		keys := append(mem.U64.Get(2*cap(t.keys)), t.keys...)
		mem.U64.Put(t.keys)
		t.keys = keys
	}
	t.keys = append(t.keys, key...)
	if 2*(int(id)+1) > len(t.slots) {
		t.grow()
		return id
	}
	t.slots[at] = id + 1
	return id
}

// grow doubles the slots and enters every key under its number again.
func (t *KeyTable) grow() {
	mem.U32.Put(t.slots)
	t.slots, t.shift = mem.U32.GetN(2*len(t.slots)), t.shift-1
	clear(t.slots)
	mask := uint64(len(t.slots) - 1)
	for id := range t.Len() {
		at := hashTuple(t.keys[id*t.w:][:t.w]) * hashMul >> t.shift
		for t.slots[at] != 0 {
			at = (at + 1) & mask
		}
		t.slots[at] = uint32(id + 1)
	}
}
