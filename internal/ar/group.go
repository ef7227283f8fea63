package ar

import (
	"fmt"
	"math/bits"

	"repro/internal/bulk"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/par"
)

// Grouping is the device's approximate (pre-)grouping (§IV-E) over one or
// more columns (TPC-H Q1 groups by l_returnflag, l_linestatus) as the meter
// sees it: the key columns, how many distinct tuples of their codes the
// candidates hold, and how many candidates were grouped. It ships a group id
// per candidate and the groups' code table (Ship), which the host never
// holds: it groups by key as it folds (internal/plan).
type Grouping struct {
	Cols    []*bwd.Column
	NGroups int
	// Cands is how many candidates were grouped: the set's length at
	// grouping time, which the refinements may have narrowed since.
	Cands   int
	shipped bool
}

// DirectBits is the widest key tuple a direct table of 2^bits entries
// indexes, cache resident: GroupApprox counts a key this narrow in a bitmap
// per work-group, and a grouped fold (internal/plan) accumulates it straight
// into the entry it indexes; a wider one goes through a hash table.
const DirectBits = 12

// GroupKeyFits reports whether the columns' approximation codes pack into
// one entry of the device grouping table, which is a 64-bit word. A wider
// key cannot be pre-grouped on the device; the caller groups on the host.
func GroupKeyFits(cols []*bwd.Column) bool { return GroupKeyBits(cols) <= 64 }

// GroupKeyBits is the width of the columns' key tuple: the grouping packs a
// candidate's codes into one word, the leading column highest (blockKeys).
func GroupKeyBits(cols []*bwd.Column) uint {
	var bits uint
	for _, col := range cols {
		bits += col.Dec.ApproxBits
	}
	return bits
}

// GroupApprox pre-groups the candidates by the tuple of approximation codes
// of cols on the device, billed by ChargeGroupApprox.
//
// If every column is fully device resident, the approximate grouping is
// already the exact grouping of the candidate set (§IV-E: low-cardinality
// grouping columns compress enough to stay resident, eliminating
// subgrouping). It panics when the key does not fit (GroupKeyFits): a
// truncated key would merge distinct groups. Host-side it counts the groups.
func GroupApprox(m *device.Meter, cols []*bwd.Column, cands *Candidates) *Grouping {
	if !GroupKeyFits(cols) {
		panic(fmt.Sprintf("ar: GroupApprox over %d columns whose codes exceed the 64-bit grouping-table entry", len(cols)))
	}
	groups := countKeys(devP(), cols, cands)
	ChargeGroupApprox(m, cols, cands, groups)
	return &Grouping{Cols: cols, NGroups: groups, Cands: cands.Len()}
}

// ChargeGroupApprox bills GroupApprox's grouping of cands by cols into groups
// groups, a function of those cardinalities alone — so an exact leg, whose
// fold numbers the groups itself (internal/plan), bills the same. A key column the scan has
// not attached is projected first, and billed as that projection. The
// kernel is charged the massively parallel hash build's write-conflict
// serialization: with G groups and L device lanes, concurrent lanes collide
// on the same group entry at a rate proportional to L/G, which is why
// "performance improves with the number of groups due to fewer write
// conflicts on the grouping table" (§VI-B, Fig 8f).
func ChargeGroupApprox(m *device.Meter, cols []*bwd.Column, cands *Candidates, groups int) {
	if m == nil {
		return
	}
	n := cands.Len()
	for _, col := range cols {
		if !cands.attached(col) {
			chargeProject(m, col, n)
		}
	}
	// Serialized atomic updates: with L lanes spread over G group entries,
	// L/G lanes contend for the same entry on average, so each tuple's
	// write waits behind that many serialized updates.
	lanes := float64(m.System().GPU.Threads)
	depth := lanes / float64(max(groups, 1))
	if depth < 1 {
		depth = 1
	}
	var seq int64
	for _, col := range cols {
		seq += packedBytes(n, col.Dec.ApproxBits)
	}
	m.GPUKernel(seq+int64(n)*4, 0, int64(n)*bulk.OpsHashGroup+int64(float64(n)*depth))
}

// countKeys counts the distinct key tuples (blockKeys) among the candidates,
// on p's workers: a key of at most DirectBits bits marked in a bitmap per
// work-group, the bitmaps OR-ed and counted, a wider one entered into one
// hash table, a block of granules at a time. No candidate is given an id.
func countKeys(p par.P, cols []*bwd.Column, cands *Candidates) int {
	total, wg, words := GroupKeyBits(cols), cands.WorkGroups(), 0
	if total <= DirectBits {
		words = (1<<total + 63) / 64
	}
	const span = 2 * keySpan * bwd.GranuleRows // a block's keys, then a column's codes
	seen := mem.U64.GetN(wg * (words + span))  // the work-groups' bitmaps, then block buffers
	defer mem.U64.Put(seen)
	if words == 0 {
		var table bulk.KeyTable
		table.Reset(1)
		defer table.Release()
		cands.Blocks(0, wg, keySpan, func(g0, g1, pos, cnt int) {
			for _, key := range blockKeys(cands, cols, seen[:span], g0, g1, cnt) {
				table.Word(key)
			}
		})
		return table.Len()
	}
	clear(seen[:wg*words])
	p.Chunk, p.Ctx = 1, nil // a work-group at a time, to completion
	p.For(wg, func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			marks, buf := seen[ci*words:][:words], seen[wg*words+ci*span:][:span]
			cands.Blocks(ci, ci+1, keySpan, func(g0, g1, pos, cnt int) {
				for _, key := range blockKeys(cands, cols, buf, g0, g1, cnt) {
					marks[key/64] |= 1 << (key % 64)
				}
			})
		}
	})
	groups := 0
	for w := range words {
		var union uint64
		for ci := range wg {
			union |= seen[ci*words+w]
		}
		groups += bits.OnesCount64(union)
	}
	return groups
}

// keySpan is how many granules of key tuples the pre-grouping decodes at a time.
const keySpan = 16

// blockKeys decodes the key tuples of the cnt survivors of granules [g0,g1)
// into the front of buf, leading column highest, and returns them; buf holds
// 2·keySpan granules: the keys, then one column's codes.
func blockKeys(cands *Candidates, cols []*bwd.Column, buf []uint64, g0, g1, cnt int) []uint64 {
	const rows = keySpan * bwd.GranuleRows
	keys, codes := buf[:rows:rows], buf[rows:]
	cands.Decode(cols[0].Approx, nil, keys, g0, g1)
	for _, col := range cols[1:] {
		cands.Decode(col.Approx, nil, codes, g0, g1)
		for i, code := range codes[:cnt] {
			keys[i] = keys[i]<<col.Dec.ApproxBits | code
		}
	}
	return keys[:cnt]
}

// Ship charges the transfer of the per-candidate group IDs — one per
// candidate grouped, whether or not the host holds them as a list — and the
// group code table to the host.
func (g *Grouping) Ship(m *device.Meter) {
	if g.shipped {
		return
	}
	g.shipped = true
	if m != nil {
		m.Transfer(int64(g.Cands)*4 + int64(g.NGroups*len(g.Cols))*8)
	}
}

// ChargeGroupRefine bills the refinement of the pre-grouping g into the exact
// grouping of the n candidates the refinements left of the g.Cands it
// grouped, from those counts and the key columns alone: the translucent join
// of the refined subset into the pre-grouping (§IV-E, Fig 4's
// Grouping/Aggregation panel), a view that joins nothing when no candidate
// was refined away, and a pass over the surviving group ids. When a grouping
// column keeps residual bits, the pre-grouping is not exact: the CPU
// re-derives each tuple's exact keys — code and residual, a pass per column —
// and regroups them, billed as the bulk grouping: the paper's observation
// that MonetDB's positional grouping representation cannot profit from a
// physical pre-grouping.
func ChargeGroupRefine(p par.P, m *device.Meter, g *Grouping, n int) {
	if m == nil {
		return
	}
	exactPre := true
	for _, col := range g.Cols {
		exactPre = exactPre && col.Dec.ResBits == 0
	}
	chargeTranslucentJoin(m, p.NThreads(), g.Cands, n)
	if exactPre {
		m.CPUWork(p.NThreads(), int64(n)*8, 0, int64(n))
		return
	}
	for _, col := range g.Cols {
		m.CPUWork(p.NThreads(), int64(n)*8, int64(n)*residualBytes(col.Dec.ResBits), int64(n))
	}
	m.CPUWork(p.NThreads(), int64(n)*8*int64(len(g.Cols)), 0, int64(n)*bulk.OpsHashGroup)
}
