package ar

import (
	"fmt"

	"repro/internal/bitpack"
	"repro/internal/bulk"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/par"
)

// Grouping is the result of an approximate (pre-)grouping (§IV-E) over one
// or more columns (TPC-H Q1 groups by l_returnflag, l_linestatus): a dense
// group ID per candidate, positionally aligned with the candidate set —
// the MonetDB representation of groupings — plus each group's tuple of
// approximation codes, groups in first-appearance order.
type Grouping struct {
	Src     *Candidates
	Cols    []*bwd.Column
	IDs     []uint32 // group id per candidate position; arena-backed; nil once GroupRefine handed them on
	NGroups int
	// Codes[k][g] is the approximation code of column k for group g.
	Codes   [][]uint64
	shipped bool
}

// Release returns the group-id vector to the arena. The source candidate
// set is not owned by the grouping. Must only be called once nothing
// references the grouping.
func (g *Grouping) Release() {
	mem.U32.Put(g.IDs)
	g.IDs = nil
}

// groupTable maps packed code tuples to dense group ids: one flat
// open-addressing table, linear probing, at most half full. gids holds the
// group id plus one, so zero marks a free slot and any key is storable.
// direct, when set, is indexed by the key itself and holds the id the hash
// table assigned it, plus one: a key of few bits is one load, and the ids
// are the hash table's either way.
type groupTable struct {
	keys   []uint64
	gids   []uint32
	shift  uint     // 64 - log2(len(keys))
	uniq   []uint64 // the key of every group, in first-appearance order
	direct []uint32
}

// directBits is the widest code tuple GroupApprox looks up through a direct
// table of 2^bits entries: 16 kB at the limit, cache resident, taken from the
// arena and cleared once per work-group (groupByWorkGroup), or once per
// grouping of an id list — for Q1's 3-bit key it is 8 entries, where the hash
// table would hash and probe every candidate's key. A wider key keeps the
// hash table alone, and one loop over the candidates.
const directBits = 12

func newGroupTable() *groupTable {
	const slots = 64
	return &groupTable{keys: make([]uint64, slots), gids: make([]uint32, slots), shift: 64 - 6}
}

// home is where key's probe sequence starts: a multiply-shift hash.
func (t *groupTable) home(key uint64) uint64 { return key * 0x9E3779B97F4A7C15 >> t.shift }

// id returns key's group id, assigning the next one on first sight.
func (t *groupTable) id(key uint64) uint32 {
	if key < uint64(len(t.direct)) {
		if g := t.direct[key]; g != 0 {
			return g - 1
		}
	}
	return t.hash(key)
}

// hash is id through the hash table; a key it assigns an id is entered into
// the direct table too, when there is one.
func (t *groupTable) hash(key uint64) uint32 {
	mask := uint64(len(t.keys) - 1)
	for at := t.home(key); ; at = (at + 1) & mask {
		switch g := t.gids[at]; {
		case g == 0:
			if 2*(len(t.uniq)+1) > len(t.keys) {
				t.grow()
				return t.hash(key)
			}
			t.keys[at] = key
			t.uniq = append(t.uniq, key)
			t.gids[at] = uint32(len(t.uniq))
			if t.direct != nil {
				t.direct[key] = uint32(len(t.uniq))
			}
			return uint32(len(t.uniq) - 1)
		case t.keys[at] == key:
			return g - 1
		}
	}
}

// grow doubles the table and re-inserts every group under its id.
func (t *groupTable) grow() {
	n := 2 * len(t.keys)
	t.keys, t.gids, t.shift = make([]uint64, n), make([]uint32, n), t.shift-1
	mask := uint64(n - 1)
	for g, key := range t.uniq {
		at := t.home(key)
		for t.gids[at] != 0 {
			at = (at + 1) & mask
		}
		t.keys[at], t.gids[at] = key, uint32(g+1)
	}
}

// GroupKeyFits reports whether the columns' approximation codes pack into
// one entry of the device grouping table, which is a 64-bit word. A wider
// key cannot be pre-grouped on the device; the caller groups on the host.
func GroupKeyFits(cols []*bwd.Column) bool {
	var total uint
	for _, col := range cols {
		total += col.Dec.ApproxBits
	}
	return total <= 64
}

// GroupApprox hash-groups the candidates by the tuple of approximation
// codes of cols on the device. The cost model charges the massively
// parallel hash build's write-conflict serialization: with G groups and L
// device lanes, concurrent lanes collide on the same group entry at a rate
// proportional to L/G, which is why "performance improves with the number
// of groups due to fewer write conflicts on the grouping table" (§VI-B,
// Fig 8f).
//
// If every column is fully device resident, the approximate grouping is
// already the exact grouping of the candidate set (§IV-E: low-cardinality
// grouping columns compress enough to stay resident, eliminating
// subgrouping). It panics when the key does not fit (GroupKeyFits): a
// truncated key would merge distinct groups.
//
// Host-side, a set read by its mask is grouped like the scan runs, a
// work-group at a time on every core (groupByWorkGroup), when its key takes
// the direct table; a wider key or an id list is grouped by one loop over
// the candidates in order. The ids are the same either way.
func GroupApprox(m *device.Meter, cols []*bwd.Column, cands *Candidates) *Grouping {
	if !GroupKeyFits(cols) {
		panic(fmt.Sprintf("ar: GroupApprox over %d columns whose codes exceed the 64-bit grouping-table entry", len(cols)))
	}
	n := cands.Len()
	// A key column the scan has not attached is projected first, and billed
	// as that projection.
	for _, col := range cols {
		if !cands.attached(col) {
			chargeProject(m, col, n)
		}
	}
	// Pack each code tuple into one table entry, leading column highest.
	table := newGroupTable()
	ids := mem.U32.GetN(n)
	shift := make([]uint, len(cols))
	var total uint
	for k := len(cols) - 1; k >= 0; k-- {
		shift[k] = total
		total += cols[k].Dec.ApproxBits
	}
	switch wg := cands.WorkGroups(); {
	case wg > 0 && total <= directBits:
		groupByWorkGroup(table, cols, shift, total, cands, ids, wg)
	case wg > 0:
		// By mask, a wider key: the work-groups in candidate order, a block
		// of granules at a time, through the hash table.
		order := par.PermuteInto(mem.Ints.GetN(wg))
		buf := mem.U64.GetN(2 * keySpan * bwd.GranuleRows) // the keys, then a column's codes
		for _, ci := range order {
			cands.Blocks(ci, ci+1, keySpan, func(g0, g1, pos, cnt int) {
				for i, key := range blockKeys(cands, cols, shift, buf, g0, g1, cnt) {
					ids[pos+i] = table.id(key)
				}
			})
		}
		mem.Ints.Put(order)
		mem.U64.Put(buf)
	default:
		// By position: the codes the scan attached, or one lookup per id.
		if total <= directBits {
			table.direct = mem.U32.GetN(1 << total)
			clear(table.direct)
		}
		colCodes := make([][]uint64, len(cols))
		var gathered [][]uint64
		for k, col := range cols {
			if colCodes[k] = cands.CodesFor(col); colCodes[k] == nil {
				colCodes[k] = mem.U64.GetN(n)
				bitpack.Gather(col.Approx, cands.ids, colCodes[k])
				gathered = append(gathered, colCodes[k])
			}
		}
		for i := 0; i < n; i++ {
			var key uint64
			for k := range cols {
				key |= colCodes[k][i] << shift[k]
			}
			ids[i] = table.id(key)
		}
		for _, codes := range gathered {
			mem.U64.Put(codes)
		}
	}
	mem.U32.Put(table.direct)
	uniq := table.uniq
	codes := make([][]uint64, len(cols))
	for k, col := range cols {
		codes[k] = make([]uint64, len(uniq))
		mask := uint64(1)<<col.Dec.ApproxBits - 1
		for g, key := range uniq {
			codes[k][g] = key >> shift[k] & mask
		}
	}
	if m != nil {
		// Serialized atomic updates: with L lanes spread over G group
		// entries, L/G lanes contend for the same entry on average, so
		// each tuple's write waits behind that many serialized updates.
		lanes := float64(m.System().GPU.Threads)
		groups := float64(len(uniq))
		if groups < 1 {
			groups = 1
		}
		depth := lanes / groups
		if depth < 1 {
			depth = 1
		}
		var seq int64
		for _, col := range cols {
			seq += packedBytes(n, col.Dec.ApproxBits)
		}
		m.GPUKernel(seq+int64(n)*4, 0, int64(n)*bulk.OpsHashGroup+int64(float64(n)*depth))
	}
	return &Grouping{Src: cands, Cols: cols, IDs: ids, NGroups: len(uniq), Codes: codes}
}

// keySpan is how many granules of key tuples GroupApprox decodes at a time.
const keySpan = 16

// blockKeys decodes the key tuples of the cnt survivors of granules [g0,g1)
// into the front of buf, leading column highest, and returns them; buf holds
// 2·keySpan granules: the keys, then one column's codes.
func blockKeys(cands *Candidates, cols []*bwd.Column, shift []uint, buf []uint64, g0, g1, cnt int) []uint64 {
	const rows = keySpan * bwd.GranuleRows
	keys, codes := buf[:rows:rows], buf[rows:]
	cands.Decode(cols[0].Approx, keys, g0, g1)
	if shift[0] != 0 {
		for i := range keys[:cnt] {
			keys[i] <<= shift[0]
		}
	}
	for k := 1; k < len(cols); k++ {
		cands.Decode(cols[k].Approx, codes, g0, g1)
		for i, code := range codes[:cnt] {
			keys[i] |= code << shift[k]
		}
	}
	return keys[:cnt]
}

// groupByWorkGroup is GroupApprox by mask, for a key of at most directBits
// bits, on the device's host execution (devP), as the scan runs: every
// work-group numbers its keys in its own first-appearance order, through a
// direct table of its own, into its own slot of ids. The work-groups' key
// lists are then entered into table in candidate order — the order a serial
// loop over the candidates walks — so the global ids come out exactly as
// that loop would assign them, and a work-group whose local ids are not the
// global ones is renumbered, in parallel. One worker runs the same steps
// serially; one work-group's local ids are the global ones. Every
// work-group's state is carved from three arena buffers, whatever the
// work-groups or the cores.
func groupByWorkGroup(table *groupTable, cols []*bwd.Column, shift []uint, bits uint, cands *Candidates, ids []uint32, wg int) {
	size := 1 << bits
	// Work-group ci's direct table at [2ci·size, …), then its keys in its
	// first-appearance order, which the merge overwrites with their global
	// ids. A key fits 32 bits.
	local := mem.U32.GetN(2 * wg * size)
	const span = 2 * keySpan * bwd.GranuleRows // the keys, then a column's codes
	bufs := mem.U64.GetN(wg * span)
	// The work-groups in candidate order, then each one's key and candidate
	// counts; a work-group that needs no renumbering has its candidate count
	// zeroed by the merge.
	meta := mem.Ints.GetN(3 * wg)
	order, nkeys, nrows := par.PermuteInto(meta[:wg]), meta[wg:2*wg], meta[2*wg:]
	p := devP()
	p.Chunk = 1 // a work-group at a time
	p.For(wg, func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			direct, keys := local[2*ci*size:][:size], local[(2*ci+1)*size:][:size]
			buf := bufs[ci*span:][:span]
			clear(direct)
			k, rows := 0, 0
			cands.Blocks(ci, ci+1, keySpan, func(g0, g1, pos, cnt int) {
				for i, key := range blockKeys(cands, cols, shift, buf, g0, g1, cnt) {
					l := direct[key]
					if l == 0 {
						keys[k] = uint32(key)
						k++
						l = uint32(k)
						direct[key] = l
					}
					ids[pos+i] = l - 1
				}
				rows += cnt
			})
			nkeys[ci], nrows[ci] = k, rows
		}
	})
	mem.U64.Put(bufs)
	renumber := false
	for _, ci := range order {
		keys := local[(2*ci+1)*size:][:nkeys[ci]]
		same := true
		for l, key := range keys {
			g := table.id(uint64(key))
			keys[l] = g
			same = same && g == uint32(l)
		}
		if same {
			nrows[ci] = 0
		}
		renumber = renumber || !same
	}
	if renumber {
		p.For(wg, func(lo, hi int) {
			for ci := lo; ci < hi; ci++ {
				global, at := local[(2*ci+1)*size:][:size], cands.offs[ci]
				slot := ids[at : at+nrows[ci]]
				for i, l := range slot {
					slot[i] = global[l]
				}
			}
		})
	}
	mem.Ints.Put(meta)
	mem.U32.Put(local)
}

// Ship charges the transfer of the per-candidate group IDs and the group
// code table to the host.
func (g *Grouping) Ship(m *device.Meter) {
	if g.shipped {
		return
	}
	g.shipped = true
	if m != nil {
		m.Transfer(int64(len(g.IDs))*4 + int64(g.NGroups*len(g.Cols))*8)
	}
}

// GroupRefine produces the exact grouping of the refined candidate subset
// plus the per-group key values of every grouping column.
//
// When every grouping column is fully device resident, the pre-grouping is
// already exact: the refinement only eliminates the false positives
// introduced by earlier operators, via a translucent join of the refined
// IDs into the pre-grouping (§IV-E, Fig 4's Grouping/Aggregation panel),
// and densifies the surviving group IDs with the block-partial
// first-appearance remap (identical order to a serial pass). Otherwise the
// CPU re-derives each tuple's exact keys from the shipped codes and the
// host residuals, per morsel, and regroups with bulk.GroupBy (charged
// here, not by the grouping kernel) — the paper's observation that
// MonetDB's positional grouping representation cannot profit from a
// physical pre-grouping.
func GroupRefine(p par.P, m *device.Meter, g *Grouping, refined *Candidates) (*bulk.Grouping, [][]int64, error) {
	exactPre := true
	for _, col := range g.Cols {
		if col.Dec.ResBits != 0 {
			exactPre = false
			break
		}
	}
	if exactPre && refined.Len() == g.Src.Len() {
		// Nothing was refined away either: the pre-grouping — dense ids in
		// first-appearance order — is the grouping. Its ids pass to the
		// caller as they are; no id list is joined to itself (a view, like
		// the equal-length translucent join, which charges nothing).
		ids := g.IDs
		g.IDs = nil
		if m != nil {
			m.CPUWork(p.NThreads(), int64(len(ids))*8, 0, int64(len(ids)))
		}
		return &bulk.Grouping{IDs: ids, NGroups: g.NGroups}, g.keys(nil), nil
	}
	refinedIDs := refined.IDs()
	pos, err := TranslucentJoinMetered(m, p.NThreads(), g.Src.IDs(), refinedIDs)
	if err != nil {
		return nil, nil, err
	}
	if exactPre {
		// Pass the pre-grouping through, dropping groups that lost all
		// their tuples to false-positive elimination.
		old := mem.U32.GetN(len(pos))
		p.For(len(pos), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				old[i] = g.IDs[pos[i]]
			}
		})
		ids, used := remapFirstAppearance(p, old, g.NGroups)
		mem.U32.Put(old)
		if m != nil {
			m.CPUWork(p.NThreads(), int64(len(pos))*8, 0, int64(len(pos)))
		}
		mem.Ints.Put(pos)
		return &bulk.Grouping{IDs: ids, NGroups: len(used)}, g.keys(used), nil
	}

	// Reconstruct exact key tuples and regroup on the CPU.
	n := len(pos)
	exact := make([][]int64, len(g.Cols))
	for k, col := range g.Cols {
		exact[k] = make([]int64, n)
		ek := exact[k]
		p.For(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				code := g.Codes[k][g.IDs[pos[i]]]
				var r uint64
				if col.Dec.ResBits > 0 {
					r = col.Residual.Get(int(refinedIDs[i]))
				}
				ek[i] = col.ReconstructFrom(code, r)
			}
		})
		if m != nil {
			m.CPUWork(p.NThreads(), int64(n)*8, int64(n)*residualBytes(col.Dec.ResBits), int64(n))
		}
	}
	grouping, keys := bulk.GroupBy(p, nil, exact)
	if m != nil {
		m.CPUWork(p.NThreads(), int64(n)*8*int64(len(g.Cols)), 0, int64(n)*bulk.OpsHashGroup)
	}
	mem.Ints.Put(pos)
	return grouping, keys, nil
}

// keys returns the exact key values of the pre-groups listed in used — of
// every pre-group, in order, when used is nil — per grouping column, all of
// which are fully device resident: a group's code is its key's offset.
func (g *Grouping) keys(used []uint32) [][]int64 {
	n := len(used)
	if used == nil {
		n = g.NGroups
	}
	keys := make([][]int64, len(g.Cols))
	for k, col := range g.Cols {
		keys[k] = make([]int64, n)
		for id := range keys[k] {
			old := id
			if used != nil {
				old = int(used[id])
			}
			keys[k][id] = col.Dec.Base + int64(g.Codes[k][old])
		}
	}
	return keys
}

// remapFirstAppearance densifies a stream of old group IDs (dense in
// [0,nOld)) into new IDs assigned in order of first appearance, exactly as
// a serial left-to-right scan would. Each worker records the appearance
// order within its contiguous block; merging the block lists left to right
// yields the global order, so the result is identical for every worker
// count. order maps new ID -> old ID; ids is arena-backed.
func remapFirstAppearance(p par.P, old []uint32, nOld int) (ids []uint32, order []uint32) {
	ids = mem.U32.GetN(len(old))
	if p.NWorkers() <= 1 || len(old) < 1024 {
		remap := make([]int32, nOld)
		for i := range remap {
			remap[i] = -1
		}
		for i, o := range old {
			if remap[o] < 0 {
				remap[o] = int32(len(order))
				order = append(order, o)
			}
			ids[i] = uint32(remap[o])
		}
		return ids, order
	}
	blocks := p.Blocks(len(old))
	type partial struct {
		seen   []int32 // old id -> local id, -1 when unseen
		firsts []uint32
	}
	parts := make([]partial, len(blocks))
	par.RunBlocks(p, len(old), func(b, lo, hi int) {
		pt := &parts[b]
		if pt.seen == nil {
			pt.seen = make([]int32, nOld)
			for i := range pt.seen {
				pt.seen[i] = -1
			}
		}
		for i := lo; i < hi; i++ {
			o := old[i]
			if pt.seen[o] < 0 {
				pt.seen[o] = int32(len(pt.firsts))
				pt.firsts = append(pt.firsts, o)
			}
			ids[i] = uint32(pt.seen[o])
		}
	})
	global := make([]int32, nOld)
	for i := range global {
		global[i] = -1
	}
	remap := make([][]uint32, len(blocks))
	for b := range parts {
		remap[b] = make([]uint32, len(parts[b].firsts))
		for localID, o := range parts[b].firsts {
			if global[o] < 0 {
				global[o] = int32(len(order))
				order = append(order, o)
			}
			remap[b][localID] = uint32(global[o])
		}
	}
	size := blocks[0].Hi - blocks[0].Lo
	p.For(len(old), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			b := i / size
			if b >= len(blocks) {
				b = len(blocks) - 1
			}
			ids[i] = remap[b][ids[i]]
		}
	})
	return ids, order
}
