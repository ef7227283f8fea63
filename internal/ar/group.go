package ar

import (
	"fmt"

	"repro/internal/bulk"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/par"
)

// Grouping is the result of an approximate (pre-)grouping (§IV-E) over one
// or more columns (TPC-H Q1 groups by l_returnflag, l_linestatus): a dense
// group ID per candidate, positionally aligned with the candidate set as it
// was grouped — the MonetDB representation of groupings — plus each group's
// tuple of approximation codes, groups in first-appearance order. Src is
// that set; a refinement narrows it in place, and GroupRefine reads it. A
// grouping its caller numbered while it accumulated per key (GroupKeyed) has
// the groups and no ids.
type Grouping struct {
	Src     *Candidates
	Cols    []*bwd.Column
	IDs     []uint32 // group id per candidate position; arena-backed; nil from GroupKeyed and once GroupRefine handed them on
	NGroups int
	// Codes[k][g] is the approximation code of column k for group g.
	Codes [][]uint64
	// cands is how many candidates were grouped: Src's length at grouping
	// time, which the refinements may have narrowed since.
	cands   int
	shipped bool
}

// Release returns the group-id vector to the arena. The source candidate
// set is not owned by the grouping. Must only be called once nothing
// references the grouping; a nil grouping releases nothing.
func (g *Grouping) Release() {
	if g != nil {
		mem.U32.Put(g.IDs)
		g.IDs = nil
	}
}

// groupTable maps packed code tuples to dense group ids: one flat
// open-addressing table, linear probing, at most half full. gids holds the
// group id plus one, so zero marks a free slot and any key is storable.
type groupTable struct {
	keys  []uint64
	gids  []uint32
	shift uint     // 64 - log2(len(keys))
	uniq  []uint64 // the key of every group, in first-appearance order
}

// DirectBits is the widest code tuple GroupApprox looks up through a direct
// table of 2^bits entries: 16 kB at the limit, cache resident, taken from the
// arena and cleared once per work-group (groupByWorkGroup) — for Q1's 3-bit
// key it is 8 entries, where the hash table would hash and probe every
// candidate's key. A wider key keeps the hash table alone. It is also the
// widest key an exact leg's fold accumulates per key itself (GroupKeyed).
const DirectBits = 12

func newGroupTable() *groupTable {
	const slots = 64
	return &groupTable{keys: make([]uint64, slots), gids: make([]uint32, slots), shift: 64 - 6}
}

// home is where key's probe sequence starts: a multiply-shift hash.
func (t *groupTable) home(key uint64) uint64 { return key * 0x9E3779B97F4A7C15 >> t.shift }

// id returns key's group id, assigning the next one on first sight.
func (t *groupTable) id(key uint64) uint32 {
	mask := uint64(len(t.keys) - 1)
	for at := t.home(key); ; at = (at + 1) & mask {
		switch g := t.gids[at]; {
		case g == 0:
			if 2*(len(t.uniq)+1) > len(t.keys) {
				t.grow()
				return t.id(key)
			}
			t.keys[at] = key
			t.uniq = append(t.uniq, key)
			t.gids[at] = uint32(len(t.uniq))
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
func GroupKeyFits(cols []*bwd.Column) bool { return GroupKeyBits(cols) <= 64 }

// GroupKeyBits is the width of the columns' key tuple: the grouping packs a
// candidate's codes into one word, the leading column highest (keyShifts).
func GroupKeyBits(cols []*bwd.Column) uint {
	var bits uint
	for _, col := range cols {
		bits += col.Dec.ApproxBits
	}
	return bits
}

// keyShifts is where each column's code sits in the packed key tuple: column
// k's code shifted left by shift[k], the leading column highest.
func keyShifts(cols []*bwd.Column) []uint {
	shift := make([]uint, len(cols))
	var at uint
	for k := len(cols) - 1; k >= 0; k-- {
		shift[k] = at
		at += cols[k].Dec.ApproxBits
	}
	return shift
}

// GroupApprox hash-groups the candidates by the tuple of approximation
// codes of cols on the device, billed by ChargeGroupApprox.
//
// If every column is fully device resident, the approximate grouping is
// already the exact grouping of the candidate set (§IV-E: low-cardinality
// grouping columns compress enough to stay resident, eliminating
// subgrouping). It panics when the key does not fit (GroupKeyFits): a
// truncated key would merge distinct groups. Host-side it is groupByMask.
func GroupApprox(m *device.Meter, cols []*bwd.Column, cands *Candidates) *Grouping {
	if !GroupKeyFits(cols) {
		panic(fmt.Sprintf("ar: GroupApprox over %d columns whose codes exceed the 64-bit grouping-table entry", len(cols)))
	}
	ids, groups, codes := groupByMask(devP(), cols, cands)
	ChargeGroupApprox(m, cols, cands, groups)
	return &Grouping{Src: cands, Cols: cols, IDs: ids, NGroups: groups, Codes: codes, cands: cands.Len()}
}

// ChargeGroupApprox bills GroupApprox's grouping of cands by cols into groups
// groups, a function of those cardinalities alone — so a caller that numbers
// the groups itself (GroupKeyed) bills the same. A key column the scan has
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

// GroupKeyed is GroupApprox's grouping of cands for a caller that reads the
// key itself and accumulates per key as it walks the candidates — an exact
// leg's phase-A fold (internal/plan) — for a key of at most DirectBits bits,
// packed as GroupApprox packs it (keyShifts). list(ci) is work-group ci's
// keys in the order they first appear in it. Entered in the set's candidate
// order (numberInOrder), they number the groups exactly as GroupApprox does
// — NGroups and Codes byte for byte — and gid, 2^bits long, receives each
// listed key's group id. The grouping has no ids; the caller bills it
// (ChargeGroupApprox).
func GroupKeyed(cols []*bwd.Column, cands *Candidates, list func(ci int) []uint32, gid []uint32) *Grouping {
	uniq := cands.numberInOrder(list, gid)
	return &Grouping{Src: cands, Cols: cols, NGroups: len(uniq), Codes: groupCodes(cols, uniq), cands: cands.Len()}
}

// numberInOrder numbers a key of at most DirectBits bits listed a work-group
// at a time — list(ci) holds work-group ci's keys in the order they first
// appear in it: the lists are entered in the set's candidate order (order),
// each key taking the next id where it first appears, which is the id a
// serial pass over the candidates gives it. gid[key] receives each listed
// key's id; the keys come back in id order. It is the one numbering of
// GroupApprox's direct path (groupByWorkGroup) and of GroupKeyed.
func (c *Candidates) numberInOrder(list func(ci int) []uint32, gid []uint32) (uniq []uint64) {
	const unseen = ^uint32(0)
	for i := range gid {
		gid[i] = unseen
	}
	for _, ci := range c.order() {
		for _, key := range list(ci) {
			if gid[key] == unseen {
				gid[key] = uint32(len(uniq))
				uniq = append(uniq, uint64(key))
			}
		}
	}
	return uniq
}

// groupByMask is GroupApprox's host half, on the device's P, which
// GroupRefine also regroups a refined set with, on the statement's: the
// candidates' key tuples (keyShifts) numbered in order of first
// appearance in candidate order, the ids arena-backed, and each group's code
// per column. A key of at most DirectBits bits is numbered a work-group at a
// time on p's workers (groupByWorkGroup); a wider one through the hash table,
// the work-groups in candidate order, a block of granules at a time. The ids
// are the same either way.
func groupByMask(p par.P, cols []*bwd.Column, cands *Candidates) (ids []uint32, groups int, codes [][]uint64) {
	ids = mem.U32.GetN(cands.Len())
	shift, total := keyShifts(cols), GroupKeyBits(cols)
	var uniq []uint64
	if wg := cands.WorkGroups(); total <= DirectBits {
		uniq = groupByWorkGroup(p, cols, shift, total, cands, ids, wg)
	} else {
		table := newGroupTable()
		buf := mem.U64.GetN(2 * keySpan * bwd.GranuleRows) // the keys, then a column's codes
		for _, ci := range cands.order() {
			cands.Blocks(ci, ci+1, keySpan, func(g0, g1, pos, cnt int) {
				for i, key := range blockKeys(cands, cols, shift, buf, g0, g1, cnt) {
					ids[pos+i] = table.id(key)
				}
			})
		}
		mem.U64.Put(buf)
		uniq = table.uniq
	}
	return ids, len(uniq), groupCodes(cols, uniq)
}

// groupCodes splits the key of every group — uniq, in id order — into its
// code per column.
func groupCodes(cols []*bwd.Column, uniq []uint64) [][]uint64 {
	shift := keyShifts(cols)
	codes := make([][]uint64, len(cols))
	for k, col := range cols {
		codes[k] = make([]uint64, len(uniq))
		mask := uint64(1)<<col.Dec.ApproxBits - 1
		for g, key := range uniq {
			codes[k][g] = key >> shift[k] & mask
		}
	}
	return codes
}

// keySpan is how many granules of key tuples GroupApprox decodes at a time.
const keySpan = 16

// blockKeys decodes the key tuples of the cnt survivors of granules [g0,g1)
// into the front of buf, leading column highest, and returns them; buf holds
// 2·keySpan granules: the keys, then one column's codes.
func blockKeys(cands *Candidates, cols []*bwd.Column, shift []uint, buf []uint64, g0, g1, cnt int) []uint64 {
	const rows = keySpan * bwd.GranuleRows
	keys, codes := buf[:rows:rows], buf[rows:]
	cands.Decode(cols[0].Approx, nil, keys, g0, g1)
	if shift[0] != 0 {
		for i := range keys[:cnt] {
			keys[i] <<= shift[0]
		}
	}
	for k := 1; k < len(cols); k++ {
		cands.Decode(cols[k].Approx, nil, codes, g0, g1)
		for i, code := range codes[:cnt] {
			keys[i] |= code << shift[k]
		}
	}
	return keys[:cnt]
}

// groupByWorkGroup is groupByMask for a key of at most DirectBits bits, on
// p's workers — for GroupApprox the device's host execution (devP), as the
// scan runs — and to completion whatever p's context says: the numbering
// reads every work-group's keys, and a cancelled statement is discarded at
// its next checkpoint. Every work-group numbers its keys in its own
// first-appearance order, through a direct table of its own, into its own
// slot of ids. The work-groups' key lists are then numbered in candidate
// order (numberInOrder) — the order a serial loop over the candidates walks
// — so the global ids come out exactly as that loop would assign them, and a
// work-group whose local ids are not the global ones is renumbered, in
// parallel. One worker runs the same steps serially; one work-group's local
// ids are the global ones. Every work-group's state is carved from three
// arena buffers, whatever the work-groups or the cores. It returns the keys
// in id order.
func groupByWorkGroup(p par.P, cols []*bwd.Column, shift []uint, bits uint, cands *Candidates, ids []uint32, wg int) (uniq []uint64) {
	size := 1 << bits
	// Work-group ci's direct table at [2ci·size, …), then its keys in its
	// first-appearance order, which are overwritten with their global ids;
	// behind them all, the numbering's table of global ids. A key fits 32
	// bits.
	local := mem.U32.GetN((2*wg + 1) * size)
	const span = 2 * keySpan * bwd.GranuleRows // the keys, then a column's codes
	bufs := mem.U64.GetN(wg * span)
	// Each work-group's key and candidate counts; a work-group that needs no
	// renumbering has its candidate count zeroed.
	meta := mem.Ints.GetN(2 * wg)
	nkeys, nrows := meta[:wg], meta[wg:]
	p.Chunk, p.Ctx = 1, nil // a work-group at a time
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
	gid := local[2*wg*size:][:size]
	uniq = cands.numberInOrder(func(ci int) []uint32 { return local[(2*ci+1)*size:][:nkeys[ci]] }, gid)
	renumber := false
	for ci := range wg {
		keys, same := local[(2*ci+1)*size:][:nkeys[ci]], true
		for l, key := range keys {
			keys[l] = gid[key]
			same = same && keys[l] == uint32(l)
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
	return uniq
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
		m.Transfer(int64(g.cands)*4 + int64(g.NGroups*len(g.Cols))*8)
	}
}

// GroupRefine produces the exact grouping of the refined candidate set — the
// set g pre-grouped, narrowed in place by the refinements since — plus the
// per-group key values of every grouping column.
//
// When every grouping column is fully device resident, the pre-grouping is
// already exact: the refinement only eliminates the false positives
// introduced by earlier operators. If none were — the set still holds the
// candidates g grouped — the pre-grouping is the grouping and passes on as
// it is: its ids, or none from GroupKeyed, whose caller folded per group
// already (an exact leg). Otherwise the refined set is
// regrouped by GroupApprox's host half (groupByMask): first-appearance ids
// over the refined candidates, which are the pre-groups that kept a tuple,
// renumbered in the order a serial pass meets them. It is billed as the
// paper's operator: the translucent join of the refined subset into the
// pre-grouping (§IV-E, Fig 4's Grouping/Aggregation panel) and a pass over
// the surviving group ids. When a grouping column has residual bits, the CPU
// re-derives each tuple's exact keys — code and residual, by the refined
// mask — and regroups with bulk.GroupBy (charged here, not by the grouping
// kernel): the paper's observation that MonetDB's positional grouping
// representation cannot profit from a physical pre-grouping.
func GroupRefine(p par.P, m *device.Meter, g *Grouping) (*bulk.Grouping, [][]int64, error) {
	src, pre := g.Src, g.cands
	n := src.Len()
	exactPre := true
	for _, col := range g.Cols {
		exactPre = exactPre && col.Dec.ResBits == 0
	}
	if exactPre {
		grouping, codes := &bulk.Grouping{IDs: g.IDs, NGroups: g.NGroups}, g.Codes
		if n == pre {
			// Nothing was refined away either: the grouping passes on, no id
			// list is joined to itself (a view, like the equal-length
			// translucent join, which charges nothing).
			g.IDs = nil
		} else {
			chargeTranslucentJoin(m, p.NThreads(), pre, n)
			grouping.IDs, grouping.NGroups, codes = groupByMask(p, g.Cols, src)
		}
		if m != nil {
			m.CPUWork(p.NThreads(), int64(n)*8, 0, int64(n))
		}
		return grouping, g.keys(codes), nil
	}
	chargeTranslucentJoin(m, p.NThreads(), pre, n)

	// Reconstruct exact key tuples and regroup on the CPU.
	exact := make([][]int64, len(g.Cols))
	wg := src.WorkGroups()
	for k, col := range g.Cols {
		exact[k] = mem.I64.GetN(n)
		if err := forGroups(p, wg, func(ci int) { src.rebuildGroup(col, nil, exact[k], ci) }); err != nil {
			for _, vals := range exact[:k+1] {
				mem.I64.Put(vals)
			}
			return nil, nil, err
		}
		if m != nil {
			m.CPUWork(p.NThreads(), int64(n)*8, int64(n)*residualBytes(col.Dec.ResBits), int64(n))
		}
	}
	grouping, keys := bulk.GroupBy(p, nil, exact)
	if m != nil {
		m.CPUWork(p.NThreads(), int64(n)*8*int64(len(g.Cols)), 0, int64(n)*bulk.OpsHashGroup)
	}
	for _, vals := range exact {
		mem.I64.Put(vals)
	}
	return grouping, keys, nil
}

// keys returns the exact key values of the groups whose codes per grouping
// column are codes — every column fully device resident, so a group's code
// is its key's offset.
func (g *Grouping) keys(codes [][]uint64) [][]int64 {
	keys := make([][]int64, len(g.Cols))
	for k, col := range g.Cols {
		keys[k] = make([]int64, len(codes[k]))
		for id, code := range codes[k] {
			keys[k][id] = col.Dec.Base + int64(code)
		}
	}
	return keys
}
