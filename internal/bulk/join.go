package bulk

import (
	"repro/internal/bat"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/par"
)

// HashJoin performs a generic equi-join of two value columns and returns
// the matching position pairs (left[i] joins right[i]). Build side is the
// smaller input, probe side the larger, as usual.
//
// The paper notes (§IV-D) that generic hash joins are hard to approximate
// on massively parallel hardware and resorts to pre-built foreign-key
// indices; HashJoin is the CPU reference implementation used by the
// baseline engine and by tests as ground truth for the translucent join.
func HashJoin(m *device.Meter, threads int, left, right []int64) (lids, rids []bat.OID) {
	build, probe := left, right
	swapped := false
	if len(right) < len(left) {
		build, probe = right, left
		swapped = true
	}
	idx := make(map[int64][]bat.OID, len(build))
	for i, v := range build {
		idx[v] = append(idx[v], bat.OID(i))
	}
	var bids, pids []bat.OID
	for i, v := range probe {
		if matches, ok := idx[v]; ok {
			for _, b := range matches {
				bids = append(bids, b)
				pids = append(pids, bat.OID(i))
			}
		}
	}
	if m != nil {
		m.CPUWork(threads,
			int64(len(build)+len(probe))*8+int64(len(bids))*2*oidBytes, 0,
			int64(len(build))*OpsHashBuild+int64(len(probe))*OpsHashProbe)
	}
	if swapped {
		return pids, bids
	}
	return bids, pids
}

// FKIndex is a pre-built foreign-key index: for every foreign-key value it
// records the (single) position of the matching primary key. The paper
// pre-builds these on the CPU and treats FK joins as projective joins
// sharing the projection code path (§IV-D).
type FKIndex struct {
	pos     []bat.OID // pos[fk - base] = position in the PK column
	base    int64
	present []bool
}

// BuildFKIndex builds an index over a unique (primary-key) column.
// Returns nil if the keys are not unique or the domain is degenerate.
func BuildFKIndex(m *device.Meter, threads int, pk []int64) *FKIndex {
	if len(pk) == 0 {
		return nil
	}
	lo, hi := pk[0], pk[0]
	for _, v := range pk[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := hi - lo + 1
	if span <= 0 || span > int64(4*len(pk))+1024 {
		return nil // too sparse for a positional index
	}
	idx := &FKIndex{pos: make([]bat.OID, span), base: lo, present: make([]bool, span)}
	for i, v := range pk {
		slot := v - lo
		if idx.present[slot] {
			return nil // duplicate key: not a PK
		}
		idx.present[slot] = true
		idx.pos[slot] = bat.OID(i)
	}
	if m != nil {
		m.CPUWork(threads, int64(len(pk))*8, int64(len(pk))*oidBytes,
			int64(len(pk))*OpsHashBuild)
	}
	return idx
}

// Lookup returns the PK-side position for a foreign-key value.
func (ix *FKIndex) Lookup(fk int64) (bat.OID, bool) {
	slot := fk - ix.base
	if slot < 0 || slot >= int64(len(ix.pos)) || !ix.present[slot] {
		return 0, false
	}
	return ix.pos[slot], true
}

// Span returns the key domain the index covers: its smallest key and the
// number of slots from there. Over a strictly dense key — the only kind the
// store registers an index for — slot i is position i, so these are the base
// and the length of the join's arithmetic (bwd.Key).
func (ix *FKIndex) Span() (base int64, n int) { return ix.base, len(ix.pos) }

// FKJoin maps every foreign-key value to its PK-side position using the
// index; with a pre-built index the join is equivalent to a projective
// join (§IV-D). Dangling foreign keys are dropped; hit[i] reports whether
// fk position i found a partner. Probes are independent and each worker
// writes a disjoint slice of pkPos/hit.
func FKJoin(p par.P, m *device.Meter, ix *FKIndex, fks []int64) (pkPos []bat.OID, hit []bool) {
	pkPos = oidPool.GetN(len(fks))
	hit = mem.Bools.GetN(len(fks))
	clear(hit)
	probe := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if pos, ok := ix.Lookup(fks[i]); ok {
				pkPos[i] = pos
				hit[i] = true
			} else {
				pkPos[i] = 0
			}
		}
	}
	if serial(p, len(fks)) {
		probe(0, len(fks))
	} else {
		p.For(len(fks), probe)
	}
	ChargeFKJoin(p, m, len(fks))
	return pkPos, hit
}

// ChargeFKJoin bills an FKJoin of n key values: the values streamed, a
// position written for each, one index probe per value. The executor's
// classic join (internal/plan), which narrows a mask through the key, charges
// through it too.
func ChargeFKJoin(p par.P, m *device.Meter, n int) {
	if m != nil {
		m.CPUWork(p.NThreads(), int64(n)*8+int64(n)*oidBytes, 0, int64(n)*OpsHashProbe)
	}
}
