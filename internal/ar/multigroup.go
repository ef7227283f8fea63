package ar

import (
	"repro/internal/bulk"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/par"
)

// MultiGrouping is the device-side pre-grouping over several columns at
// once (TPC-H Q1 groups by l_returnflag, l_linestatus). Group identity is
// the tuple of approximation codes; like the single-column Grouping, the
// per-candidate group IDs are positionally aligned with the candidate set.
type MultiGrouping struct {
	Src     *Candidates
	Cols    []*bwd.Column
	IDs     []uint32
	NGroups int
	// Codes[k][g] is the approximation code of column k for group g.
	Codes   [][]uint64
	shipped bool
}

// GroupApproxMulti hash-groups the candidates by the code tuple of the
// given columns on the device. The write-conflict charge follows the same
// lanes-per-group serialization model as GroupApprox.
func GroupApproxMulti(m *device.Meter, cols []*bwd.Column, cands *Candidates) *MultiGrouping {
	n := len(cands.IDs)
	colCodes := make([][]uint64, len(cols))
	projected := make([]bool, len(cols))
	for k, col := range cols {
		if attached := cands.CodesFor(col); attached != nil {
			colCodes[k] = attached
			continue
		}
		p := ProjectApprox(m, col, cands)
		colCodes[k] = p.Codes
		projected[k] = true
	}
	// Combine code tuples into single hash keys; code widths are bounded
	// by the columns' approximation bits.
	idx := make(map[uint64]uint32, 64)
	ids := make([]uint32, n)
	var uniq []uint64
	shift := make([]uint, len(cols))
	var total uint
	for k := len(cols) - 1; k >= 0; k-- {
		shift[k] = total
		total += cols[k].Dec.ApproxBits
	}
	for i := 0; i < n; i++ {
		var key uint64
		for k := range cols {
			key |= colCodes[k][i] << shift[k]
		}
		g, ok := idx[key]
		if !ok {
			g = uint32(len(uniq))
			idx[key] = g
			uniq = append(uniq, key)
		}
		ids[i] = g
	}
	codes := make([][]uint64, len(cols))
	for k, col := range cols {
		codes[k] = make([]uint64, len(uniq))
		mask := uint64(1)<<col.Dec.ApproxBits - 1
		for g, key := range uniq {
			codes[k][g] = key >> shift[k] & mask
		}
	}
	for k := range colCodes {
		if projected[k] {
			mem.U64.Put(colCodes[k])
		}
	}
	if m != nil {
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
	return &MultiGrouping{Src: cands, Cols: cols, IDs: ids, NGroups: len(uniq), Codes: codes}
}

// Ship charges the transfer of the per-candidate group IDs and the group
// code table to the host.
func (g *MultiGrouping) Ship(m *device.Meter) {
	if g.shipped {
		return
	}
	g.shipped = true
	if m != nil {
		m.Transfer(int64(len(g.IDs))*4 + int64(g.NGroups*len(g.Cols))*8)
	}
}

// GroupRefineMulti produces the exact grouping of the refined subset plus
// the per-group key values of every grouping column.
//
// When every grouping column is fully device resident the pre-grouping is
// exact and only false positives are discharged (translucent join).
// Otherwise exact keys are re-derived from shipped codes and host
// residuals and the CPU regroups.
//
// The exact-pre-grouping path densifies surviving group IDs with the
// shared block-partial first-appearance remap, and the decomposed path
// reconstructs key tuples per-morsel and regroups with
// bulk.GroupByMulti (charged here, not by the grouping kernel, so the
// simulated cost is unchanged).
func GroupRefineMulti(p par.P, m *device.Meter, g *MultiGrouping, refined *Candidates) (*bulk.Grouping, [][]int64, error) {
	pos, err := TranslucentJoinMetered(m, p.NThreads(), g.Src.IDs, refined.IDs)
	if err != nil {
		return nil, nil, err
	}
	exactPre := true
	for _, col := range g.Cols {
		if col.Dec.ResBits != 0 {
			exactPre = false
			break
		}
	}
	if exactPre {
		// Pass the pre-grouping through, dropping groups that lost all
		// their tuples to false-positive elimination.
		old := make([]uint32, len(pos))
		p.For(len(pos), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				old[i] = g.IDs[pos[i]]
			}
		})
		ids, used := remapFirstAppearance(p, old, g.NGroups)
		keys := make([][]int64, len(g.Cols))
		for k, col := range g.Cols {
			keys[k] = make([]int64, len(used))
			for newID, oldID := range used {
				keys[k][newID] = col.Dec.Base + int64(g.Codes[k][oldID])
			}
		}
		if m != nil {
			m.CPUWork(p.NThreads(), int64(len(pos))*8, 0, int64(len(pos)))
		}
		mem.Ints.Put(pos)
		return &bulk.Grouping{IDs: ids, NGroups: len(used), Keys: nil}, keys, nil
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
					r = col.Residual.Get(int(refined.IDs[i]))
				}
				ek[i] = col.ReconstructFrom(code, r)
			}
		})
		if m != nil {
			m.CPUWork(p.NThreads(), int64(n)*8, int64(n)*residualBytes(col.Dec.ResBits), int64(n))
		}
	}
	// Hash the exact tuples (unmetered kernel; charged below with the
	// historical group-refinement formula).
	grouping, keys := bulk.GroupByMulti(p, nil, exact)
	if m != nil {
		m.CPUWork(p.NThreads(), int64(n)*8*int64(len(g.Cols)), 0, int64(n)*bulk.OpsHashGroup)
	}
	mem.Ints.Put(pos)
	return grouping, keys, nil
}
