package ar

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/bulk"
	"repro/internal/bwd"
	"repro/internal/device"
)

// FKPositionsApprox computes, on the device, the dimension-table positions
// joined by a foreign-key column for every candidate: the approximate side
// of the paper's foreign-key join (§IV-D).
//
// The paper deliberately does not attempt generic hash joins on the device
// (massively parallel hash builds serialize on conflicting writes) and
// instead relies on a pre-built foreign-key index, which turns the join
// into a projective join. With the dense primary keys of dimension tables
// the index is positional: dimension position = fk − pkBase. This requires
// the foreign-key column to be fully device resident (ResBits == 0): an
// approximate key cannot address an exact position. Decomposed key columns
// must fall back to the CPU join path, which mirrors the paper's own
// restriction ("we leave support for unindexed joins on the GPU for future
// work").
func FKPositionsApprox(m *device.Meter, fkCol *bwd.Column, cands *Candidates, pkBase int64, dimLen int) ([]bat.OID, error) {
	if fkCol.Dec.ResBits != 0 {
		return nil, fmt.Errorf("ar: FK join needs a fully device-resident key column, got %v", fkCol.Dec)
	}
	ids := cands.IDs()
	out := oidPool.GetN(len(ids))
	for i, id := range ids {
		fk := fkCol.Dec.Base + int64(fkCol.Approx.Get(int(id)))
		pos := fk - pkBase
		if pos < 0 || pos >= int64(dimLen) {
			return nil, fmt.Errorf("ar: dangling foreign key %d outside dimension [%d,%d)", fk, pkBase, pkBase+int64(dimLen))
		}
		out[i] = bat.OID(pos)
	}
	if m != nil {
		n := len(ids)
		seq := int64(n) * 8 // read ids, write positions
		m.GPUKernel(seq, packedBytes(n, fkCol.Dec.ApproxBits), int64(n)*bulk.OpsHashProbe)
	}
	return out, nil
}

// ThetaJoinApprox is the approximate side of a non-equi (theta) join,
// which §IV-D singles out as a natural device workload: a nested-loop scan
// that is bandwidth-hungry and trivially parallel because it needs no
// shared build structure. It returns all candidate pairs (li, ri) whose
// approximation intervals could satisfy `left.value < right.value` — a
// superset of the exact result.
//
// The candidate pairs must be refined with ThetaJoinRefine; the paper
// notes only one side can keep its permutation through a translucent join,
// so the refinement re-verifies pairs directly.
func ThetaJoinApprox(m *device.Meter, left, right *bwd.Column) (lids, rids []bat.OID) {
	for i := 0; i < left.Len(); i++ {
		lLow := left.Dec.Base + int64(left.Approx.Get(i)<<left.Dec.ResBits)
		for j := 0; j < right.Len(); j++ {
			rLow := right.Dec.Base + int64(right.Approx.Get(j)<<right.Dec.ResBits)
			rHi := rLow + right.Dec.Err()
			// left < right is possible iff min(left interval) < max(right
			// interval).
			if lLow < rHi {
				lids = append(lids, bat.OID(i))
				rids = append(rids, bat.OID(j))
			}
		}
	}
	if m != nil {
		n := int64(left.Len()) * int64(right.Len())
		m.GPUKernel(packedBytes(left.Len(), left.Dec.ApproxBits)+
			packedBytes(right.Len(), right.Dec.ApproxBits)*int64(left.Len()),
			0, n)
	}
	return lids, rids
}

// ThetaJoinRefine eliminates false-positive pairs by reconstructing both
// sides' exact values on the CPU and re-evaluating `left < right`.
func ThetaJoinRefine(m *device.Meter, threads int, left, right *bwd.Column, lids, rids []bat.OID) (outL, outR []bat.OID) {
	for k := range lids {
		lv := left.Reconstruct(int(lids[k]))
		rv := right.Reconstruct(int(rids[k]))
		if lv < rv {
			outL = append(outL, lids[k])
			outR = append(outR, rids[k])
		}
	}
	if m != nil {
		n := int64(len(lids))
		m.CPUWork(threads, n*8,
			n*(residualBytes(left.Dec.ResBits)+residualBytes(right.Dec.ResBits)), n*2)
	}
	return outL, outR
}
