package ar

import (
	"math/bits"

	"repro/internal/bat"
	"repro/internal/bulk"
	"repro/internal/device"
	"repro/internal/par"
)

// Aggregation in the A&R framework depends on the aggregation function
// (§IV-F): count is trivial; min and max need candidate sets that provably
// contain the true extremum; sum and avg are victims of destructive
// distributivity when combined with arithmetic, and their exact values are
// computed on the CPU unless all data is device resident.

// CountApprox returns the approximate count — the candidate-set size,
// an upper bound on the exact count — as an interval whose lower bound
// subtracts the candidates that might still be false positives.
func CountApprox(m *device.Meter, cands *Candidates) Interval {
	certain := len(cands.IDs)
	if mask := cands.CertainMask(); mask != nil {
		certain = 0
		for _, w := range mask {
			certain += bits.OnesCount64(w)
		}
	}
	if m != nil {
		m.GPUKernel(int64(len(cands.IDs))*4, 0, int64(len(cands.IDs)))
	}
	return Interval{int64(certain), int64(len(cands.IDs))}
}

// SumApprox returns strict bounds on the sum of the projected column over
// the candidates: every candidate contributes its approximation interval;
// possibly-false-positive candidates contribute [0, hi] because refinement
// may drop them entirely.
func SumApprox(m *device.Meter, p *Projection) Interval {
	var lo, hi int64
	err := p.Col.Dec.Err()
	for i := range p.Codes {
		vLo := p.ApproxLow(i)
		vHi := vLo + err
		if p.Src != nil && !p.Src.Certain(i) {
			// A false positive contributes nothing after refinement.
			if vLo > 0 {
				vLo = 0
			}
			if vHi < 0 {
				vHi = 0
			}
		}
		lo += vLo
		hi += vHi
	}
	if m != nil {
		m.GPUKernel(packedBytes(len(p.Codes), p.Col.Dec.ApproxBits), 0,
			int64(len(p.Codes))*bulk.OpsAggregate)
	}
	return Interval{lo, hi}
}

// SumRefine computes the exact sum of refined values on the CPU. When the
// summed expression involves multiplication (destructive distributivity,
// §IV-G), the caller must pass the values re-derived from reconstructed
// inputs; the approximate sum cannot shortcut this.
func SumRefine(p par.P, m *device.Meter, vals []int64) int64 {
	return bulk.Sum(p, m, vals)
}

// SumGroupedApprox returns per-group sum bounds over the projected column
// under a device-side pre-grouping.
func SumGroupedApprox(m *device.Meter, p *Projection, g *Grouping) []Interval {
	out := make([]Interval, g.NGroups)
	err := p.Col.Dec.Err()
	for i := range p.Codes {
		vLo := p.ApproxLow(i)
		vHi := vLo + err
		if p.Src != nil && !p.Src.Certain(i) {
			if vLo > 0 {
				vLo = 0
			}
			if vHi < 0 {
				vHi = 0
			}
		}
		gi := g.IDs[i]
		out[gi].Lo += vLo
		out[gi].Hi += vHi
	}
	if m != nil {
		m.GPUKernel(packedBytes(len(p.Codes), p.Col.Dec.ApproxBits)+int64(len(p.Codes))*4, 0,
			int64(len(p.Codes))*2)
	}
	return out
}

// MinCandidates is the approximate side of a min/max aggregation: a subset
// of the candidate IDs guaranteed to contain the true extremum after
// refinement.
type MinCandidates struct {
	IDs []bat.OID
	// Bound is the certain upper bound on the true minimum (or lower
	// bound on the true maximum) that pruned the set.
	Bound int64
}

// MinApprox selects the candidates that could hold the minimum of the
// projected column (§IV-F, Fig 6). A candidate that is certainly a true
// positive bounds the minimum from above by approxLow+err; every candidate
// whose approxLow does not exceed the tightest such bound stays — in
// particular false positives whose approximation looks minimal, which is
// exactly the trap Fig 6 illustrates. If no candidate is certain, all
// candidates stay.
func MinApprox(m *device.Meter, p *Projection) *MinCandidates {
	err := p.Col.Dec.Err()
	bound, haveBound := int64(0), false
	for i := range p.Codes {
		if p.Src != nil && !p.Src.Certain(i) {
			continue
		}
		hi := p.ApproxLow(i) + err
		if !haveBound || hi < bound {
			bound, haveBound = hi, true
		}
	}
	out := &MinCandidates{}
	for i := range p.Codes {
		if !haveBound || p.ApproxLow(i) <= bound {
			out.IDs = append(out.IDs, p.Src.IDs[i])
		}
	}
	if haveBound {
		out.Bound = bound
	}
	if m != nil {
		m.GPUKernel(packedBytes(len(p.Codes), p.Col.Dec.ApproxBits)+int64(len(out.IDs))*4, 0,
			int64(len(p.Codes))*2)
	}
	return out
}

// MaxApprox is the mirror image of MinApprox for maxima.
func MaxApprox(m *device.Meter, p *Projection) *MinCandidates {
	err := p.Col.Dec.Err()
	bound, haveBound := int64(0), false
	for i := range p.Codes {
		if p.Src != nil && !p.Src.Certain(i) {
			continue
		}
		lo := p.ApproxLow(i)
		if !haveBound || lo > bound {
			bound, haveBound = lo, true
		}
	}
	out := &MinCandidates{}
	for i := range p.Codes {
		if !haveBound || p.ApproxLow(i)+err >= bound {
			out.IDs = append(out.IDs, p.Src.IDs[i])
		}
	}
	if haveBound {
		out.Bound = bound
	}
	if m != nil {
		m.GPUKernel(packedBytes(len(p.Codes), p.Col.Dec.ApproxBits)+int64(len(out.IDs))*4, 0,
			int64(len(p.Codes))*2)
	}
	return out
}

// MinRefine computes the exact minimum over the refined values whose IDs
// survived both the min-candidate pruning and the selection refinement
// (§IV-F: "a join of the candidate set with the input residuals and the
// calculation of the minimum"). refinedIDs/refinedVals come from the
// selection refinement; mc from MinApprox. ok is false when no candidate
// survives.
func MinRefine(p par.P, m *device.Meter, mc *MinCandidates, refinedIDs []bat.OID, refinedVals []int64) (int64, bool) {
	keep := intersectVals(mc.IDs, refinedIDs, refinedVals)
	if m != nil {
		m.CPUWork(p.NThreads(), int64(len(mc.IDs)+len(refinedIDs))*4, 0,
			int64(len(mc.IDs)+len(refinedIDs)))
	}
	return bulk.Min(p, m, keep)
}

// MaxRefine is the mirror image of MinRefine.
func MaxRefine(p par.P, m *device.Meter, mc *MinCandidates, refinedIDs []bat.OID, refinedVals []int64) (int64, bool) {
	keep := intersectVals(mc.IDs, refinedIDs, refinedVals)
	if m != nil {
		m.CPUWork(p.NThreads(), int64(len(mc.IDs)+len(refinedIDs))*4, 0,
			int64(len(mc.IDs)+len(refinedIDs)))
	}
	return bulk.Max(p, m, keep)
}

// intersectVals returns the refined values whose IDs also appear in the
// candidate ID set.
func intersectVals(candIDs, refinedIDs []bat.OID, refinedVals []int64) []int64 {
	inCand := make(map[bat.OID]struct{}, len(candIDs))
	for _, id := range candIDs {
		inCand[id] = struct{}{}
	}
	var out []int64
	for i, id := range refinedIDs {
		if _, ok := inCand[id]; ok {
			out = append(out, refinedVals[i])
		}
	}
	return out
}
