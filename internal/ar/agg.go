package ar

import (
	"math/bits"

	"repro/internal/device"
)

// Aggregation in the A&R framework depends on the aggregation function
// (§IV-F). Count is the one aggregate that needs no column — it is a
// property of the candidate set — and lives here. The bounds and exact
// values of sum, min, max and avg come from the statement's compiled
// program, which folds intervals over projections (internal/plan/expr.go).

// CountApprox returns the approximate count — the candidate-set size,
// an upper bound on the exact count — as an interval whose lower bound
// subtracts the candidates that might still be false positives.
func CountApprox(m *device.Meter, cands *Candidates) Interval {
	n := cands.Len()
	certain := n
	if mask := cands.CertainMask(); mask != nil {
		certain = 0
		for _, w := range mask {
			certain += bits.OnesCount64(w)
		}
	}
	if m != nil {
		m.GPUKernel(int64(n)*4, 0, int64(n))
	}
	return Interval{int64(certain), int64(n)}
}
