package ar

import "repro/internal/device"

// Aggregation in the A&R framework depends on the aggregation function
// (§IV-F). Count is the one aggregate that needs no column — it is a
// property of the candidate set — and lives here. The bounds and exact
// values of sum, min, max and avg come from the statement's compiled
// program, which folds intervals over projections (internal/plan/expr.go).

// CountApprox returns the approximate count — the candidate-set size,
// an upper bound on the exact count — as an interval whose lower bound
// subtracts the candidates that might still be false positives: the size of
// the split's certain set (Split), which is all a count builds of it. Its
// bill is ChargeCountApprox.
func CountApprox(cands *Candidates) Interval {
	n := cands.Len()
	certain := n
	if cands.splitOff(); cands.certain != nil {
		certain = cands.certain.Len()
	}
	return Interval{int64(certain), int64(n)}
}

// ChargeCountApprox bills the device's count of n candidates: their ids
// read, one operation each.
func ChargeCountApprox(m *device.Meter, n int) {
	m.GPUKernel(int64(n)*4, 0, int64(n))
}
