package ar

import (
	"repro/internal/bwd"
	"repro/internal/par"
)

// This file implements the disjunction (OR) operators that run over an
// existing candidate set: narrowing it with a union of relaxed ranges —
// each disjunct relaxed through its own column's BWD bounds — and the
// refinement of a disjunction. The full-column disjunctive scan,
// SelectApproxAny, the narrowing and the refinement are all the k-column
// case of the one mask step in scan.go. The candidate union never
// materializes per-disjunct sets: one pass evaluates every disjunct per
// granule.

// SelectApproxAnyOver narrows a candidate set with a further disjunctive
// predicate: the device gathers each disjunct column's codes at the
// candidate positions and keeps the tuples matching any relaxed range. Like
// SelectApproxOver it is the scan's mask step over the granules that still
// hold a survivor — per granule the union of the disjuncts' outcomes, ANDed
// into the set's mask — narrowing in in place and attaching every disjunct
// column under the group id. Its bill is ChargeSelectApproxOver.
func SelectApproxAnyOver(cols []*bwd.Column, rs []bwd.ApproxRange, in *Candidates, group int) *Candidates {
	first := len(in.attach)
	for j, col := range cols {
		in.attach = append(in.attach, attachment{col: col, rng: rs[j], group: group})
	}
	in.narrow(in.attach[first:], true)
	return in
}

// SelectRefineAny is the refinement of a disjunctive selection: on the
// CPU, each candidate's exact value is reconstructed per disjunct column
// (code + host-resident residual) and the precise disjunction — any
// lo_k <= v_k <= hi_k — is re-evaluated, eliminating false positives. Like
// SelectApproxAnyOver it is one mask step over k disjuncts, each the exact
// values of its column (bwd.Exactly without tails), narrowing in in place
// on p and keeping its candidate order. When every disjunct column is fully
// device resident the relaxed ranges were the exact predicates (§IV-C): no
// candidate can be eliminated, and the pass does not run — its bill,
// ChargeSelectRefineAny (select.go), still charges it. A walk cancelled
// partway returns the context's error.
func SelectRefineAny(p par.P, cols []*bwd.Column, los, his []int64, in *Candidates) error {
	resident := true
	in.walk = in.walk[:0]
	for k, col := range cols {
		resident = resident && col.Dec.ResBits == 0
		in.walk = append(in.walk, bwd.Exactly(col, nil, los[k], his[k]))
	}
	if resident {
		return nil
	}
	return in.step(p, false, false)
}
