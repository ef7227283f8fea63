package ar

import (
	"testing"

	"repro/internal/par"
)

func TestCountApproxBoundsExact(t *testing.T) {
	n := 20000
	vals := shuffledInts(n, 40)
	col := decompose(t, vals, 8)
	lo, hi := int64(3000), int64(9000)
	cands := SelectApprox(nil, col, col.Relax(lo, hi))
	iv := CountApprox(nil, cands)
	before := cands.Len()
	if err := SelectRefine(par.P{}, nil, col, nil, lo, hi, cands); err != nil {
		t.Fatal(err)
	}
	exact := int64(len(cands.IDs()))
	if !iv.Contains(exact) {
		t.Fatalf("approximate count %v does not contain exact %d", iv, exact)
	}
	if iv.Hi != int64(before) {
		t.Errorf("upper bound %d != candidate count %d", iv.Hi, before)
	}
}
