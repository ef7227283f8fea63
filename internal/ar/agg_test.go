package ar

import (
	"math/rand"
	"testing"

	"repro/internal/bulk"
	"repro/internal/par"
)

func TestCountApproxBoundsExact(t *testing.T) {
	n := 20000
	vals := shuffledInts(n, 40)
	col := decompose(t, vals, 8)
	lo, hi := int64(3000), int64(9000)
	cands := SelectApprox(nil, col, col.Relax(lo, hi))
	iv := CountApprox(nil, cands)
	refined, _ := SelectRefine(par.P{}, nil, col, lo, hi, cands)
	exact := int64(len(refined.IDs))
	if !iv.Contains(exact) {
		t.Fatalf("approximate count %v does not contain exact %d", iv, exact)
	}
	if iv.Hi != int64(cands.Len()) {
		t.Errorf("upper bound %d != candidate count %d", iv.Hi, cands.Len())
	}
}

func TestSumApproxBoundsExact(t *testing.T) {
	for _, bits := range []uint{6, 9, 12, 32} {
		n := 10000
		dates := shuffledInts(n, 41)
		prices := shuffledInts(n, 42)
		dateCol := decompose(t, dates, bits)
		priceCol := decompose(t, prices, bits)

		lo, hi := int64(2000), int64(7000)
		cands := SelectApprox(nil, dateCol, dateCol.Relax(lo, hi))
		proj := ProjectApprox(nil, priceCol, cands)
		iv := SumApprox(nil, proj)

		refined, _ := SelectRefine(par.P{}, nil, dateCol, lo, hi, cands)
		exactVals, err := ProjectRefine(par.P{}, nil, proj, refined)
		if err != nil {
			t.Fatalf("bits %d: %v", bits, err)
		}
		exact := bulk.Sum(par.P{}, nil, exactVals)
		if !iv.Contains(exact) {
			t.Fatalf("bits %d: approximate sum %v does not contain exact %d", bits, iv, exact)
		}
		if bits == 32 && iv.Lo != iv.Hi {
			t.Errorf("fully resident sum should be exact, got %v", iv)
		}
	}
}

func TestSumGroupedApproxBoundsExact(t *testing.T) {
	n := 10000
	keys := groupKeys(n, 8, 43)
	vals := shuffledInts(n, 44)
	sel := shuffledInts(n, 45)
	keyCol := decompose(t, keys, 32)
	valCol := decompose(t, vals, 8)
	selCol := decompose(t, sel, 8)

	cands := SelectApprox(nil, selCol, selCol.Relax(1000, 8000))
	proj := ProjectApprox(nil, valCol, cands)
	grouping := GroupApprox(nil, keyCol, cands)
	ivs := SumGroupedApprox(nil, proj, grouping)

	refined, _ := SelectRefine(par.P{}, nil, selCol, 1000, 8000, cands)
	exactVals, err := ProjectRefine(par.P{}, nil, proj, refined)
	if err != nil {
		t.Fatal(err)
	}
	exactGroups, err := GroupRefine(par.P{}, nil, grouping, refined)
	if err != nil {
		t.Fatal(err)
	}
	exactSums := make([]int64, exactGroups.NGroups)
	for i, v := range exactVals {
		exactSums[exactGroups.IDs[i]] += v
	}
	for g := 0; g < exactGroups.NGroups; g++ {
		key := exactGroups.Keys[g]
		// Find the approximate group with the same key.
		found := false
		for ag := 0; ag < grouping.NGroups; ag++ {
			if keyCol.Dec.Base+int64(grouping.Codes[ag]) == key {
				if !ivs[ag].Contains(exactSums[g]) {
					t.Fatalf("group %d: approx sum %v does not contain exact %d", key, ivs[ag], exactSums[g])
				}
				found = true
			}
		}
		if !found {
			t.Fatalf("exact group %d missing from approximate grouping", key)
		}
	}
}

// TestMinApproxFig6Trap reconstructs the scenario of Fig 6: the candidate
// with the minimal approximate y-value is a false positive of the relaxed
// selection on x, so returning only the minimal-approximation tuples would
// lose the true minimum.
func TestMinApproxFig6Trap(t *testing.T) {
	// x values: bucket size will be 16 after 6/4 decomposition of 0..1023.
	n := 1024
	x := make([]int64, n)
	y := make([]int64, n)
	for i := range x {
		x[i] = int64(i)
		y[i] = int64(1000 + i) // strictly increasing, min y at min x
	}
	// Tuple 95: x just below the selection bound (false positive for
	// x >= 100 relaxed to bucket 96..111... actually bucket of 100 starts
	// at 96), with a tiny y that fakes being the minimum.
	y[97] = 5
	xCol := decompose(t, x, 6)
	yCol := decompose(t, y, 6)

	lo, hi := int64(100), int64(1023)
	cands := SelectApprox(nil, xCol, xCol.Relax(lo, hi))
	proj := ProjectApprox(nil, yCol, cands)
	mc := MinApprox(nil, proj)

	// The true minimum y among x in [100,1023] is y[100] = 1100.
	refined, _ := SelectRefine(par.P{}, nil, xCol, lo, hi, cands)
	yExact, err := ProjectRefine(par.P{}, nil, proj, refined)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := MinRefine(par.P{}, nil, mc, refined.IDs, yExact)
	if !ok {
		t.Fatal("MinRefine found no candidates")
	}
	if got != 1100 {
		t.Fatalf("min = %d, want 1100 (the false positive's y=5 must not survive)", got)
	}
	// And the candidate set must actually have contained the true minimum.
	found := false
	for _, id := range mc.IDs {
		if id == 100 {
			found = true
		}
	}
	if !found {
		t.Error("min candidate set lost the true minimum's tuple id (Fig 6 trap)")
	}
}

func TestMinMaxApproxRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 50; trial++ {
		n := 2000
		x := shuffledInts(n, int64(100+trial))
		y := make([]int64, n)
		for i := range y {
			y[i] = int64(rng.Intn(100000))
		}
		xCol := decompose(t, x, uint(4+trial%8))
		yCol := decompose(t, y, uint(4+(trial/2)%8))

		lo := int64(rng.Intn(n))
		hi := lo + int64(rng.Intn(n-int(lo)))
		cands := SelectApprox(nil, xCol, xCol.Relax(lo, hi))
		if cands.Len() == 0 {
			continue
		}
		proj := ProjectApprox(nil, yCol, cands)
		refined, _ := SelectRefine(par.P{}, nil, xCol, lo, hi, cands)
		if len(refined.IDs) == 0 {
			continue
		}
		yExact, err := ProjectRefine(par.P{}, nil, proj, refined)
		if err != nil {
			t.Fatal(err)
		}
		wantMin, _ := bulk.Min(par.P{}, nil, yExact)
		wantMax, _ := bulk.Max(par.P{}, nil, yExact)

		mc := MinApprox(nil, proj)
		gotMin, ok := MinRefine(par.P{}, nil, mc, refined.IDs, yExact)
		if !ok || gotMin != wantMin {
			t.Fatalf("trial %d: min = %d (ok=%v), want %d", trial, gotMin, ok, wantMin)
		}
		xc := MaxApprox(nil, proj)
		gotMax, ok := MaxRefine(par.P{}, nil, xc, refined.IDs, yExact)
		if !ok || gotMax != wantMax {
			t.Fatalf("trial %d: max = %d (ok=%v), want %d", trial, gotMax, ok, wantMax)
		}
	}
}

func TestMinApproxPrunes(t *testing.T) {
	// With certain candidates present, the candidate set should usually be
	// far smaller than the full candidate list.
	n := 50000
	x := shuffledInts(n, 47)
	y := shuffledInts(n, 48)
	xCol := decompose(t, x, 10)
	yCol := decompose(t, y, 10)
	cands := SelectApprox(nil, xCol, xCol.Relax(0, int64(n)))
	proj := ProjectApprox(nil, yCol, cands)
	mc := MinApprox(nil, proj)
	if len(mc.IDs) >= cands.Len()/10 {
		t.Errorf("min candidate set not pruned: %d of %d", len(mc.IDs), cands.Len())
	}
}
