package ar

import (
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/device"
)

func TestFKPositionsApproxDensePK(t *testing.T) {
	// Dimension with dense PK 1..100; fact rows carry FKs into it.
	dimLen := 100
	rng := rand.New(rand.NewSource(60))
	n := 5000
	fk := make([]int64, n)
	for i := range fk {
		fk[i] = int64(rng.Intn(dimLen)) + 1
	}
	sel := shuffledInts(n, 61)
	fkCol := decompose(t, fk, 32) // fully resident: join allowed
	selCol := decompose(t, sel, 8)

	cands := SelectApprox(nil, selCol, selCol.Relax(100, 3000))
	pos, err := FKPositionsApprox(nil, fkCol, cands, 1, dimLen)
	if err != nil {
		t.Fatalf("FKPositionsApprox: %v", err)
	}
	for i, id := range cands.IDs() {
		if int64(pos[i]) != fk[id]-1 {
			t.Fatalf("position for candidate %d = %d, want %d", id, pos[i], fk[id]-1)
		}
	}
}

func TestFKPositionsApproxRejectsDecomposedKey(t *testing.T) {
	fk := shuffledInts(5000, 62)
	fkCol := decompose(t, fk, 6) // decomposed: approximate keys
	selCol := decompose(t, shuffledInts(5000, 63), 8)
	cands := SelectApprox(nil, selCol, selCol.Relax(0, 100))
	if _, err := FKPositionsApprox(nil, fkCol, cands, 0, 5000); err == nil {
		t.Error("decomposed key column accepted for device FK join")
	}
}

func TestFKPositionsApproxDanglingKey(t *testing.T) {
	fk := []int64{1, 2, 99}
	fkCol := decompose(t, fk, 32)
	cands := &Candidates{ids: []bat.OID{0, 1, 2}}
	if _, err := FKPositionsApprox(nil, fkCol, cands, 1, 10); err == nil {
		t.Error("dangling FK not detected")
	}
}

func TestThetaJoinApproxRefineMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for trial := 0; trial < 20; trial++ {
		nl, nr := rng.Intn(60)+1, rng.Intn(60)+1
		left := make([]int64, nl)
		right := make([]int64, nr)
		for i := range left {
			left[i] = int64(rng.Intn(1000))
		}
		for i := range right {
			right[i] = int64(rng.Intn(1000))
		}
		lCol := decompose(t, left, uint(3+trial%8))
		rCol := decompose(t, right, uint(3+(trial/2)%8))

		lids, rids := ThetaJoinApprox(nil, lCol, rCol)
		outL, outR := ThetaJoinRefine(nil, 1, lCol, rCol, lids, rids)

		// Ground truth nested loop.
		want := 0
		for _, lv := range left {
			for _, rv := range right {
				if lv < rv {
					want++
				}
			}
		}
		if len(outL) != want {
			t.Fatalf("trial %d: theta join size = %d, want %d", trial, len(outL), want)
		}
		for k := range outL {
			if left[outL[k]] >= right[outR[k]] {
				t.Fatalf("trial %d: pair (%d,%d) violates predicate", trial, outL[k], outR[k])
			}
		}
	}
}

func TestThetaJoinChargesGPUForApproxCPUForRefine(t *testing.T) {
	sys := device.PaperSystem()
	m := device.NewMeter(sys)
	left := shuffledInts(100, 67)
	right := shuffledInts(100, 68)
	lCol := decompose(t, left, 5)
	rCol := decompose(t, right, 5)
	lids, rids := ThetaJoinApprox(m, lCol, rCol)
	if m.GPU == 0 {
		t.Error("theta approximation charged no GPU time")
	}
	ThetaJoinRefine(m, 1, lCol, rCol, lids, rids)
	if m.CPU == 0 {
		t.Error("theta refinement charged no CPU time")
	}
}
