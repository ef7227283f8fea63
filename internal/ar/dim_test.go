package ar

import (
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/par"
)

// buildDimData creates a fact table with an FK into a dimension column,
// plus a fact-side selection column, to exercise the dimension-side A&R
// operators directly.
func buildDimData(t *testing.T, n, dimN int, dimBits uint, seed int64) (sel, fk, dimVals []int64, selCol, dimCol *bwd.Column) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sel = shuffledInts(n, seed)
	fk = make([]int64, n)
	for i := range fk {
		fk[i] = int64(rng.Intn(dimN))
	}
	dimVals = make([]int64, dimN)
	for i := range dimVals {
		dimVals[i] = int64(rng.Intn(10000))
	}
	selCol = decompose(t, sel, 8)
	dimCol = decompose(t, dimVals, dimBits)
	return
}

func TestSelectApproxAtAndRefineAt(t *testing.T) {
	for _, dimBits := range []uint{32, 6} { // resident and decomposed dims
		sel, fk, dimVals, selCol, dimCol := buildDimData(t, 20000, 500, dimBits, 70)

		cands := SelectApprox(nil, selCol, selCol.Relax(100, 9000))
		at := make([]bat.OID, cands.Len())
		for i, id := range cands.IDs() {
			at[i] = bat.OID(fk[id])
		}
		lo, hi := int64(2000), int64(7000)
		c2, at2 := SelectApproxAt(nil, dimCol, dimCol.Relax(lo, hi), cands, at)
		// Superset property through the join indirection.
		gotSet := map[bat.OID]bool{}
		for _, id := range c2.IDs() {
			gotSet[id] = true
		}
		for i, id := range cands.IDs() {
			v := dimVals[at[i]]
			if v >= lo && v <= hi && !gotSet[id] {
				t.Fatalf("dimBits=%d: candidate %d with qualifying dim value %d dropped", dimBits, id, v)
			}
		}
		// Refinement: exact.
		r2, atR, vals := SelectRefineAt(par.P{}, nil, dimCol, lo, hi, c2, at2)
		for i, id := range r2.IDs() {
			if vals[i] != dimVals[atR[i]] {
				t.Fatalf("dimBits=%d: reconstructed dim value %d != %d", dimBits, vals[i], dimVals[atR[i]])
			}
			if vals[i] < lo || vals[i] > hi {
				t.Fatalf("dimBits=%d: false positive survived refinement", dimBits)
			}
			if bat.OID(fk[id]) != atR[i] {
				t.Fatalf("dimBits=%d: position list misaligned", dimBits)
			}
		}
		// Count must equal ground truth.
		want := 0
		selSet := map[bat.OID]bool{}
		for _, id := range cands.IDs() {
			selSet[id] = true
		}
		for i := range sel {
			if sel[i] >= 100 && sel[i] <= 9000 {
				if v := dimVals[fk[i]]; v >= lo && v <= hi {
					want++
				}
			}
		}
		// cands is approximate on sel: refine sel first for exact ground truth.
		rSel, _ := SelectRefine(par.P{}, nil, selCol, 100, 9000, c2)
		atSel := make([]bat.OID, len(rSel.IDs()))
		for i, id := range rSel.IDs() {
			atSel[i] = bat.OID(fk[id])
		}
		rBoth, _, _ := SelectRefineAt(par.P{}, nil, dimCol, lo, hi, rSel, atSel)
		if rBoth.Len() != want {
			t.Fatalf("dimBits=%d: refined join count %d != ground truth %d", dimBits, rBoth.Len(), want)
		}
	}
}

func TestProjectRefineAtReconstructsDimValues(t *testing.T) {
	_, fk, dimVals, selCol, dimCol := buildDimData(t, 10000, 300, 5, 71)
	cands := SelectApprox(nil, selCol, selCol.Relax(500, 8000))
	at := make([]bat.OID, cands.Len())
	for i, id := range cands.IDs() {
		at[i] = bat.OID(fk[id])
	}
	proj := ProjectApproxAt(nil, dimCol, cands, at)
	refined, _ := SelectRefine(par.P{}, nil, selCol, 500, 8000, cands)
	pos, err := TranslucentJoin(cands.IDs(), refined.IDs())
	if err != nil {
		t.Fatal(err)
	}
	atRefined := make([]bat.OID, len(pos))
	for i, p := range pos {
		atRefined[i] = at[p]
	}
	got, err := ProjectRefineAt(par.P{}, nil, proj, refined, atRefined)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range refined.IDs() {
		if got[i] != dimVals[fk[id]] {
			t.Fatalf("dim projection for fact %d = %d, want %d", id, got[i], dimVals[fk[id]])
		}
	}
}

func TestSelectRefineAtResidentChargesNothing(t *testing.T) {
	sys := device.PaperSystem()
	_, fk, _, selCol, dimCol := buildDimData(t, 5000, 100, 32, 72)
	cands := SelectApprox(nil, selCol, selCol.Relax(0, 4000))
	at := make([]bat.OID, cands.Len())
	for i, id := range cands.IDs() {
		at[i] = bat.OID(fk[id])
	}
	c2, at2 := SelectApproxAt(nil, dimCol, dimCol.Relax(0, 5000), cands, at)
	m := device.NewMeter(sys)
	SelectRefineAt(par.P{}, m, dimCol, 0, 5000, c2, at2)
	if m.CPU != 0 {
		t.Errorf("resident dimension refinement charged %v (§IV-C: no refinement needed)", m.CPU)
	}
}
