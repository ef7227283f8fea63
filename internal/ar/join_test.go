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
// plus a fact-side selection column, to exercise the A&R operators through
// a join key directly: the dimension's primary key is dense from 0, so the
// key addresses position fk.
func buildDimData(t *testing.T, n, dimN int, dimBits uint, seed int64) (sel, fk, dimVals []int64, selCol, dimCol *bwd.Column, key *bwd.Key) {
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
	key = &bwd.Key{Col: decompose(t, fk, 32), Len: dimN}
	return
}

func idSet(c *Candidates) map[bat.OID]bool {
	set := map[bat.OID]bool{}
	for _, id := range c.IDs() {
		set[id] = true
	}
	return set
}

func TestSelectThroughKeySupersetAndRefine(t *testing.T) {
	for _, dimBits := range []uint{32, 6} { // resident and decomposed dims
		sel, fk, dimVals, selCol, dimCol, key := buildDimData(t, 20000, 500, dimBits, 70)

		// Narrowing is in place: before keeps the fact-side candidates.
		before := SelectApprox(selCol, selCol.Relax(100, 9000))
		lo, hi := int64(2000), int64(7000)
		c2 := SelectApproxOver(dimCol, key, dimCol.Relax(lo, hi), SelectApprox(selCol, selCol.Relax(100, 9000)))
		// Superset property through the join indirection.
		gotSet := idSet(c2)
		for _, id := range before.IDs() {
			v := dimVals[fk[id]]
			if v >= lo && v <= hi && !gotSet[id] {
				t.Fatalf("dimBits=%d: candidate %d with qualifying dim value %d dropped", dimBits, id, v)
			}
		}
		// Refinement: exact, the values aligned with the ids through the key.
		proj := ProjectApprox(dimCol, key, c2)
		if err := SelectRefine(par.P{}, dimCol, key, lo, hi, c2); err != nil {
			t.Fatal(err)
		}
		vals, err := ProjectRefine(par.P{}, proj)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range c2.IDs() {
			if vals[i] != dimVals[fk[id]] {
				t.Fatalf("dimBits=%d: reconstructed dim value %d != %d", dimBits, vals[i], dimVals[fk[id]])
			}
			if vals[i] < lo || vals[i] > hi {
				t.Fatalf("dimBits=%d: false positive survived refinement", dimBits)
			}
		}
		// Count must equal ground truth.
		want := 0
		for i := range sel {
			if sel[i] >= 100 && sel[i] <= 9000 {
				if v := dimVals[fk[i]]; v >= lo && v <= hi {
					want++
				}
			}
		}
		// c2 is approximate on sel: refine sel too for exact ground truth.
		if err := SelectRefine(par.P{}, selCol, nil, 100, 9000, c2); err != nil {
			t.Fatal(err)
		}
		if c2.Len() != want {
			t.Fatalf("dimBits=%d: refined join count %d != ground truth %d", dimBits, c2.Len(), want)
		}
	}
}

func TestProjectRefineThroughKeyReconstructsDimValues(t *testing.T) {
	_, fk, dimVals, selCol, dimCol, key := buildDimData(t, 10000, 300, 5, 71)
	cands := SelectApprox(selCol, selCol.Relax(500, 8000))
	proj := ProjectApprox(dimCol, key, cands)
	if err := SelectRefine(par.P{}, selCol, nil, 500, 8000, cands); err != nil {
		t.Fatal(err)
	}
	got, err := ProjectRefine(par.P{}, proj)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range cands.IDs() {
		if got[i] != dimVals[fk[id]] {
			t.Fatalf("dim projection for fact %d = %d, want %d", id, got[i], dimVals[fk[id]])
		}
	}
}

func TestSelectRefineThroughKeyResidentChargesNothing(t *testing.T) {
	sys := device.PaperSystem()
	_, _, _, selCol, dimCol, key := buildDimData(t, 5000, 100, 32, 72)
	cands := SelectApprox(selCol, selCol.Relax(0, 4000))
	c2 := SelectApproxOver(dimCol, key, dimCol.Relax(0, 5000), cands)
	m, n := device.NewMeter(sys), c2.Len()
	if err := SelectRefine(par.P{}, dimCol, key, 0, 5000, c2); err != nil {
		t.Fatal(err)
	}
	ChargeSelectRefine(par.P{}, m, dimCol, true, n, c2.Len())
	if m.CPU != 0 {
		t.Errorf("resident dimension refinement charged %v (§IV-C: no refinement needed)", m.CPU)
	}
}

func TestProjectApproxThroughKey(t *testing.T) {
	// Dimension projection through the join key (FK join path).
	dim := []int64{100, 200, 300, 400}
	dimCol := decompose(t, dim, 32)
	fact := shuffledInts(100, 26)
	factCol := decompose(t, fact, 32)
	fk := make([]int64, len(fact))
	for i := range fk {
		fk[i] = int64(i % len(dim))
	}
	key := &bwd.Key{Col: decompose(t, fk, 32), Len: len(dim)}
	cands := SelectApprox(factCol, factCol.Relax(0, 99))
	codes := ProjectApprox(dimCol, key, cands).Codes()
	for i, id := range cands.IDs() {
		want := dim[fk[id]]
		if got := dimCol.Dec.Base + int64(codes[i]); got != want {
			t.Fatalf("projected value %d = %d, want %d", i, got, want)
		}
	}
}

func TestJoinApproxDensePK(t *testing.T) {
	// Dimension with dense PK 1..100; fact rows carry FKs into it.
	dimLen := 100
	rng := rand.New(rand.NewSource(60))
	n := 5000
	fk := make([]int64, n)
	for i := range fk {
		fk[i] = int64(rng.Intn(dimLen)) + 1
	}
	sel := shuffledInts(n, 61)
	key := &bwd.Key{Col: decompose(t, fk, 32), Base: 1, Len: dimLen} // fully resident: join allowed
	selCol := decompose(t, sel, 8)

	cands := SelectApprox(selCol, selCol.Relax(100, 3000))
	n0 := cands.Len()
	cands, err := JoinApprox(key, cands)
	if err != nil {
		t.Fatalf("JoinApprox: %v", err)
	}
	if cands.Len() != n0 {
		t.Fatalf("probe of a dimension every key joins kept %d of %d candidates", cands.Len(), n0)
	}
	for _, id := range cands.IDs() {
		if pos, ok := key.At(int(id)); !ok || int64(pos) != fk[id]-1 {
			t.Fatalf("position for candidate %d = %d (%v), want %d", id, pos, ok, fk[id]-1)
		}
	}
}

func TestJoinApproxRejectsDecomposedKey(t *testing.T) {
	fk := shuffledInts(5000, 62)
	key := &bwd.Key{Col: decompose(t, fk, 6), Len: 5000} // decomposed: approximate keys
	selCol := decompose(t, shuffledInts(5000, 63), 8)
	cands := SelectApprox(selCol, selCol.Relax(0, 100))
	if _, err := JoinApprox(key, cands); err == nil {
		t.Error("decomposed key column accepted for device FK join")
	}
}

func TestJoinApproxDropsDanglingKey(t *testing.T) {
	fk := []int64{1, 2, 99, 0}
	fkCol := decompose(t, fk, 32)
	cands, err := JoinApprox(&bwd.Key{Col: fkCol, Base: 1, Len: 10}, SelectApprox(fkCol, bwd.ApproxRange{Full: true}))
	if err != nil {
		t.Fatal(err)
	}
	if ids := cands.IDs(); len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Errorf("inner join over keys %v into dimension [1,11) kept rows %v, want [0 1]", fk, ids)
	}
}
