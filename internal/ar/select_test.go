package ar

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bat"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/par"
)

func decompose(t *testing.T, vals []int64, bits uint) *bwd.Column {
	t.Helper()
	col, err := bwd.Decompose(bat.NewDense(vals, bat.Width32), bits, nil)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	return col
}

func shuffledInts(n int, seed int64) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	return vals
}

// rowsIn is the selection oracle: the rows whose value lies in [lo, hi], in
// row order.
func rowsIn(vals []int64, lo, hi int64) []bat.OID {
	var out []bat.OID
	for i, v := range vals {
		if v >= lo && v <= hi {
			out = append(out, bat.OID(i))
		}
	}
	return out
}

func sortedIDs(ids []bat.OID) []bat.OID {
	out := append([]bat.OID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestSelectApproxSupersetOfExact(t *testing.T) {
	vals := shuffledInts(10000, 1)
	col := decompose(t, vals, 8) // aggressive decomposition: many FPs
	lo, hi := int64(1000), int64(2000)
	cands := SelectApprox(col, col.Relax(lo, hi))
	exact := rowsIn(vals, lo, hi)

	inCand := make(map[bat.OID]bool, cands.Len())
	for _, id := range cands.IDs() {
		inCand[id] = true
	}
	for _, id := range exact {
		if !inCand[id] {
			t.Fatalf("exact id %d missing from approximate candidates", id)
		}
	}
	if cands.Len() < len(exact) {
		t.Fatalf("candidate set smaller than exact result: %d < %d", cands.Len(), len(exact))
	}
}

func TestSelectApproxOutputIsPermuted(t *testing.T) {
	vals := shuffledInts(200000, 2)
	col := decompose(t, vals, 10)
	cands := SelectApprox(col, col.Relax(0, 199999)) // select everything
	if cands.Len() != 200000 {
		t.Fatalf("Len = %d, want 200000", cands.Len())
	}
	monotone, ids := true, cands.IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] < ids[i-1] {
			monotone = false
			break
		}
	}
	if monotone {
		t.Error("device selection preserved input order; §IV-A item 3 not modelled")
	}
}

func TestSelectRefineEqualsBulkBaseline(t *testing.T) {
	f := func(seed int64, rawBits uint8, rawLo, rawHi uint16) bool {
		n := 3000
		vals := shuffledInts(n, seed)
		col, err := bwd.Decompose(bat.NewDense(vals, bat.Width32), uint(rawBits%14)+1, nil)
		if err != nil {
			return false
		}
		lo, hi := int64(rawLo)%int64(n), int64(rawHi)%int64(n)
		if lo > hi {
			lo, hi = hi, lo
		}
		refined := SelectApprox(col, col.Relax(lo, hi))
		proj := ProjectApprox(col, nil, refined)
		if err := SelectRefine(par.P{}, col, nil, lo, hi, refined); err != nil {
			return false
		}
		refVals, err := ProjectRefine(par.P{}, proj)
		if err != nil {
			return false
		}

		want := rowsIn(vals, lo, hi)
		if len(refined.IDs()) != len(want) {
			return false
		}
		got := sortedIDs(refined.IDs())
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		// Values must be the exact reconstructed attribute values.
		for i, id := range refined.IDs() {
			if refVals[i] != vals[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSelectRefinePreservesCandidateOrder(t *testing.T) {
	vals := shuffledInts(50000, 3)
	col := decompose(t, vals, 9)
	cands := SelectApprox(col, col.Relax(100, 40000))
	phaseA := slices.Clone(cands.IDs())
	cands.Split()
	if err := SelectRefine(par.P{}, col, nil, 100, 40000, cands); err != nil {
		t.Fatal(err)
	}
	if cands.Len() == len(phaseA) {
		t.Fatal("test needs false positives to be meaningful")
	}
	// What phase A built — the ids, the split — is built again from the
	// narrower mask.
	codes := ProjectApprox(col, nil, cands).Codes()
	sure, unsure := cands.Split()
	if len(codes) != cands.Len() || sure == nil || sure.Len()+unsure.Len() != cands.Len() {
		t.Fatalf("%d candidates, %d codes, split %v", cands.Len(), len(codes), sure != nil)
	}
	checkCertain(t, "refined", cands)
	for i, id := range cands.IDs() {
		if codes[i] != col.Approx.Get(int(id)) {
			t.Fatalf("candidate %d (row %d): code %d", i, id, codes[i])
		}
	}

	// The refined ids must be a subsequence of the phase-A ids.
	j := 0
	for _, id := range cands.IDs() {
		for j < len(phaseA) && phaseA[j] != id {
			j++
		}
		if j == len(phaseA) {
			t.Fatal("refined output is not an order-preserving subset of candidates")
		}
		j++
	}
}

func TestSelectApproxOverConjunction(t *testing.T) {
	// Two columns, conjunctive range predicates — the spatial query shape.
	n := 20000
	a := shuffledInts(n, 4)
	b := shuffledInts(n, 5)
	colA := decompose(t, a, 8)
	colB := decompose(t, b, 8)

	c1 := SelectApprox(colA, colA.Relax(1000, 5000))
	r2 := SelectApproxOver(colB, nil, colB.Relax(2000, 9000), c1)
	projB := ProjectApprox(colB, nil, r2)
	for _, f := range []struct {
		col    *bwd.Column
		lo, hi int64
	}{{colA, 1000, 5000}, {colB, 2000, 9000}} {
		if err := SelectRefine(par.P{}, f.col, nil, f.lo, f.hi, r2); err != nil {
			t.Fatal(err)
		}
	}
	valsB, err := ProjectRefine(par.P{}, projB)
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth by row loop: a's rows, then those of them b keeps.
	var want []bat.OID
	for _, id := range rowsIn(a, 1000, 5000) {
		if b[id] >= 2000 && b[id] <= 9000 {
			want = append(want, id)
		}
	}

	if len(r2.IDs()) != len(want) {
		t.Fatalf("conjunction size = %d, want %d", len(r2.IDs()), len(want))
	}
	got := sortedIDs(r2.IDs())
	wantSorted := sortedIDs(want)
	for i := range want {
		if got[i] != wantSorted[i] {
			t.Fatalf("conjunction ids diverge at %d", i)
		}
	}
	for i, id := range r2.IDs() {
		if valsB[i] != b[id] {
			t.Fatalf("exact value mismatch at id %d", id)
		}
	}
}

func TestSelectEmptyRelaxedRange(t *testing.T) {
	vals := shuffledInts(1000, 6)
	col := decompose(t, vals, 8)
	cands := SelectApprox(col, col.Relax(5000, 9000)) // above domain
	if cands.Len() != 0 {
		t.Errorf("empty relaxed range produced %d candidates", cands.Len())
	}
	if err := SelectRefine(par.P{}, col, nil, 5000, 9000, cands); err != nil || len(cands.IDs()) != 0 {
		t.Errorf("refinement of empty candidates left %d, %v", cands.Len(), err)
	}
}

func TestSelectFullyResidentColumnRefinementIsExactPassthrough(t *testing.T) {
	vals := shuffledInts(1000, 7)
	col := decompose(t, vals, 32) // 10 total bits -> fully GPU resident
	if col.Dec.ResBits != 0 {
		t.Fatalf("expected fully resident column, ResBits = %d", col.Dec.ResBits)
	}
	lo, hi := int64(100), int64(300)
	cands := SelectApprox(col, col.Relax(lo, hi))
	want := rowsIn(vals, lo, hi)
	if cands.Len() != len(want) {
		t.Fatalf("fully resident approximation has %d candidates, want exact %d", cands.Len(), len(want))
	}
	if err := SelectRefine(par.P{}, col, nil, lo, hi, cands); err != nil || len(cands.IDs()) != len(want) {
		t.Errorf("refinement changed an already-exact result: %d of %d left, %v", cands.Len(), len(want), err)
	}
}

func TestSelectChargesDevices(t *testing.T) {
	sys := device.PaperSystem()
	m := device.NewMeter(sys)
	vals := shuffledInts(100000, 8)
	col, err := bwd.Decompose(bat.NewDense(vals, bat.Width32), 9, sys)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	cands := SelectApprox(col, col.Relax(0, 10000))
	ChargeSelectApprox(m, cands.Len(), col)
	if m.GPU == 0 {
		t.Error("approximate selection charged no GPU time")
	}
	if m.CPU != 0 {
		t.Error("approximate selection charged CPU time")
	}
	cands.ChargeShip(m)
	if m.PCI == 0 {
		t.Error("shipping candidates charged no PCI time")
	}
	n := cands.Len()
	if err := SelectRefine(par.P{}, col, nil, 0, 10000, cands); err != nil {
		t.Fatal(err)
	}
	ChargeSelectRefine(par.P{}, m, col, false, n, cands.Len())
	if m.CPU == 0 {
		t.Error("refinement charged no CPU time")
	}
}

func TestCertainFlagsBoundaryBuckets(t *testing.T) {
	vals := make([]int64, 1024)
	for i := range vals {
		vals[i] = int64(i)
	}
	col := decompose(t, vals, 6) // 10 bits -> 6/4: bucket size 16
	lo, hi := int64(100), int64(200)
	cands := SelectApprox(col, col.Relax(lo, hi))
	certain := certainOf(cands)
	for _, id := range cands.IDs() {
		v := vals[id]
		bucketLo := v/16 == lo/16
		bucketHi := v/16 == hi/16
		if certain(id) && (bucketLo || bucketHi) {
			t.Fatalf("boundary-bucket candidate %d flagged certain", v)
		}
		if !certain(id) && !bucketLo && !bucketHi {
			t.Fatalf("interior candidate %d flagged uncertain", v)
		}
	}
}

// A refinement walks on the statement's P: cancelled, the selection's and
// the disjunction's walks and the projection's reconstruction return the
// context's error, on one worker and on several.
func TestSelectRefineCancelled(t *testing.T) {
	n := 3*gpuChunk + 100
	col := decompose(t, shuffledInts(n, 9), 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		p := par.P{Workers: workers, Ctx: ctx}
		cands := SelectApprox(col, col.Relax(0, int64(n/2)))
		proj := ProjectApprox(col, nil, cands)
		if err := SelectRefine(p, col, nil, 0, int64(n/2), cands); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: SelectRefine returned %v", workers, err)
		}
		if err := SelectRefineAny(p, []*bwd.Column{col}, []int64{0}, []int64{int64(n / 3)}, cands); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: SelectRefineAny returned %v", workers, err)
		}
		if vals, err := ProjectRefine(p, proj); vals != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: ProjectRefine returned %d values, %v", workers, len(vals), err)
		}
		cands.Release()
	}
}
