package ar

import (
	"testing"

	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/par"
)

func TestCodesForUnknownColumn(t *testing.T) {
	vals := shuffledInts(100, 90)
	colA := decompose(t, vals, 5)
	colB := decompose(t, vals, 5)
	cands := SelectApprox(nil, colA, colA.Relax(0, 50))
	if cands.CodesFor(colB) != nil {
		t.Error("CodesFor returned codes for a column that was never attached")
	}
	if cands.CodesFor(colA) == nil {
		t.Error("CodesFor lost the selection column's codes")
	}
}

func TestCertainWithFullRange(t *testing.T) {
	vals := shuffledInts(1000, 91)
	col := decompose(t, vals, 4)
	cands := SelectApprox(nil, col, col.Relax(-10000, 10000)) // Full
	for i := range cands.IDs() {
		if !cands.Certain(i) {
			t.Fatal("full-range selection cannot produce false positives")
		}
	}
}

func TestCertainResidentAlwaysTrue(t *testing.T) {
	vals := shuffledInts(1000, 92)
	col := decompose(t, vals, 32) // resident: exact codes
	cands := SelectApprox(nil, col, col.Relax(100, 200))
	for i := range cands.IDs() {
		if !cands.Certain(i) {
			t.Fatal("resident column codes are exact; all candidates certain")
		}
	}
}

func TestShipSkipsResidentCodes(t *testing.T) {
	sys := device.PaperSystem()
	vals := shuffledInts(100000, 93)

	// Distributed column: ids + codes cross the bus.
	split := decompose(t, vals, 10)
	mSplit := device.NewMeter(sys)
	cSplit := SelectApprox(nil, split, split.Relax(0, 99999))
	cSplit.Ship(mSplit)

	// Resident column: only ids cross (nothing to refine, §IV-C).
	resident := decompose(t, vals, 32)
	mRes := device.NewMeter(sys)
	cRes := SelectApprox(nil, resident, resident.Relax(0, 99999))
	cRes.Ship(mRes)

	if mRes.PCI >= mSplit.PCI {
		t.Errorf("resident ship (%v) should be cheaper than distributed ship (%v)", mRes.PCI, mSplit.PCI)
	}
	if mRes.PCI == 0 {
		t.Error("ids still have to cross the bus")
	}
}

func TestFilterToPreservesAttachments(t *testing.T) {
	a := shuffledInts(5000, 94)
	b := shuffledInts(5000, 95)
	colA := decompose(t, a, 6)
	colB := decompose(t, b, 6)
	c1 := SelectApprox(nil, colA, colA.Relax(0, 2500))
	c2 := SelectApproxOver(nil, colB, nil, colB.Relax(0, 4000), c1)

	codesA := c2.CodesFor(colA)
	codesB := c2.CodesFor(colB)
	if codesA == nil || codesB == nil {
		t.Fatal("attachments lost through filtering")
	}
	for i, id := range c2.IDs() {
		if codesA[i] != colA.Approx.Get(int(id)) {
			t.Fatalf("column A codes misaligned at %d", i)
		}
		if codesB[i] != colB.Approx.Get(int(id)) {
			t.Fatalf("column B codes misaligned at %d", i)
		}
	}
}

func TestEmptyCandidatesFlow(t *testing.T) {
	vals := shuffledInts(1000, 96)
	col := decompose(t, vals, 8)
	cands := SelectApprox(nil, col, col.Relax(100000, 200000))
	if cands.Len() != 0 {
		t.Fatal("expected empty candidates")
	}
	cands.Ship(nil)
	proj := ProjectApprox(nil, col, nil, cands)
	if len(proj.Codes()) != 0 {
		t.Error("projection over empty candidates not empty")
	}
	if err := SelectRefine(par.P{}, nil, col, nil, 100000, 200000, cands); err != nil || cands.Len() != 0 {
		t.Errorf("refinement of empty candidates: %d candidates, %v", cands.Len(), err)
	}
	if vals2, err := ProjectRefine(par.P{}, nil, proj); err != nil || len(vals2) != 0 {
		t.Errorf("refined projection over empty candidates: %v, %v", vals2, err)
	}
	grouping := GroupApprox(nil, []*bwd.Column{col}, cands)
	if grouping.NGroups != 0 {
		t.Error("grouping of empty candidates has groups")
	}
	iv := CountApprox(nil, cands)
	if iv.Lo != 0 || iv.Hi != 0 {
		t.Errorf("count of empty candidates = %v", iv)
	}
}

func TestShippedFlagPropagation(t *testing.T) {
	vals := shuffledInts(1000, 97)
	col := decompose(t, vals, 8)
	cands := SelectApprox(nil, col, col.Relax(0, 500))
	if cands.shipped {
		t.Error("fresh candidates marked shipped")
	}
	cands.Ship(nil)
	if !cands.shipped {
		t.Error("Ship did not mark candidates")
	}
	if err := SelectRefine(par.P{}, nil, col, nil, 0, 500, cands); err != nil {
		t.Fatal(err)
	}
	if !cands.shipped {
		t.Error("refinement output lives on the host; must stay marked shipped")
	}
}

// CertainMask is Certain, bit for bit — across several work-groups, for a
// conjunction and for a disjunction group — nil exactly when the
// attachments alone rule every false positive out, and what CountApprox
// counts.
func TestCertainMaskMatchesCertain(t *testing.T) {
	vals := shuffledInts(3*gpuChunk+100, 98)
	split, resident := decompose(t, vals, 6), decompose(t, vals, 32)
	n := int64(len(vals))
	and := SelectApproxOver(nil, resident, nil, resident.Relax(0, n/2), SelectApprox(nil, split, split.Relax(n/10, n-n/10)))
	or := SelectApproxAny(nil, []*bwd.Column{split, resident},
		[]bwd.ApproxRange{split.Relax(0, n/3), resident.Relax(n/2, n)}, 1)
	for name, cands := range map[string]*Candidates{"conjunction": and, "disjunction": or} {
		mask := cands.CertainMask()
		if mask == nil || len(mask) != (cands.Len()+63)/64 {
			t.Fatalf("%s: mask of %d words for %d candidates", name, len(mask), cands.Len())
		}
		certain := 0
		for i := 0; i < len(mask)*64; i++ {
			bit := mask[i/64]>>(uint(i)%64)&1 == 1
			if want := i < cands.Len() && cands.Certain(i); bit != want {
				t.Fatalf("%s: mask bit %d = %v, Certain = %v", name, i, bit, want)
			}
			if bit {
				certain++
			}
		}
		if certain == 0 || certain == cands.Len() {
			t.Fatalf("%s: %d of %d certain: the fixture exercises one side only", name, certain, cands.Len())
		}
		if iv := CountApprox(nil, cands); iv.Lo != int64(certain) || iv.Hi != int64(cands.Len()) {
			t.Fatalf("%s: CountApprox = %v, want [%d,%d]", name, iv, certain, cands.Len())
		}
		cands.Release()
	}
	exact := SelectApprox(nil, resident, resident.Relax(100, 200))
	if exact.CertainMask() != nil {
		t.Fatal("a resident column's candidates are all certain: no mask")
	}
}

// A disjunction whose every member is fully device resident (or spans its
// whole column) is boundary-free like such a conjunct: each candidate
// matched some member's relaxed range and that range was the predicate, so
// the set settles "all certain" from its attachments — no mask is built, no
// position is read, and the ids are never emitted — whether the group
// started the set or narrowed it. One member with residual bits brings the
// mask back.
func TestCertainMaskNilForResidentDisjunction(t *testing.T) {
	vals := shuffledInts(2*gpuChunk+100, 99)
	split, resident, other := decompose(t, vals, 6), decompose(t, vals, 32), decompose(t, shuffledInts(len(vals), 100), 32)
	n := int64(len(vals))
	cols := []*bwd.Column{resident, other, split}
	rs := []bwd.ApproxRange{resident.Relax(0, n/3), other.Relax(n/2, n), {Full: true}}
	for name, cands := range map[string]*Candidates{
		"scan":     SelectApproxAny(nil, cols[:2], rs[:2], 1),
		"narrowed": SelectApproxAnyOver(nil, cols[:2], rs[:2], SelectApprox(nil, other, other.Relax(0, n-n/10)), 1),
		"full":     SelectApproxAny(nil, cols, rs, 1),
	} {
		if cands.Len() == 0 {
			t.Fatalf("%s: the fixture selects nothing", name)
		}
		if cands.CertainMask() != nil {
			t.Fatalf("%s: a mask for a disjunction over resident columns", name)
		}
		if iv := CountApprox(nil, cands); iv.Lo != iv.Hi || iv.Hi != int64(cands.Len()) {
			t.Fatalf("%s: CountApprox = %v, want the point %d", name, iv, cands.Len())
		}
		if cands.emitted {
			t.Fatalf("%s: deciding certainty emitted the ids", name)
		}
		for i := 0; i < cands.Len(); i += 997 {
			if !cands.Certain(i) {
				t.Fatalf("%s: candidate %d uncertain", name, i)
			}
		}
		cands.Release()
	}
	mixed := SelectApproxAny(nil, []*bwd.Column{resident, split}, []bwd.ApproxRange{resident.Relax(0, n/3), split.Relax(n/2, n)}, 1)
	if mixed.CertainMask() == nil {
		t.Fatal("a member with residual bits has boundary buckets: want a mask")
	}
}
