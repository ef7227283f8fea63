package ar

import (
	"testing"

	"repro/internal/bat"
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
	for i := range cands.IDs {
		if !cands.Certain(i) {
			t.Fatal("full-range selection cannot produce false positives")
		}
	}
}

func TestCertainResidentAlwaysTrue(t *testing.T) {
	vals := shuffledInts(1000, 92)
	col := decompose(t, vals, 32) // resident: exact codes
	cands := SelectApprox(nil, col, col.Relax(100, 200))
	for i := range cands.IDs {
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
	c2 := SelectApproxOver(nil, colB, colB.Relax(0, 4000), c1)

	codesA := c2.CodesFor(colA)
	codesB := c2.CodesFor(colB)
	if codesA == nil || codesB == nil {
		t.Fatal("attachments lost through filtering")
	}
	for i, id := range c2.IDs {
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
	proj := ProjectApprox(nil, col, cands)
	if proj.Len() != 0 {
		t.Error("projection over empty candidates not empty")
	}
	refined, vals2 := SelectRefine(par.P{}, nil, col, 100000, 200000, cands)
	if refined.Len() != 0 || len(vals2) != 0 {
		t.Error("refinement of empty candidates not empty")
	}
	grouping := GroupApprox(nil, col, cands)
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
	if cands.Shipped() {
		t.Error("fresh candidates marked shipped")
	}
	cands.Ship(nil)
	if !cands.Shipped() {
		t.Error("Ship did not mark candidates")
	}
	refined, _ := SelectRefine(par.P{}, nil, col, 0, 500, cands)
	if !refined.Shipped() {
		t.Error("refinement output lives on the host; must stay marked shipped")
	}
	_ = bat.OID(0)
}
