package ar

import (
	"testing"

	"repro/internal/bat"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/par"
)

// certainAt reports whether the certain mask holds row r; nil holds every
// row.
func certainAt(mask []uint64, r bat.OID) bool {
	return mask == nil || mask[r/64]>>(r%64)&1 == 1
}

// refCertain is the certain mask's definition, for one survivor row: its code
// on every filtered column — a dimension's at the position its key joins — lies
// off the two boundary buckets of that column's relaxed range (always, on a
// resident column or under a full range); for a disjunction group, some
// member's code lies in its range and off its boundaries.
func refCertain(c *Candidates, row int) bool {
	some := map[int]bool{} // per disjunction group: a member certainly holds
	for _, a := range c.attach {
		pos := row
		if a.key != nil {
			pos, _ = a.key.At(row)
		}
		code := a.col.Approx.Get(pos)
		off := a.col.Dec.ResBits == 0 || a.rng.Full || code != a.rng.Lo && code != a.rng.Hi
		switch {
		case a.group != 0:
			some[a.group] = some[a.group] || a.rng.Contains(code) && off
		case !off:
			return false
		}
	}
	for _, ok := range some {
		if !ok {
			return false
		}
	}
	return true
}

func TestCertainWithFullRange(t *testing.T) {
	vals := shuffledInts(1000, 91)
	col := decompose(t, vals, 4)
	cands := SelectApprox(nil, col, col.Relax(-10000, 10000)) // Full
	mask := cands.CertainMask()
	for _, id := range cands.IDs() {
		if !certainAt(mask, id) {
			t.Fatal("full-range selection cannot produce false positives")
		}
	}
}

func TestCertainResidentAlwaysTrue(t *testing.T) {
	vals := shuffledInts(1000, 92)
	col := decompose(t, vals, 32) // resident: exact codes
	cands := SelectApprox(nil, col, col.Relax(100, 200))
	mask := cands.CertainMask()
	for _, id := range cands.IDs() {
		if !certainAt(mask, id) {
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

	if len(c2.attach) != 2 || c2.attach[0].col != colA || c2.attach[1].col != colB {
		t.Fatal("attachments lost through filtering")
	}
	codesA := ProjectApprox(nil, colA, nil, c2).Codes()
	codesB := ProjectApprox(nil, colB, nil, c2).Codes()
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

// checkCertain holds c's certain mask to refCertain, row by row over every
// word of the survivor mask, and CountApprox to its popcount. It returns how
// many candidates are certain.
func checkCertain(t *testing.T, name string, c *Candidates) int {
	t.Helper()
	mask := c.CertainMask()
	if mask != nil && len(mask) != len(c.mask) {
		t.Fatalf("%s: certain mask of %d words over a survivor mask of %d", name, len(mask), len(c.mask))
	}
	certain := 0
	for r := 0; r < len(c.mask)*64; r++ {
		survives := c.mask[r/64]>>(r%64)&1 == 1
		want, got := survives && refCertain(c, r), survives
		if mask != nil {
			got = certainAt(mask, bat.OID(r))
		}
		if got != want {
			t.Fatalf("%s: row %d (survives %v) certain = %v, reference %v", name, r, survives, got, want)
		}
		if want {
			certain++
		}
	}
	if iv := CountApprox(nil, c); iv.Lo != int64(certain) || iv.Hi != int64(c.Len()) {
		t.Fatalf("%s: CountApprox = %v, want [%d,%d]", name, iv, certain, c.Len())
	}
	return certain
}

// The certain mask is its per-row definition, bit for bit, in the survivor
// mask's layout, across three work-groups: for conjunctions whose interior is
// empty (a relaxed range one or two codes wide) or one code wide (three), a
// dimension filter read through a key, and disjunction groups whose members
// are full, empty, resident and residual — nil exactly when the attachments
// alone rule every false positive out, and what CountApprox counts.
func TestCertainMaskMatchesCertain(t *testing.T) {
	const n = 2*gpuChunk + 100
	vals := shuffledInts(n, 98)
	split, resident := decompose(t, vals, 6), decompose(t, vals, 32)
	_, _, _, selCol, dimCol, key := buildDimData(t, n, 500, 6, 98)
	mid := split.Relax(n/2, n/2)
	narrow := func(d uint64) *Candidates {
		r := bwd.ApproxRange{Lo: mid.Lo, Hi: mid.Lo + d}
		return SelectApproxOver(nil, resident, nil, resident.Relax(0, n-n/8), SelectApprox(nil, split, r))
	}
	keyed := SelectApprox(nil, selCol, selCol.Relax(n/10, n-n/10))
	if _, err := JoinApprox(nil, key, keyed); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		c    *Candidates
		some bool // some candidates certain, some not
	}{
		{"conjunction", SelectApproxOver(nil, resident, nil, resident.Relax(0, n/2), SelectApprox(nil, split, split.Relax(n/10, n-n/10))), true},
		{"one code", narrow(0), false},
		{"two codes", narrow(1), false},
		{"three codes", narrow(2), true},
		{"dimension filter through a key", SelectApproxOver(nil, dimCol, key, dimCol.Relax(2000, 7000), keyed), true},
		{"disjunction", SelectApproxAny(nil, []*bwd.Column{split, resident, split},
			[]bwd.ApproxRange{split.Relax(0, n/3), resident.Relax(n/2, n), {Empty: true}}, 1), true},
		{"full, empty, resident and residual members", SelectApproxAnyOver(nil, []*bwd.Column{split, split, resident, split},
			[]bwd.ApproxRange{{Full: true}, {Empty: true}, resident.Relax(0, n/4), split.Relax(n/2, n)},
			SelectApprox(nil, split, split.Relax(n/10, n-n/10)), 2), true},
	} {
		if len(tc.c.offs) != 3 || tc.c.Len() == 0 {
			t.Fatalf("%s: %d candidates over %d work-groups", tc.name, tc.c.Len(), len(tc.c.offs))
		}
		if tc.c.CertainMask() == nil {
			t.Fatalf("%s: a filter with residual bits has boundary buckets: want a mask", tc.name)
		}
		certain := checkCertain(t, tc.name, tc.c)
		if tc.some != (certain > 0 && certain < tc.c.Len()) {
			t.Fatalf("%s: %d of %d certain", tc.name, certain, tc.c.Len())
		}
		tc.c.Release()
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
		for r := 0; r < cands.rows; r += 997 {
			if cands.mask[r/64]>>(r%64)&1 == 1 && !refCertain(cands, r) {
				t.Fatalf("%s: row %d uncertain", name, r)
			}
		}
		cands.Release()
	}
	mixed := SelectApproxAny(nil, []*bwd.Column{resident, split}, []bwd.ApproxRange{resident.Relax(0, n/3), split.Relax(n/2, n)}, 1)
	if mixed.CertainMask() == nil {
		t.Fatal("a member with residual bits has boundary buckets: want a mask")
	}
}

// Certainty lists nothing: over a residual conjunct, a disjunction group with
// a residual member and a dimension filter read through a key, CertainMask and
// CountApprox narrow a copy of the survivor mask, and the set's ids stay
// unemitted.
func TestCertainMaskEmitsNothing(t *testing.T) {
	const n = 2*gpuChunk + 100
	split := decompose(t, shuffledInts(n, 101), 6)
	_, _, _, selCol, dimCol, key := buildDimData(t, n, 500, 6, 101)
	c := SelectApprox(nil, selCol, selCol.Relax(n/10, n-n/10))
	c = SelectApproxAnyOver(nil, []*bwd.Column{split, selCol}, []bwd.ApproxRange{split.Relax(0, n/2), selCol.Relax(n/3, n)}, c, 1)
	if _, err := JoinApprox(nil, key, c); err != nil {
		t.Fatal(err)
	}
	c = SelectApproxOver(nil, dimCol, key, dimCol.Relax(2000, 7000), c)
	if c.CertainMask() == nil {
		t.Fatal("fixture: every filter has residual bits, want a mask")
	}
	CountApprox(nil, c)
	if c.emitted || c.ids != nil {
		t.Fatalf("the certain mask of %d candidates emitted their ids", c.Len())
	}
	checkCertain(t, "residual conjunct, disjunction, dimension filter", c)
	c.Release()
}
