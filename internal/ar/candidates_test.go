package ar

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bat"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/par"
)

// splitIDs lists c's split, the certain set's ids and the uncertain set's,
// in candidate order: every candidate certain when there is no split.
func splitIDs(c *Candidates) (certain, uncertain []bat.OID) {
	sure, unsure := c.Split()
	if sure == nil {
		return c.IDs(), nil
	}
	return sure.IDs(), unsure.IDs()
}

// certainOf reports, per row, whether c's split holds it certain.
func certainOf(c *Candidates) func(r bat.OID) bool {
	sure, _ := splitIDs(c)
	holds := make(map[bat.OID]bool, len(sure))
	for _, id := range sure {
		holds[id] = true
	}
	return func(r bat.OID) bool { return holds[r] }
}

// refCertain is the certain set's definition, for one survivor row: its code
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
	cands := SelectApprox(col, col.Relax(-10000, 10000)) // Full
	certain := certainOf(cands)
	for _, id := range cands.IDs() {
		if !certain(id) {
			t.Fatal("full-range selection cannot produce false positives")
		}
	}
}

func TestCertainResidentAlwaysTrue(t *testing.T) {
	vals := shuffledInts(1000, 92)
	col := decompose(t, vals, 32) // resident: exact codes
	cands := SelectApprox(col, col.Relax(100, 200))
	certain := certainOf(cands)
	for _, id := range cands.IDs() {
		if !certain(id) {
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
	cSplit := SelectApprox(split, split.Relax(0, 99999))
	cSplit.ChargeShip(mSplit)

	// Resident column: only ids cross (nothing to refine, §IV-C).
	resident := decompose(t, vals, 32)
	mRes := device.NewMeter(sys)
	cRes := SelectApprox(resident, resident.Relax(0, 99999))
	cRes.ChargeShip(mRes)

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
	c1 := SelectApprox(colA, colA.Relax(0, 2500))
	c2 := SelectApproxOver(colB, nil, colB.Relax(0, 4000), c1)

	if len(c2.attach) != 2 || c2.attach[0].col != colA || c2.attach[1].col != colB {
		t.Fatal("attachments lost through filtering")
	}
	codesA := ProjectApprox(colA, nil, c2).Codes()
	codesB := ProjectApprox(colB, nil, c2).Codes()
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
	cands := SelectApprox(col, col.Relax(100000, 200000))
	if cands.Len() != 0 {
		t.Fatal("expected empty candidates")
	}
	proj := ProjectApprox(col, nil, cands)
	if len(proj.Codes()) != 0 {
		t.Error("projection over empty candidates not empty")
	}
	if err := SelectRefine(par.P{}, col, nil, 100000, 200000, cands); err != nil || cands.Len() != 0 {
		t.Errorf("refinement of empty candidates: %d candidates, %v", cands.Len(), err)
	}
	if vals2, err := ProjectRefine(par.P{}, proj); err != nil || len(vals2) != 0 {
		t.Errorf("refined projection over empty candidates: %v, %v", vals2, err)
	}
	grouping := GroupApprox([]*bwd.Column{col}, cands)
	if grouping.NGroups != 0 {
		t.Error("grouping of empty candidates has groups")
	}
	iv := CountApprox(cands)
	if iv.Lo != 0 || iv.Hi != 0 {
		t.Errorf("count of empty candidates = %v", iv)
	}
}

// checkCertain holds c's split to refCertain, row by row over every word of
// the survivor mask — a survivor is in the certain set exactly when the
// reference says it is certain, in the uncertain set otherwise, and a row the
// mask dropped in neither — and CountApprox to the certain set's size. It
// returns how many candidates are certain.
func checkCertain(t *testing.T, name string, c *Candidates) int {
	t.Helper()
	sure, unsure := splitIDs(c)
	in := map[bat.OID]int{} // 1: certain, 2: uncertain
	for i, ids := range [][]bat.OID{sure, unsure} {
		for _, id := range ids {
			in[id] += i + 1
		}
	}
	certain := 0
	for r := 0; r < len(c.mask)*64; r++ {
		survives := c.mask[r/64]>>(r%64)&1 == 1
		want := 0
		switch {
		case survives && refCertain(c, r):
			want = 1
			certain++
		case survives:
			want = 2
		}
		if got := in[bat.OID(r)]; got != want {
			t.Fatalf("%s: row %d (survives %v) in split set %d, reference %d", name, r, survives, got, want)
		}
	}
	if iv := CountApprox(c); iv.Lo != int64(certain) || iv.Hi != int64(c.Len()) {
		t.Fatalf("%s: CountApprox = %v, want [%d,%d]", name, iv, certain, c.Len())
	}
	return certain
}

// The split is its per-row definition, row for row, across three
// work-groups: for conjunctions whose interior is empty (a relaxed range one
// or two codes wide) or one code wide (three), a dimension filter read
// through a key, and disjunction groups whose members are full, empty,
// resident and residual — nil exactly when the attachments alone rule every
// false positive out, and what CountApprox counts.
func TestCertainMaskMatchesCertain(t *testing.T) {
	const n = 2*gpuChunk + 100
	vals := shuffledInts(n, 98)
	split, resident := decompose(t, vals, 6), decompose(t, vals, 32)
	_, _, _, selCol, dimCol, key := buildDimData(t, n, 500, 6, 98)
	mid := split.Relax(n/2, n/2)
	narrow := func(d uint64) *Candidates {
		r := bwd.ApproxRange{Lo: mid.Lo, Hi: mid.Lo + d}
		return SelectApproxOver(resident, nil, resident.Relax(0, n-n/8), SelectApprox(split, r))
	}
	keyed := SelectApprox(selCol, selCol.Relax(n/10, n-n/10))
	if _, err := JoinApprox(key, keyed); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		c    *Candidates
		some bool // some candidates certain, some not
	}{
		{"conjunction", SelectApproxOver(resident, nil, resident.Relax(0, n/2), SelectApprox(split, split.Relax(n/10, n-n/10))), true},
		{"one code", narrow(0), false},
		{"two codes", narrow(1), false},
		{"three codes", narrow(2), true},
		{"dimension filter through a key", SelectApproxOver(dimCol, key, dimCol.Relax(2000, 7000), keyed), true},
		{"disjunction", SelectApproxAny([]*bwd.Column{split, resident, split},
			[]bwd.ApproxRange{split.Relax(0, n/3), resident.Relax(n/2, n), {Empty: true}}, 1), true},
		{"full, empty, resident and residual members", SelectApproxAnyOver([]*bwd.Column{split, split, resident, split},
			[]bwd.ApproxRange{{Full: true}, {Empty: true}, resident.Relax(0, n/4), split.Relax(n/2, n)},
			SelectApprox(split, split.Relax(n/10, n-n/10)), 2), true},
	} {
		if len(tc.c.offs) != 3 || tc.c.Len() == 0 {
			t.Fatalf("%s: %d candidates over %d work-groups", tc.name, tc.c.Len(), len(tc.c.offs))
		}
		if sure, _ := tc.c.Split(); sure == nil {
			t.Fatalf("%s: a filter with residual bits has boundary buckets: want a split", tc.name)
		}
		certain := checkCertain(t, tc.name, tc.c)
		if tc.some != (certain > 0 && certain < tc.c.Len()) {
			t.Fatalf("%s: %d of %d certain", tc.name, certain, tc.c.Len())
		}
		tc.c.Release()
	}
	exact := SelectApprox(resident, resident.Relax(100, 200))
	if sure, unsure := exact.Split(); sure != nil || unsure != nil {
		t.Fatal("a resident column's candidates are all certain: no split")
	}
}

// A disjunction whose every member is fully device resident (or spans its
// whole column) is boundary-free like such a conjunct: each candidate
// matched some member's relaxed range and that range was the predicate, so
// the set settles "all certain" from its attachments — no split is built and
// no position is read — whether the group started the set or narrowed it.
// One member with residual bits brings the split back.
func TestCertainMaskNilForResidentDisjunction(t *testing.T) {
	vals := shuffledInts(2*gpuChunk+100, 99)
	split, resident, other := decompose(t, vals, 6), decompose(t, vals, 32), decompose(t, shuffledInts(len(vals), 100), 32)
	n := int64(len(vals))
	cols := []*bwd.Column{resident, other, split}
	rs := []bwd.ApproxRange{resident.Relax(0, n/3), other.Relax(n/2, n), {Full: true}}
	for name, cands := range map[string]*Candidates{
		"scan":     SelectApproxAny(cols[:2], rs[:2], 1),
		"narrowed": SelectApproxAnyOver(cols[:2], rs[:2], SelectApprox(other, other.Relax(0, n-n/10)), 1),
		"full":     SelectApproxAny(cols, rs, 1),
	} {
		if cands.Len() == 0 {
			t.Fatalf("%s: the fixture selects nothing", name)
		}
		if sure, _ := cands.Split(); sure != nil {
			t.Fatalf("%s: a split for a disjunction over resident columns", name)
		}
		if iv := CountApprox(cands); iv.Lo != iv.Hi || iv.Hi != int64(cands.Len()) {
			t.Fatalf("%s: CountApprox = %v, want the point %d", name, iv, cands.Len())
		}
		for r := 0; r < cands.rows; r += 997 {
			if cands.mask[r/64]>>(r%64)&1 == 1 && !refCertain(cands, r) {
				t.Fatalf("%s: row %d uncertain", name, r)
			}
		}
		cands.Release()
	}
	mixed := SelectApproxAny([]*bwd.Column{resident, split}, []bwd.ApproxRange{resident.Relax(0, n/3), split.Relax(n/2, n)}, 1)
	if sure, _ := mixed.Split(); sure == nil {
		t.Fatal("a member with residual bits has boundary buckets: want a split")
	}
}

// Certainty lists nothing: over a residual conjunct, a disjunction group with
// a residual member and a dimension filter read through a key, Split and
// CountApprox narrow a copy of the survivor mask, which the set's own mask
// stays untouched by.
func TestCertainMaskEmitsNothing(t *testing.T) {
	const n = 2*gpuChunk + 100
	split := decompose(t, shuffledInts(n, 101), 6)
	_, _, _, selCol, dimCol, key := buildDimData(t, n, 500, 6, 101)
	c := SelectApprox(selCol, selCol.Relax(n/10, n-n/10))
	c = SelectApproxAnyOver([]*bwd.Column{split, selCol}, []bwd.ApproxRange{split.Relax(0, n/2), selCol.Relax(n/3, n)}, c, 1)
	if _, err := JoinApprox(key, c); err != nil {
		t.Fatal(err)
	}
	c = SelectApproxOver(dimCol, key, dimCol.Relax(2000, 7000), c)
	before, kept := slices.Clone(c.mask), c.Len()
	if sure, _ := c.Split(); sure == nil {
		t.Fatal("fixture: every filter has residual bits, want a split")
	}
	CountApprox(c)
	if !slices.Equal(c.mask, before) || c.Len() != kept {
		t.Fatalf("the split of %d candidates narrowed the set to %d", kept, c.Len())
	}
	checkCertain(t, "residual conjunct, disjunction, dimension filter", c)
	c.Release()
}

// The split partitions the survivor set in its candidate order: the certain
// and the uncertain set, over the set's rows and in its work-groups, hold
// between them every candidate once, each one the set's candidate order
// restricted to its rows — at one work-group and at several, whether or not
// a count built the certain one first. A
// further conjunct narrows the set and drops its split, which is then split
// off the narrower mask.
func TestSplitPartitionsTheSurvivors(t *testing.T) {
	for _, n := range []int{5000, 3*gpuChunk + 100} {
		col := decompose(t, shuffledInts(n, 102), 6)
		for _, countFirst := range []bool{false, true} {
			c := SelectApprox(col, col.Relax(int64(n/10), int64(n-n/10)))
			for step := range 2 {
				label := fmt.Sprintf("%d rows, count first %v, step %d", n, countFirst, step)
				if countFirst {
					CountApprox(c)
				}
				sure, unsure := c.Split()
				if sure == nil || sure.Len() == 0 || unsure.Len() == 0 {
					t.Fatalf("%s: the fixture leaves candidates certain and uncertain", label)
				}
				if sure.Len()+unsure.Len() != c.Len() || sure.WorkGroups() != c.WorkGroups() || unsure.WorkGroups() != c.WorkGroups() {
					t.Fatalf("%s: %d + %d candidates over %d, %d work-groups over %d", label, sure.Len(), unsure.Len(), c.Len(), sure.WorkGroups(), c.WorkGroups())
				}
				if iv := CountApprox(c); iv.Lo != int64(sure.Len()) {
					t.Fatalf("%s: CountApprox = %v, %d certain", label, iv, sure.Len())
				}
				a, b := sure.IDs(), unsure.IDs()
				for _, id := range c.IDs() {
					switch {
					case len(a) > 0 && a[0] == id:
						a = a[1:]
					case len(b) > 0 && b[0] == id:
						b = b[1:]
					default:
						t.Fatalf("%s: candidate %d is next in neither set", label, id)
					}
				}
				if len(a)+len(b) > 0 {
					t.Fatalf("%s: %d ids in the split past the set's", label, len(a)+len(b))
				}
				checkCertain(t, label, c)
				c = SelectApproxOver(col, nil, col.Relax(int64(n/5), int64(n/2)), c)
			}
			c.Release()
		}
	}
}

// Values, walked block by block in candidate order, is a per-row loop over
// IDs: every survivor's value at its row — or, through a key, at the
// dimension position its key joins. A host set's candidate order is row
// order, at morsels of 64 rows and of 100 (rounded up to 128), serially and
// on four workers; a device set's is its permuted work-groups, over three of
// them; blocks of one granule and of several. Empty and full sets, and sets
// probed through a key whose dangling keys and deleted dimension rows the
// probe dropped, read the same way.
func TestValuesMatchesRowOracle(t *testing.T) {
	const n, dimRows, dimBase = 2*gpuChunk + 100, 500, 1000
	rng := rand.New(rand.NewSource(31))
	vals := shuffledInts(n, 31)
	fks, dim := make([]int64, n), make([]int64, dimRows)
	for i := range fks {
		fks[i] = dimBase - 10 + rng.Int63n(dimRows+20) // a few keys without a partner at either end
	}
	for i := range dim {
		dim[i] = rng.Int63n(1 << 20)
	}
	deleted := make([]uint64, (dimRows+63)/64)
	for i := 0; i < dimRows; i += 1 + rng.Intn(20) {
		deleted[i/64] |= 1 << (i % 64)
	}
	col, fkCol := decompose(t, vals, 8), decompose(t, fks, 32)
	hostKey := &bwd.Key{Tails: fks, Base: dimBase, Len: dimRows}
	devKey := &bwd.Key{Col: fkCol, Base: dimBase, Len: dimRows}
	lo, hi := int64(n/5), int64(n/2)
	// rowOrder is the per-row selection: the rows in [lo,hi] whose key joins a
	// live dimension row when probed.
	rowOrder := func(probed bool, all bool) []bat.OID {
		var ids []bat.OID
		for r, v := range vals {
			pos, ok := hostKey.At(r)
			switch {
			case !all && (v < lo || v > hi):
			case probed && (!ok || deleted[pos/64]>>(pos%64)&1 == 1):
			default:
				ids = append(ids, bat.OID(r))
			}
		}
		return ids
	}
	check := func(name string, c *Candidates, key *bwd.Key, want []bat.OID) {
		t.Helper()
		ids := c.IDs()
		if want != nil && !slices.Equal(ids, want) {
			t.Fatalf("%s: %d candidates, the row loop keeps %d (or others, or in another order)", name, len(ids), len(want))
		}
		tails := vals
		if key != nil {
			tails = dim
		}
		for _, span := range []int{1, 3, 16} {
			got := make([]int64, c.Len())
			c.Blocks(0, c.WorkGroups(), span, func(g0, g1, pos, n int) {
				if k := c.Values(tails, key, got[pos:pos+n], g0, g1); k != n {
					t.Fatalf("%s: granules [%d,%d) read %d values for %d survivors", name, g0, g1, k, n)
				}
			})
			if len(got) != len(ids) {
				t.Fatalf("%s: %d values for %d candidates", name, len(got), len(ids))
			}
			for i, id := range ids {
				at := int(id)
				if key != nil {
					at, _ = key.At(at)
				}
				if got[i] != tails[at] {
					t.Fatalf("%s, blocks of %d granules: candidate %d (row %d) read %d, want %d", name, span, i, id, got[i], tails[at])
				}
			}
		}
	}
	for _, p := range []par.P{{Chunk: 64}, {Chunk: 100}, {Chunk: 100, Workers: 4}, {Chunk: 64, Workers: 4}} {
		label := fmt.Sprintf("host set, morsel %d, %d workers", p.Chunk, p.NWorkers())
		c, err := SelectExact(p, n, bwd.Exactly(nil, vals, lo, hi))
		if err != nil {
			t.Fatal(err)
		}
		if chunk := (p.Chunk + 63) / 64 * 64; len(c.offs) != (n+chunk-1)/chunk {
			t.Fatalf("%s: %d work-groups of %d rows", label, len(c.offs), c.chunk)
		}
		check(label, c, nil, rowOrder(false, false))
		if err := c.Narrow(p, hostKey.Joined(deleted)); err != nil {
			t.Fatal(err)
		}
		check(label+", probed", c, hostKey, rowOrder(true, false))
		c.Release()

		empty, err := SelectExact(p, n, bwd.Exactly(nil, vals, n, 2*n))
		if err != nil {
			t.Fatal(err)
		}
		check(label+", empty", empty, nil, []bat.OID{})
		empty.Release()
		full, err := SelectExact(p, n)
		if err != nil {
			t.Fatal(err)
		}
		check(label+", full", full, nil, rowOrder(false, true))
		full.Release()
	}
	c := SelectApprox(col, col.Relax(lo, hi))
	if len(c.offs) != 3 {
		t.Fatalf("device set over %d work-groups", len(c.offs))
	}
	check("device set", c, nil, nil)
	if _, err := JoinApprox(devKey, c); err != nil {
		t.Fatal(err)
	}
	c.MaskOutJoined(devKey, deleted)
	check("device set, probed", c, devKey, nil)
	c.Release()
}
