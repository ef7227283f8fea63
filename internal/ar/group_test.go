package ar

import (
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/bulk"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/par"
)

func groupKeys(n, groups int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(rng.Intn(groups))
	}
	return out
}

func TestGroupApproxRefineResidentColumn(t *testing.T) {
	// Low-cardinality grouping column, fully device resident after
	// compression — the common case the paper expects (§IV-E).
	n := 20000
	keys := groupKeys(n, 16, 30)
	sel := shuffledInts(n, 31)
	keyCol := decompose(t, keys, 32)
	selCol := decompose(t, sel, 7)

	cands := SelectApprox(nil, selCol, selCol.Relax(1000, 9000))
	grouping := GroupApprox(nil, []*bwd.Column{keyCol}, cands)
	grouping.Ship(nil)
	refined, _ := SelectRefine(par.P{}, nil, selCol, 1000, 9000, cands)
	got, gotKeys, err := GroupRefine(par.P{}, nil, grouping, refined)
	if err != nil {
		t.Fatalf("GroupRefine: %v", err)
	}

	if len(got.IDs) != len(refined.IDs()) {
		t.Fatalf("grouping covers %d tuples, want %d", len(got.IDs), len(refined.IDs()))
	}
	for i, id := range refined.IDs() {
		if gotKeys[0][got.IDs[i]] != keys[id] {
			t.Fatalf("tuple %d grouped under key %d, want %d", id, gotKeys[0][got.IDs[i]], keys[id])
		}
	}
}

func TestGroupRefineDecomposedColumnRegroups(t *testing.T) {
	n := 10000
	keys := groupKeys(n, 1000, 32)
	sel := shuffledInts(n, 33)
	keyCol := decompose(t, keys, 4) // decomposed: approximate groups collide
	selCol := decompose(t, sel, 8)

	cands := SelectApprox(nil, selCol, selCol.Relax(0, 5000))
	grouping := GroupApprox(nil, []*bwd.Column{keyCol}, cands)
	refined, _ := SelectRefine(par.P{}, nil, selCol, 0, 5000, cands)
	got, gotKeys, err := GroupRefine(par.P{}, nil, grouping, refined)
	if err != nil {
		t.Fatalf("GroupRefine: %v", err)
	}
	for i, id := range refined.IDs() {
		if gotKeys[0][got.IDs[i]] != keys[id] {
			t.Fatalf("tuple %d grouped under key %d, want %d", id, gotKeys[0][got.IDs[i]], keys[id])
		}
	}
	// The approximate pre-grouping must have fewer groups than the exact
	// one (codes collide), demonstrating it is genuinely approximate.
	if grouping.NGroups >= got.NGroups {
		t.Errorf("approximate groups %d >= exact groups %d; decomposition had no effect",
			grouping.NGroups, got.NGroups)
	}
}

func TestGroupApproxMatchesBulkOnFullSelection(t *testing.T) {
	n := 5000
	keys := groupKeys(n, 8, 34)
	keyCol := decompose(t, keys, 32)
	selCol := decompose(t, shuffledInts(n, 35), 32)
	cands := SelectApprox(nil, selCol, selCol.Relax(0, int64(n)))
	grouping := GroupApprox(nil, []*bwd.Column{keyCol}, cands)
	refined, _ := SelectRefine(par.P{}, nil, selCol, 0, int64(n), cands)
	got, gotKeys, err := GroupRefine(par.P{}, nil, grouping, refined)
	if err != nil {
		t.Fatalf("GroupRefine: %v", err)
	}

	want, wantKeys := bulk.GroupBy(par.P{}, nil, [][]int64{keys})
	if got.NGroups != want.NGroups {
		t.Fatalf("NGroups = %d, want %d", got.NGroups, want.NGroups)
	}
	// Aggregate counts per key must agree regardless of id order.
	wantCounts := map[int64]int64{}
	for _, g := range want.IDs {
		wantCounts[wantKeys[0][g]]++
	}
	gotCounts := map[int64]int64{}
	for _, g := range got.IDs {
		gotCounts[gotKeys[0][g]]++
	}
	for k, w := range wantCounts {
		if gotCounts[k] != w {
			t.Errorf("count for key %d = %d, want %d", k, gotCounts[k], w)
		}
	}
}

func TestGroupConflictCostDecreasesWithGroups(t *testing.T) {
	sys := device.PaperSystem()
	n := 200000
	sel := shuffledInts(n, 36)
	cost := func(groups int) float64 {
		keys := groupKeys(n, groups, int64(37+groups))
		keyCol, err := bwd.Decompose(bat.NewDense(keys, bat.Width32), 32, nil)
		if err != nil {
			t.Fatalf("Decompose: %v", err)
		}
		selCol, err := bwd.Decompose(bat.NewDense(sel, bat.Width32), 32, nil)
		if err != nil {
			t.Fatalf("Decompose: %v", err)
		}
		m := device.NewMeter(sys)
		cands := SelectApprox(nil, selCol, selCol.Relax(0, int64(n)))
		GroupApprox(m, []*bwd.Column{keyCol}, cands)
		return m.GPU.Seconds()
	}
	t10, t1000 := cost(10), cost(1000)
	if t1000 >= t10 {
		t.Errorf("grouping cost must fall with group count (Fig 8f): 10 groups %.4fs vs 1000 groups %.4fs", t10, t1000)
	}
	if t10/t1000 < 2 {
		t.Errorf("conflict penalty too weak to reproduce Fig 8f: ratio %.2f", t10/t1000)
	}
}

func TestGroupApproxMultiResidentExactPassthrough(t *testing.T) {
	n := 20000
	flags := groupKeys(n, 3, 80)
	status := groupKeys(n, 2, 81)
	sel := shuffledInts(n, 82)
	flagCol := decompose(t, flags, 32)
	statusCol := decompose(t, status, 32)
	selCol := decompose(t, sel, 8)

	cands := SelectApprox(nil, selCol, selCol.Relax(1000, 15000))
	mg := GroupApprox(nil, []*bwd.Column{flagCol, statusCol}, cands)
	if mg.NGroups > 6 {
		t.Fatalf("NGroups = %d, want <= 6 (3 flags x 2 statuses)", mg.NGroups)
	}
	refined, _ := SelectRefine(par.P{}, nil, selCol, 1000, 15000, cands)
	grouping, keys, err := GroupRefine(par.P{}, nil, mg, refined)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 {
		t.Fatalf("expected 2 key columns, got %d", len(keys))
	}
	for i, id := range refined.IDs() {
		g := grouping.IDs[i]
		if keys[0][g] != flags[id] || keys[1][g] != status[id] {
			t.Fatalf("tuple %d grouped under (%d,%d), want (%d,%d)",
				id, keys[0][g], keys[1][g], flags[id], status[id])
		}
	}
}

func TestGroupRefineMultiDecomposedRegroups(t *testing.T) {
	n := 10000
	keys1 := groupKeys(n, 64, 83)
	keys2 := groupKeys(n, 16, 84)
	sel := shuffledInts(n, 85)
	col1 := decompose(t, keys1, 3) // decomposed: approximate codes collide
	col2 := decompose(t, keys2, 2)
	selCol := decompose(t, sel, 8)

	cands := SelectApprox(nil, selCol, selCol.Relax(0, 6000))
	mg := GroupApprox(nil, []*bwd.Column{col1, col2}, cands)
	refined, _ := SelectRefine(par.P{}, nil, selCol, 0, 6000, cands)
	grouping, keys, err := GroupRefine(par.P{}, nil, mg, refined)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range refined.IDs() {
		g := grouping.IDs[i]
		if keys[0][g] != keys1[id] || keys[1][g] != keys2[id] {
			t.Fatalf("tuple %d grouped under (%d,%d), want (%d,%d)",
				id, keys[0][g], keys[1][g], keys1[id], keys2[id])
		}
	}
	// The approximate pre-grouping must be coarser than the exact one.
	if mg.NGroups >= grouping.NGroups {
		t.Errorf("approximate groups %d >= exact groups %d", mg.NGroups, grouping.NGroups)
	}
}

func TestMultiGroupingShipOnce(t *testing.T) {
	sys := device.PaperSystem()
	n := 5000
	keys := groupKeys(n, 4, 86)
	keyCol := decompose(t, keys, 32)
	selCol := decompose(t, shuffledInts(n, 87), 32)
	cands := SelectApprox(nil, selCol, selCol.Relax(0, 2500))
	mg := GroupApprox(nil, []*bwd.Column{keyCol}, cands)
	m := device.NewMeter(sys)
	mg.Ship(m)
	if m.PCI == 0 {
		t.Error("multi-grouping ship charged nothing")
	}
	before := m.PCI
	mg.Ship(m)
	if m.PCI != before {
		t.Error("double ship charged twice")
	}
}

func TestGroupApproxMultiReusesAttachedCodes(t *testing.T) {
	// When the grouping column was already filtered, its codes are
	// attached to the candidates and GroupApprox must not re-project.
	n := 5000
	keys := groupKeys(n, 8, 88)
	keyCol := decompose(t, keys, 32)
	cands := SelectApprox(nil, keyCol, keyCol.Relax(0, 7))
	mg := GroupApprox(nil, []*bwd.Column{keyCol}, cands)
	codes := cands.CodesFor(keyCol)
	for i := range cands.IDs() {
		if mg.Codes[0][mg.IDs[i]] != codes[i] {
			t.Fatal("grouping codes diverge from attached codes")
		}
	}
}

// GroupApprox over a set that still carries its survivor mask — key columns
// decoded by granule — and over the same candidates as a plain id list gives
// the same group ids, the same groups in the same first-appearance order and
// the same charge, and both are what a row-by-row map over the packed key
// tuples gives: for one and two key columns, resident and decomposed, a key
// column the scan already attached, a handful of groups and enough of them
// to grow the grouping table many times over, across several work-groups.
func TestGroupApproxMaskMatchesIDList(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	sys := device.PaperSystem()
	const n = 2*gpuChunk + 1234
	sel := scanColumn(t, rng, 10, n, "shuffled")
	few := scanColumn(t, rng, 2, n, "shuffled")
	wide := splitColumn(t, rng, 40, 5, n, "shuffled") // nearly every row its own group
	mid := splitColumn(t, rng, 7, 3, n, "clustered")
	for _, tc := range []struct {
		name string
		cols []*bwd.Column
	}{
		{"one resident column", []*bwd.Column{few}},
		{"two columns", []*bwd.Column{few, mid}},
		{"the scanned column and another", []*bwd.Column{sel, few}},
		{"many groups", []*bwd.Column{wide}},
		{"many groups, two columns", []*bwd.Column{mid, wide}},
	} {
		for _, r := range []bwd.ApproxRange{{Full: true}, {Lo: 100, Hi: 300}, {Lo: 7, Hi: 7}, {Empty: true}} {
			masked := SelectApprox(nil, sel, r)
			listed := &Candidates{ids: append([]bat.OID{}, masked.IDs()...)}
			if attached := masked.CodesFor(sel); attached != nil {
				listed.attach = []attachment{{col: sel, codes: append([]uint64{}, attached...), rng: r, filtered: true}}
			}
			fresh := SelectApprox(nil, sel, r) // no position read yet: grouped straight from the mask
			mm, ml := device.NewMeter(sys), device.NewMeter(sys)
			gm, gl := GroupApprox(mm, tc.cols, fresh), GroupApprox(ml, tc.cols, listed)

			// The reference: first-appearance ids over the candidate order.
			seen := map[[2]uint64]uint32{}
			var order [][2]uint64
			for i, id := range listed.ids {
				var key [2]uint64
				for k, col := range tc.cols {
					key[k] = col.Approx.Get(int(id))
				}
				g, ok := seen[key]
				if !ok {
					g = uint32(len(order))
					seen[key] = g
					order = append(order, key)
				}
				if gm.IDs[i] != g || gl.IDs[i] != g {
					t.Fatalf("%s %v: candidate %d in group %d by mask, %d by list, want %d", tc.name, r, i, gm.IDs[i], gl.IDs[i], g)
				}
			}
			if gm.NGroups != len(order) || gl.NGroups != len(order) || len(gm.IDs) != len(listed.ids) {
				t.Fatalf("%s %v: %d groups by mask, %d by list, want %d", tc.name, r, gm.NGroups, gl.NGroups, len(order))
			}
			for g, key := range order {
				for k := range tc.cols {
					if gm.Codes[k][g] != key[k] || gl.Codes[k][g] != key[k] {
						t.Fatalf("%s %v: group %d column %d has code %d by mask, %d by list, want %d", tc.name, r, g, k, gm.Codes[k][g], gl.Codes[k][g], key[k])
					}
				}
			}
			if *mm != *ml {
				t.Fatalf("%s %v: charged %v by mask, %v by list", tc.name, r, mm, ml)
			}
			gm.Release()
			gl.Release()
			fresh.Release()
			masked.Release()
		}
	}
}

func TestGroupApproxRejectsKeyWiderThanTableEntry(t *testing.T) {
	// 33 + 32 approximation bits do not fit the 64-bit grouping-table
	// entry; 32 + 32 do.
	spanning := func(bits uint) *bwd.Column {
		vals := make([]int64, 256)
		for i := range vals {
			vals[i] = int64(i) << (bits - 8)
		}
		col, err := bwd.Decompose(bat.NewDense(vals, bat.Width64), bits, nil)
		if err != nil || col.Dec.ApproxBits != bits {
			t.Fatalf("fixture: %v (%v), want %d approximation bits", col.Dec, err, bits)
		}
		return col
	}
	c33, c32 := spanning(33), spanning(32)
	if !GroupKeyFits([]*bwd.Column{c32, c32}) || GroupKeyFits([]*bwd.Column{c33, c32}) {
		t.Fatal("GroupKeyFits: want 32+32 to fit and 33+32 not to")
	}
	cands := SelectApprox(nil, c32, bwd.ApproxRange{Full: true})
	defer func() {
		if recover() == nil {
			t.Error("GroupApprox packed a 65-bit key instead of panicking")
		}
	}()
	GroupApprox(nil, []*bwd.Column{c33, c32}, cands)
}
