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

// groupRefined runs the grouping pair over the candidates of one selection —
// pre-group on the device, refine the selection, refine the grouping — and
// checks every surviving tuple against its key values: keyBits decomposes
// the key columns, selBits the selection column (32: resident, so nothing is
// refined away and the pre-grouping passes through as it stands).
func groupRefined(t *testing.T, keyVals [][]int64, keyBits []uint, selBits uint, hi int64, seed int64) (*Grouping, *bulk.Grouping) {
	t.Helper()
	sel := shuffledInts(len(keyVals[0]), seed)
	selCol := decompose(t, sel, selBits)
	cols := make([]*bwd.Column, len(keyVals))
	for k := range cols {
		cols[k] = decompose(t, keyVals[k], keyBits[k])
	}
	cands := SelectApprox(nil, selCol, selCol.Relax(1000, hi))
	pre := GroupApprox(nil, cols, cands)
	pre.Ship(nil)
	refined, _ := SelectRefine(par.P{}, nil, selCol, nil, 1000, hi, cands)
	got, gotKeys, err := GroupRefine(par.P{}, nil, pre, refined)
	if err != nil {
		t.Fatalf("GroupRefine: %v", err)
	}
	if len(gotKeys) != len(cols) || len(got.IDs) != refined.Len() {
		t.Fatalf("grouping covers %d tuples by %d keys, want %d by %d", len(got.IDs), len(gotKeys), refined.Len(), len(cols))
	}
	for i, id := range refined.IDs() {
		for k := range cols {
			if gotKeys[k][got.IDs[i]] != keyVals[k][id] {
				t.Fatalf("tuple %d: key %d is %d, want %d", id, k, gotKeys[k][got.IDs[i]], keyVals[k][id])
			}
		}
	}
	return pre, got
}

func TestGroupApproxRefineResidentColumn(t *testing.T) {
	// Low-cardinality grouping columns, fully device resident after
	// compression — the common case the paper expects (§IV-E) — refined
	// after a selection that drops false positives and after one that
	// cannot (the pre-grouping is then the grouping, ids and all).
	n := 20000
	flags, status := groupKeys(n, 3, 80), groupKeys(n, 2, 81)
	for _, tc := range []struct {
		name    string
		keys    [][]int64
		selBits uint
		most    int
	}{
		{"one column", [][]int64{groupKeys(n, 16, 30)}, 7, 16},
		{"two columns", [][]int64{flags, status}, 8, 6},
		{"one column, nothing refined away", [][]int64{flags}, 32, 3},
		{"two columns, nothing refined away", [][]int64{flags, status}, 32, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pre, got := groupRefined(t, tc.keys, []uint{32, 32}[:len(tc.keys)], tc.selBits, 15000, 82)
			if pre.NGroups > tc.most || got.NGroups != pre.NGroups {
				t.Fatalf("%d pre-groups refine to %d, want the same and at most %d", pre.NGroups, got.NGroups, tc.most)
			}
			if tc.selBits == 32 && pre.IDs != nil {
				t.Fatal("an exact pre-grouping nothing was refined out of kept its ids instead of handing them on")
			}
		})
	}
}

func TestGroupRefineDecomposedColumnRegroups(t *testing.T) {
	// Decomposed key columns: approximate codes collide, so the
	// pre-grouping is coarser than the exact grouping it refines to.
	n := 10000
	for _, tc := range []struct {
		name string
		keys [][]int64
		bits []uint
	}{
		{"one column", [][]int64{groupKeys(n, 1000, 32)}, []uint{4}},
		{"two columns", [][]int64{groupKeys(n, 64, 83), groupKeys(n, 16, 84)}, []uint{3, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pre, got := groupRefined(t, tc.keys, tc.bits, 8, 6000, 85)
			if pre.NGroups >= got.NGroups {
				t.Errorf("approximate groups %d >= exact groups %d; decomposition had no effect", pre.NGroups, got.NGroups)
			}
		})
	}
}

func TestGroupApproxMatchesBulkOnFullSelection(t *testing.T) {
	n := 5000
	keys := groupKeys(n, 8, 34)
	keyCol := decompose(t, keys, 32)
	selCol := decompose(t, shuffledInts(n, 35), 32)
	cands := SelectApprox(nil, selCol, selCol.Relax(0, int64(n)))
	grouping := GroupApprox(nil, []*bwd.Column{keyCol}, cands)
	refined, _ := SelectRefine(par.P{}, nil, selCol, nil, 0, int64(n), cands)
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

func TestGroupingShipOnce(t *testing.T) {
	sys := device.PaperSystem()
	n := 5000
	keys := []*bwd.Column{decompose(t, groupKeys(n, 4, 86), 32), decompose(t, groupKeys(n, 3, 90), 32)}
	selCol := decompose(t, shuffledInts(n, 87), 32)
	for _, tc := range []struct {
		name string
		cols []*bwd.Column
	}{{"one column", keys[:1]}, {"two columns", keys}} {
		t.Run(tc.name, func(t *testing.T) {
			cands := SelectApprox(nil, selCol, selCol.Relax(0, 2500))
			g := GroupApprox(nil, tc.cols, cands)
			m, want := device.NewMeter(sys), device.NewMeter(sys)
			g.Ship(m)
			want.Transfer(int64(cands.Len())*4 + int64(g.NGroups*len(tc.cols))*8)
			if m.PCI == 0 || *m != *want {
				t.Errorf("grouping ship charged %v, want %v", m, want)
			}
			g.Ship(m)
			if *m != *want {
				t.Error("double ship charged twice")
			}
		})
	}
}

func TestGroupApproxReusesAttachedCodes(t *testing.T) {
	// When a grouping column was already filtered, its codes travel with
	// the candidates: GroupApprox groups by them and bills no projection
	// for that column — only for the key column the scan never touched.
	sys := device.PaperSystem()
	n := 5000
	keyCol := decompose(t, groupKeys(n, 8, 88), 32)
	other := decompose(t, groupKeys(n, 5, 91), 32)
	for _, tc := range []struct {
		name string
		cols []*bwd.Column
	}{{"one column", []*bwd.Column{keyCol}}, {"two columns", []*bwd.Column{keyCol, other}}} {
		t.Run(tc.name, func(t *testing.T) {
			cands := SelectApprox(nil, keyCol, keyCol.Relax(0, 6))
			m, projected := device.NewMeter(sys), device.NewMeter(sys)
			g := GroupApprox(m, tc.cols, cands)
			for _, col := range tc.cols[1:] {
				ProjectApprox(projected, col, nil, cands)
			}
			bare := device.NewMeter(sys)
			GroupApprox(bare, tc.cols, &Candidates{ids: cands.IDs(), attach: cands.attach})
			if m.GPU != bare.GPU || m.GPU <= projected.GPU {
				t.Fatalf("charged %v by mask, %v by list, of which projections %v", m, bare, projected)
			}
			for k, col := range tc.cols {
				codes := cands.CodesFor(col)
				if k > 0 {
					codes = ProjectApprox(nil, col, nil, cands).Codes()
				}
				for i := range cands.IDs() {
					if g.Codes[k][g.IDs[i]] != codes[i] {
						t.Fatalf("column %d: grouping codes diverge from the candidates' codes", k)
					}
				}
			}
		})
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
