package ar

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bat"
	"repro/internal/bitpack"
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
	if err := SelectRefine(par.P{}, nil, selCol, nil, 1000, hi, cands); err != nil {
		t.Fatal(err)
	}
	got, gotKeys, err := GroupRefine(par.P{}, nil, pre)
	if err != nil {
		t.Fatalf("GroupRefine: %v", err)
	}
	if len(gotKeys) != len(cols) || len(got.IDs) != cands.Len() {
		t.Fatalf("grouping covers %d tuples by %d keys, want %d by %d", len(got.IDs), len(gotKeys), cands.Len(), len(cols))
	}
	for i, id := range cands.IDs() {
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
	if err := SelectRefine(par.P{}, nil, selCol, nil, 0, int64(n), cands); err != nil {
		t.Fatal(err)
	}
	got, gotKeys, err := GroupRefine(par.P{}, nil, grouping)
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
			bare, listed := device.NewMeter(sys), SelectApprox(nil, keyCol, keyCol.Relax(0, 6))
			GroupApprox(bare, tc.cols, listed)
			if m.GPU != bare.GPU || m.GPU <= projected.GPU {
				t.Fatalf("charged %v by mask, %v listed, of which projections %v", m, bare, projected)
			}
			for k, col := range tc.cols {
				codes := ProjectApprox(nil, col, nil, cands).Codes()
				for i := range cands.IDs() {
					if g.Codes[k][g.IDs[i]] != codes[i] {
						t.Fatalf("column %d: grouping codes diverge from the candidates' codes", k)
					}
				}
			}
		})
	}
}

// GroupApprox over a set — key columns decoded by granule — and over a second
// scan of the same candidates gives the same group ids, the same groups in
// the same first-appearance order and the same charge, and both are what a
// row-by-row map over the packed key tuples gives: for one and two key columns, resident and decomposed, a key
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
			listed := SelectApprox(nil, sel, r)
			fresh := SelectApprox(nil, sel, r) // no position read yet
			mm, ml := device.NewMeter(sys), device.NewMeter(sys)
			gm, gl := GroupApprox(mm, tc.cols, fresh), GroupApprox(ml, tc.cols, listed)

			// The reference: first-appearance ids over the candidate order.
			seen := map[[2]uint64]uint32{}
			var order [][2]uint64
			for i, id := range listed.IDs() {
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
			if gm.NGroups != len(order) || gl.NGroups != len(order) || len(gm.IDs) != listed.Len() {
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
			listed.Release()
		}
	}
}

// A key whose code tuple spans at most directBits bits goes through the
// direct table, a wider one through the probe alone; either way the ids, the
// group count and the groups' codes are exactly what the hash table assigns
// the candidates' key tuples in candidate order — one column and two, on
// both sides of the limit.
func TestGroupApproxDirectTableMatchesHashTable(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	const n = gpuChunk + 4321
	sel := scanColumn(t, rng, 10, n, "shuffled")
	for _, tc := range []struct {
		name string
		bits []uint
	}{
		{"1 bit", []uint{1}},
		{"3 bits", []uint{3}},
		{"12 bits", []uint{directBits}},
		{"13 bits", []uint{directBits + 1}},
		{"two columns, 2+1 bits", []uint{2, 1}},
		{"two columns, 7+5 bits", []uint{7, 5}},
		{"two columns, 7+6 bits", []uint{7, 6}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cols := make([]*bwd.Column, len(tc.bits))
			for k, bits := range tc.bits {
				cols[k] = scanColumn(t, rng, bits, n, "clustered")
			}
			for _, r := range []bwd.ApproxRange{{Full: true}, {Lo: 100, Hi: 600}} {
				listed := SelectApprox(nil, sel, r)
				fresh := SelectApprox(nil, sel, r)
				byMask, byPos := GroupApprox(nil, cols, fresh), GroupApprox(nil, cols, listed)

				ref := newGroupTable()
				for _, id := range listed.IDs() {
					var key uint64
					for _, col := range cols {
						key = key<<col.Dec.ApproxBits | col.Approx.Get(int(id))
					}
					ref.id(key)
				}
				for name, g := range map[string]*Grouping{"fresh": byMask, "listed": byPos} {
					if g.NGroups != len(ref.uniq) || len(g.IDs) != listed.Len() {
						t.Fatalf("%v %s: %d groups over %d candidates, the hash table %d over %d", r, name, g.NGroups, len(g.IDs), len(ref.uniq), listed.Len())
					}
					for i, id := range listed.IDs() {
						var key uint64
						for _, col := range cols {
							key = key<<col.Dec.ApproxBits | col.Approx.Get(int(id))
						}
						if want := ref.id(key); g.IDs[i] != want {
							t.Fatalf("%v %s: candidate %d in group %d, the hash table's %d", r, name, i, g.IDs[i], want)
						}
					}
					for gi, key := range ref.uniq {
						shift := uint(0)
						for k := len(cols) - 1; k >= 0; k-- {
							if want := key >> shift & bitpack.Mask(cols[k].Dec.ApproxBits); g.Codes[k][gi] != want {
								t.Fatalf("%v %s: group %d column %d has code %d, the hash table's %d", r, name, gi, k, g.Codes[k][gi], want)
							}
							shift += cols[k].Dec.ApproxBits
						}
					}
				}
				byMask.Release()
				byPos.Release()
				fresh.Release()
				listed.Release()
			}
		})
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

// codeColumn builds a fully resident column whose approximation codes are
// codes, each width bits wide.
func codeColumn(t *testing.T, width uint, codes []uint64) *bwd.Column {
	t.Helper()
	dec := bwd.Decomposition{TotalBits: width, ApproxBits: width, Width: 8}
	col, err := bwd.Restore(dec, bitpack.Pack(width, codes), bitpack.New(0, len(codes)), nil)
	if err != nil {
		t.Fatal(err)
	}
	return col
}

// TestGroupApproxOrderedMergeAcrossCores: on any number of host cores a key of
// at most directBits bits is grouped per work-group, each in its own
// first-appearance order, and merged in candidate order. Over seven
// work-groups that each hold a different half of the keys, in an order of
// their own, the ids, the group count and the groups' codes must be exactly
// what a serial lookup in candidate order assigns — for 1-, 3-, 7- and
// 12-bit keys, a two-column key and a 13-bit key (one loop over the
// candidates, through the hash table), under one,
// two and four cores, over the whole table, a range that empties the first
// work-group, and one that leaves holes in every work-group.
func TestGroupApproxOrderedMergeAcrossCores(t *testing.T) {
	const groups = 7
	const n = (groups-1)*gpuChunk + 777
	rng := rand.New(rand.NewSource(93))
	// The selection column: work-group w's codes lie in [100w, 100w+100).
	sel := make([]uint64, n)
	for i := range sel {
		sel[i] = uint64(i/gpuChunk*100 + rng.Intn(100))
	}
	selCol := codeColumn(t, 10, sel)
	// keyCodes gives work-group w the keys perm[w..w+size/2) (mod size) of
	// one random permutation, first in that order, then drawn at random.
	keyCodes := func(bits uint) []uint64 {
		size := 1 << bits
		perm := rng.Perm(size)
		half := max(1, size/2)
		codes := make([]uint64, n)
		for i := range codes {
			w, j := i/gpuChunk, i%gpuChunk
			if j >= half {
				j = rng.Intn(half)
			}
			codes[i] = uint64(perm[(w+j)%size])
		}
		return codes
	}
	type keyCase struct {
		name string
		cols []*bwd.Column
	}
	var cases []keyCase
	for _, bits := range []uint{1, 3, 7, directBits, directBits + 1} {
		cases = append(cases, keyCase{fmt.Sprintf("%d-bit key", bits), []*bwd.Column{codeColumn(t, bits, keyCodes(bits))}})
	}
	joint := keyCodes(5)
	hi, lo := make([]uint64, n), make([]uint64, n)
	for i, key := range joint {
		hi[i], lo[i] = key>>3, key&7
	}
	cases = append(cases, keyCase{"two columns, 2+3 bits", []*bwd.Column{codeColumn(t, 2, hi), codeColumn(t, 3, lo)}})

	windows := make([]bwd.ApproxRange, groups)
	for w := range windows {
		windows[w] = bwd.ApproxRange{Lo: uint64(100*w + 20), Hi: uint64(100*w + 70)}
	}
	selections := []struct {
		name string
		scan func() *Candidates
	}{
		{"every row", func() *Candidates { return SelectApprox(nil, selCol, bwd.ApproxRange{Full: true}) }},
		{"the first work-group empty", func() *Candidates { return SelectApprox(nil, selCol, bwd.ApproxRange{Lo: 100, Hi: 650}) }},
		{"holes in every work-group", func() *Candidates {
			return SelectApproxAny(nil, slices.Repeat([]*bwd.Column{selCol}, groups), windows, 1)
		}},
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			key := func(id bat.OID) uint64 {
				var k uint64
				for _, col := range tc.cols {
					k = k<<col.Dec.ApproxBits | col.Approx.Get(int(id))
				}
				return k
			}
			// The fixture: no work-group's keys first appear in the order of
			// the one before it.
			var prev []uint64
			for w := 0; w < groups; w++ {
				var firsts []uint64
				seen := map[uint64]bool{}
				for i := w * gpuChunk; i < min(n, (w+1)*gpuChunk); i++ {
					if k := key(bat.OID(i)); !seen[k] {
						seen[k] = true
						firsts = append(firsts, k)
					}
				}
				if slices.Equal(firsts, prev) {
					t.Fatalf("fixture: work-group %d's keys first appear in the order of the one before it", w)
				}
				prev = firsts
			}
			for _, s := range selections {
				listed := s.scan()
				// The serial reference: ids in order of first appearance over
				// the candidates in candidate order.
				ref := map[uint64]uint32{}
				var uniq []uint64
				want := make([]uint32, listed.Len())
				for i, id := range listed.IDs() {
					k := key(id)
					g, ok := ref[k]
					if !ok {
						g = uint32(len(uniq))
						ref[k] = g
						uniq = append(uniq, k)
					}
					want[i] = g
				}
				for _, procs := range []int{1, 2, 4} {
					runtime.GOMAXPROCS(procs)
					fresh := s.scan()
					g := GroupApprox(nil, tc.cols, fresh)
					if g.NGroups != len(uniq) || !slices.Equal(g.IDs, want) {
						t.Fatalf("%s, %d cores: %d groups, want %d; ids equal to the serial lookup's: %v", s.name, procs, g.NGroups, len(uniq), slices.Equal(g.IDs, want))
					}
					for gi, k := range uniq {
						shift := uint(0)
						for c := len(tc.cols) - 1; c >= 0; c-- {
							if code := k >> shift & bitpack.Mask(tc.cols[c].Dec.ApproxBits); g.Codes[c][gi] != code {
								t.Fatalf("%s, %d cores: group %d column %d has code %d, want %d", s.name, procs, gi, c, g.Codes[c][gi], code)
							}
							shift += tc.cols[c].Dec.ApproxBits
						}
					}
					g.Release()
					fresh.Release()
				}
				listed.Release()
			}
		})
	}
}
