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
// pre-group on the device, refine the selection — and holds both to a loop
// over the rows: the pre-grouping's count to the distinct code tuples of the
// phase-A candidates, and it returns the distinct exact key tuples of the
// refined ones, which is what the refined grouping numbers. keyBits
// decomposes the key columns, selBits the selection column (32: resident, so
// nothing is refined away and the pre-grouping passes through as it stands,
// billed as a pass over the candidates).
func groupRefined(t *testing.T, keyVals [][]int64, keyBits []uint, selBits uint, hi int64, seed int64) (*Grouping, int) {
	t.Helper()
	sel := shuffledInts(len(keyVals[0]), seed)
	selCol := decompose(t, sel, selBits)
	cols := make([]*bwd.Column, len(keyVals))
	for k := range cols {
		cols[k] = decompose(t, keyVals[k], keyBits[k])
	}
	cands := SelectApprox(selCol, selCol.Relax(1000, hi))
	pre := GroupApprox(cols, cands)
	codes, exact := map[[2]uint64]bool{}, map[[2]int64]bool{}
	for _, id := range cands.IDs() {
		var code [2]uint64
		for k, col := range cols {
			code[k] = col.Approx.Get(int(id))
		}
		codes[code] = true
	}
	if pre.NGroups != len(codes) || pre.Cands != cands.Len() {
		t.Fatalf("pre-grouping of %d candidates counts %d groups, the row loop %d", pre.Cands, pre.NGroups, len(codes))
	}
	if err := SelectRefine(par.P{}, selCol, nil, 1000, hi, cands); err != nil {
		t.Fatal(err)
	}
	for _, id := range cands.IDs() {
		var key [2]int64
		for k := range cols {
			key[k] = keyVals[k][id]
		}
		exact[key] = true
	}
	if pre.Cands == cands.Len() {
		sys := device.PaperSystem()
		m, pass := device.NewMeter(sys), device.NewMeter(sys)
		ChargeGroupRefine(par.P{}, m, pre, cands.Len())
		pass.CPUWork(1, int64(cands.Len())*8, 0, int64(cands.Len()))
		if exactPre := cols[0].Dec.ResBits == 0 && cols[len(cols)-1].Dec.ResBits == 0; exactPre && *m != *pass {
			t.Fatalf("an exact pre-grouping nothing was refined out of billed %v, want the pass %v", m, pass)
		}
	}
	return pre, len(exact)
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
			if pre.NGroups > tc.most || got != pre.NGroups {
				t.Fatalf("%d pre-groups refine to %d, want the same and at most %d", pre.NGroups, got, tc.most)
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
			if pre.NGroups >= got {
				t.Errorf("approximate groups %d >= exact groups %d; decomposition had no effect", pre.NGroups, got)
			}
			// The refinement of a pre-grouping whose key keeps residual bits
			// rebuilds the keys and regroups them: billed past the pass alone.
			sys := device.PaperSystem()
			m, pass := device.NewMeter(sys), device.NewMeter(sys)
			ChargeGroupRefine(par.P{}, m, pre, pre.Cands)
			pass.CPUWork(1, int64(pre.Cands)*8, 0, int64(pre.Cands))
			if m.CPU <= pass.CPU {
				t.Errorf("regrouping %d candidates billed %v, no more than the pass %v", pre.Cands, m, pass)
			}
		})
	}
}

func TestGroupApproxMatchesBulkOnFullSelection(t *testing.T) {
	n := 5000
	keys := groupKeys(n, 8, 34)
	keyCol := decompose(t, keys, 32)
	selCol := decompose(t, shuffledInts(n, 35), 32)
	cands := SelectApprox(selCol, selCol.Relax(0, int64(n)))
	grouping := GroupApprox([]*bwd.Column{keyCol}, cands)

	// The bulk model's grouping table over the key values, row by row.
	var want bulk.KeyTable
	want.Reset(1)
	defer want.Release()
	for _, k := range keys {
		want.Word(uint64(k))
	}
	if grouping.NGroups != want.Len() || grouping.Cands != n {
		t.Fatalf("NGroups = %d over %d candidates, want %d over %d", grouping.NGroups, grouping.Cands, want.Len(), n)
	}
}

func TestGroupConflictCostDecreasesWithGroups(t *testing.T) {
	sys := device.PaperSystem()
	n := 200000
	sel := shuffledInts(n, 36)
	cost := func(groups int) float64 {
		keys := groupKeys(n, groups, int64(37+groups))
		keyCol, err := bwd.Decompose(keys, bat.Width32, 32, nil)
		if err != nil {
			t.Fatalf("Decompose: %v", err)
		}
		selCol, err := bwd.Decompose(sel, bat.Width32, 32, nil)
		if err != nil {
			t.Fatalf("Decompose: %v", err)
		}
		m := device.NewMeter(sys)
		cands := SelectApprox(selCol, selCol.Relax(0, int64(n)))
		g := GroupApprox([]*bwd.Column{keyCol}, cands)
		ChargeGroupApprox(m, g.Cols, cands, g.NGroups)
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
			cands := SelectApprox(selCol, selCol.Relax(0, 2500))
			g := GroupApprox(tc.cols, cands)
			m, want := device.NewMeter(sys), device.NewMeter(sys)
			g.ChargeShip(m)
			want.Transfer(int64(cands.Len())*4 + int64(g.NGroups*len(tc.cols))*8)
			if m.PCI == 0 || *m != *want {
				t.Errorf("grouping ship charged %v, want %v", m, want)
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
			cands := SelectApprox(keyCol, keyCol.Relax(0, 6))
			m, projected := device.NewMeter(sys), device.NewMeter(sys)
			g := GroupApprox(tc.cols, cands)
			ChargeGroupApprox(m, tc.cols, cands, g.NGroups)
			for _, col := range tc.cols[1:] {
				ChargeProjectApprox(projected, col, cands.Len())
			}
			bare, listed := device.NewMeter(sys), SelectApprox(keyCol, keyCol.Relax(0, 6))
			ChargeGroupApprox(bare, tc.cols, listed, GroupApprox(tc.cols, listed).NGroups)
			if m.GPU != bare.GPU || m.GPU <= projected.GPU {
				t.Fatalf("charged %v by mask, %v listed, of which projections %v", m, bare, projected)
			}
			tuples := map[[2]uint64]bool{}
			codes := make([][]uint64, len(tc.cols))
			for k, col := range tc.cols {
				codes[k] = ProjectApprox(col, nil, cands).Codes()
			}
			for i := range cands.IDs() {
				var tuple [2]uint64
				for k := range tc.cols {
					tuple[k] = codes[k][i]
				}
				tuples[tuple] = true
			}
			if g.NGroups != len(tuples) {
				t.Fatalf("grouped by the attached codes into %d groups, the candidates' codes hold %d", g.NGroups, len(tuples))
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
			listed := SelectApprox(sel, r)
			fresh := SelectApprox(sel, r) // no position read yet
			mm, ml := device.NewMeter(sys), device.NewMeter(sys)
			gm, gl := GroupApprox(tc.cols, fresh), GroupApprox(tc.cols, listed)
			ChargeGroupApprox(mm, tc.cols, fresh, gm.NGroups)
			ChargeGroupApprox(ml, tc.cols, listed, gl.NGroups)

			// The reference: the distinct key tuples of the candidates.
			seen := map[[2]uint64]bool{}
			for _, id := range listed.IDs() {
				var key [2]uint64
				for k, col := range tc.cols {
					key[k] = col.Approx.Get(int(id))
				}
				seen[key] = true
			}
			if gm.NGroups != len(seen) || gl.NGroups != len(seen) || gm.Cands != listed.Len() {
				t.Fatalf("%s %v: %d groups by mask, %d by list, want %d", tc.name, r, gm.NGroups, gl.NGroups, len(seen))
			}
			if *mm != *ml {
				t.Fatalf("%s %v: charged %v by mask, %v by list", tc.name, r, mm, ml)
			}
			fresh.Release()
			listed.Release()
		}
	}
}

// A key whose code tuple spans at most DirectBits bits goes through the
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
		{"12 bits", []uint{DirectBits}},
		{"13 bits", []uint{DirectBits + 1}},
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
				listed := SelectApprox(sel, r)
				fresh := SelectApprox(sel, r)
				byMask, byPos := GroupApprox(cols, fresh), GroupApprox(cols, listed)

				var ref bulk.KeyTable
				ref.Reset(1)
				for _, id := range listed.IDs() {
					var key uint64
					for _, col := range cols {
						key = key<<col.Dec.ApproxBits | col.Approx.Get(int(id))
					}
					ref.Word(key)
				}
				for name, g := range map[string]*Grouping{"fresh": byMask, "listed": byPos} {
					if g.NGroups != ref.Len() || g.Cands != listed.Len() {
						t.Fatalf("%v %s: %d groups over %d candidates, the hash table %d over %d", r, name, g.NGroups, g.Cands, ref.Len(), listed.Len())
					}
				}
				ref.Release()
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
		col, err := bwd.Decompose(vals, bat.Width64, bits, nil)
		if err != nil || col.Dec.ApproxBits != bits {
			t.Fatalf("fixture: %v (%v), want %d approximation bits", col.Dec, err, bits)
		}
		return col
	}
	c33, c32 := spanning(33), spanning(32)
	if !GroupKeyFits([]*bwd.Column{c32, c32}) || GroupKeyFits([]*bwd.Column{c33, c32}) {
		t.Fatal("GroupKeyFits: want 32+32 to fit and 33+32 not to")
	}
	cands := SelectApprox(c32, bwd.ApproxRange{Full: true})
	defer func() {
		if recover() == nil {
			t.Error("GroupApprox packed a 65-bit key instead of panicking")
		}
	}()
	GroupApprox([]*bwd.Column{c33, c32}, cands)
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

// TestGroupApproxOrderedMergeAcrossCores: on any number of host cores a
// grouped fold (internal/plan) walks a set's work-groups in candidate order
// (Order), split into blocks that each number their keys as they first meet
// them, and merges the blocks in block order. Over seven work-groups that
// each hold a different half of the keys, in an order of their own, the keys
// in number order and each one's count must be exactly what a serial lookup
// in candidate order gives (keyedNumbering), and GroupApprox must count as
// many groups — for 1-, 3-, 7- and 12-bit keys, a two-column key and a
// 13-bit key (counted through the hash table), under one, two and four
// cores, over the whole table, a range that empties the first work-group,
// and one that leaves holes in every work-group.
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
	for _, bits := range []uint{1, 3, 7, DirectBits, DirectBits + 1} {
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
		{"every row", func() *Candidates { return SelectApprox(selCol, bwd.ApproxRange{Full: true}) }},
		{"the first work-group empty", func() *Candidates { return SelectApprox(selCol, bwd.ApproxRange{Lo: 100, Hi: 650}) }},
		{"holes in every work-group", func() *Candidates {
			return SelectApproxAny(slices.Repeat([]*bwd.Column{selCol}, groups), windows, 1)
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
				// The serial reference: keys in order of first appearance over
				// the candidates in candidate order, and each one's count.
				ref := map[uint64]int{}
				var uniq []uint64
				var want []int64
				for _, id := range listed.IDs() {
					k := key(id)
					g, ok := ref[k]
					if !ok {
						g = len(uniq)
						ref[k] = g
						uniq, want = append(uniq, k), append(want, 0)
					}
					want[g]++
				}
				for _, procs := range []int{1, 2, 4} {
					runtime.GOMAXPROCS(procs)
					fresh := s.scan()
					g := GroupApprox(tc.cols, fresh)
					keys, counts := keyedNumbering(fresh, tc.cols, procs)
					if g.NGroups != len(uniq) || !slices.Equal(keys, uniq) || !slices.Equal(counts, want) {
						t.Fatalf("%s, %d cores: %d groups, want %d; keys in number order equal the serial lookup's: %v, counts: %v", s.name, procs, g.NGroups, len(uniq), slices.Equal(keys, uniq), slices.Equal(counts, want))
					}
					fresh.Release()
				}
				listed.Release()
			}
		})
	}
}

// keyedNumbering numbers the candidates' key tuples (blockKeys) as a grouped
// fold does: the work-groups in candidate order split into one block per
// worker, each numbering its keys through its own table as it first meets
// them and counting per number, then the blocks' keys entered in block order
// into one more table, their counts merged through it. It returns the keys
// in number order and each one's count.
func keyedNumbering(c *Candidates, cols []*bwd.Column, workers int) (keys []uint64, counts []int64) {
	p := par.P{Threads: 1, Workers: workers, Chunk: 1}
	wg := c.WorkGroups()
	tables, cnts := make([]bulk.KeyTable, p.NBlocks(wg)), make([][]int64, p.NBlocks(wg))
	for b := range tables {
		tables[b].Reset(1)
	}
	par.RunBlocks(p, wg, func(b, u, _ int) {
		ci, buf := c.Order()[u], make([]uint64, 2*keySpan*bwd.GranuleRows)
		c.Blocks(ci, ci+1, keySpan, func(g0, g1, pos, cnt int) {
			for _, key := range blockKeys(c, cols, buf, g0, g1, cnt) {
				if id := int(tables[b].Word(key)); id < len(cnts[b]) {
					cnts[b][id]++
				} else {
					cnts[b] = append(cnts[b], 1)
				}
			}
		})
	})
	var global bulk.KeyTable
	global.Reset(1)
	defer global.Release()
	for b := range tables {
		for l, key := range tables[b].Keys() {
			if g := int(global.Word(key)); g < len(counts) {
				counts[g] += cnts[b][l]
			} else {
				counts = append(counts, cnts[b][l])
			}
		}
		tables[b].Release()
	}
	return slices.Clone(global.Keys()), counts
}
