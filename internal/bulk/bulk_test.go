package bulk

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bat"
	"repro/internal/device"
	"repro/internal/par"
)

func intsBAT(vals ...int64) *bat.BAT { return bat.NewDense(vals, bat.Width32) }

func TestSelectRange(t *testing.T) {
	b := intsBAT(5, 1, 9, 3, 7, 3)
	got := SelectRange(par.P{}, nil, b, 3, 7)
	want := []bat.OID{0, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSelectRangeEmptyAndAll(t *testing.T) {
	b := intsBAT(1, 2, 3)
	if got := SelectRange(par.P{}, nil, b, 10, 20); len(got) != 0 {
		t.Errorf("empty range returned %v", got)
	}
	if got := SelectRange(par.P{}, nil, b, -100, 100); len(got) != 3 {
		t.Errorf("covering range returned %d ids, want 3", len(got))
	}
}

func TestSelectRangeOrderPreserving(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 10000)
	for i := range vals {
		vals[i] = int64(rng.Intn(1000))
	}
	got := SelectRange(par.P{}, nil, intsBAT(vals...), 100, 500)
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatal("bulk selection must be order-preserving (§IV-A item 2)")
		}
	}
}

func TestSelectOIDsSubsetsCandidates(t *testing.T) {
	b := intsBAT(10, 20, 30, 40, 50)
	cands := []bat.OID{4, 1, 3}
	got := SelectOIDs(par.P{}, nil, b, cands, 20, 40)
	want := []bat.OID{1, 3} // candidate order preserved
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestFetch(t *testing.T) {
	b := intsBAT(100, 200, 300)
	got := Fetch(par.P{}, nil, b, []bat.OID{2, 0})
	if got[0] != 300 || got[1] != 100 {
		t.Errorf("Fetch = %v, want [300 100]", got)
	}
}

func TestGroupByDenseFirstAppearance(t *testing.T) {
	g, keys := GroupBy(par.P{}, nil, [][]int64{{7, 3, 7, 9, 3}})
	if g.NGroups != 3 {
		t.Fatalf("NGroups = %d, want 3", g.NGroups)
	}
	wantIDs := []uint32{0, 1, 0, 2, 1}
	for i, w := range wantIDs {
		if g.IDs[i] != w {
			t.Errorf("IDs[%d] = %d, want %d", i, g.IDs[i], w)
		}
	}
	wantKeys := []int64{7, 3, 9}
	for i, w := range wantKeys {
		if keys[0][i] != w {
			t.Errorf("keys[0][%d] = %d, want %d", i, keys[0][i], w)
		}
	}
}

func TestGroupByPropertyPartition(t *testing.T) {
	f := func(keys []int64) bool {
		g, uniq := GroupBy(par.P{}, nil, [][]int64{keys})
		if len(g.IDs) != len(keys) {
			return false
		}
		for i, k := range keys {
			if uniq[0][g.IDs[i]] != k {
				return false // group id must map back to the original key
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCombineSplitKeys(t *testing.T) {
	a := []int64{1, 2, 0}
	b := []int64{5, 0, 9}
	combined, err := CombineKeys(a, b, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		ga, gb := SplitKey(combined[i], 10)
		if ga != a[i] || gb != b[i] {
			t.Errorf("SplitKey(%d) = (%d,%d), want (%d,%d)", combined[i], ga, gb, a[i], b[i])
		}
	}
}

// TestCombineSplitKeysNegative is the regression for the truncating-division
// split: combined keys with a negative high part round-trip exactly, and
// grouping on a combined column with negative values produces the same
// partition as grouping on the tuple directly.
func TestCombineSplitKeysNegative(t *testing.T) {
	a := []int64{-1, -3, 0, -1, 7, math.MinInt64 / 10, (math.MaxInt64 - 9) / 10}
	b := []int64{2, 0, 9, 2, 5, 3, 9}
	combined, err := CombineKeys(a, b, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		ga, gb := SplitKey(combined[i], 10)
		if ga != a[i] || gb != b[i] {
			t.Errorf("SplitKey(%d) = (%d,%d), want (%d,%d)", combined[i], ga, gb, a[i], b[i])
		}
	}
	// Grouping on the combined key must partition identically to grouping
	// on the (a,b) tuples: equal combined keys iff equal tuples.
	g, _ := GroupBy(par.P{}, nil, [][]int64{combined})
	want, _ := GroupBy(par.P{}, nil, [][]int64{a, b})
	if g.NGroups != want.NGroups {
		t.Fatalf("combined-key grouping found %d groups, tuple grouping %d", g.NGroups, want.NGroups)
	}
	for i := range g.IDs {
		if g.IDs[i] != want.IDs[i] {
			t.Fatalf("IDs[%d] = %d, tuple grouping says %d", i, g.IDs[i], want.IDs[i])
		}
	}
}

// TestCombineKeysRejectsBadDomain covers the validated domain: low-digit
// values outside [0, base) and high parts that would overflow int64.
func TestCombineKeysRejectsBadDomain(t *testing.T) {
	if _, err := CombineKeys([]int64{1}, []int64{10}, 10); err == nil {
		t.Error("b value == base accepted")
	}
	if _, err := CombineKeys([]int64{1}, []int64{-1}, 10); err == nil {
		t.Error("negative b value accepted")
	}
	if _, err := CombineKeys([]int64{math.MaxInt64/10 + 1}, []int64{0}, 10); err == nil {
		t.Error("overflowing a value accepted")
	}
	if _, err := CombineKeys([]int64{math.MaxInt64 / 10}, []int64{9}, 10); err == nil {
		t.Error("boundary overflow (a*base+b > MaxInt64) accepted")
	}
	if _, err := CombineKeys([]int64{math.MinInt64/10 - 1}, []int64{0}, 10); err == nil {
		t.Error("negative overflow accepted")
	}
	if _, err := CombineKeys([]int64{1}, []int64{0}, 0); err == nil {
		t.Error("non-positive base accepted")
	}
}

func TestGlobalAggregates(t *testing.T) {
	vals := []int64{3, -1, 7, 0}
	if s := Sum(par.P{}, nil, vals); s != 9 {
		t.Errorf("Sum = %d, want 9", s)
	}
	if lo, ok := Min(par.P{}, nil, vals); !ok || lo != -1 {
		t.Errorf("Min = %d,%v, want -1,true", lo, ok)
	}
	if hi, ok := Max(par.P{}, nil, vals); !ok || hi != 7 {
		t.Errorf("Max = %d,%v, want 7,true", hi, ok)
	}
	if _, ok := Min(par.P{}, nil, nil); ok {
		t.Error("Min on empty input reported ok")
	}
	if _, ok := Max(par.P{}, nil, nil); ok {
		t.Error("Max on empty input reported ok")
	}
}

func TestHashJoinMatchesNestedLoop(t *testing.T) {
	f := func(rawL, rawR []uint8) bool {
		left := make([]int64, len(rawL))
		for i, v := range rawL {
			left[i] = int64(v % 16)
		}
		right := make([]int64, len(rawR))
		for i, v := range rawR {
			right[i] = int64(v % 16)
		}
		lids, rids := HashJoin(nil, 1, left, right)
		if len(lids) != len(rids) {
			return false
		}
		// Count matches both ways.
		want := 0
		for _, l := range left {
			for _, r := range right {
				if l == r {
					want++
				}
			}
		}
		if len(lids) != want {
			return false
		}
		for i := range lids {
			if left[lids[i]] != right[rids[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFKIndexAndJoin(t *testing.T) {
	pk := []int64{100, 101, 102, 103, 104}
	ix := BuildFKIndex(nil, 1, pk)
	if ix == nil {
		t.Fatal("BuildFKIndex returned nil for a valid PK")
	}
	fks := []int64{103, 100, 999, 104}
	pos, hit := FKJoin(par.P{}, nil, ix, fks)
	wantPos := []bat.OID{3, 0, 0, 4}
	wantHit := []bool{true, true, false, true}
	for i := range fks {
		if hit[i] != wantHit[i] {
			t.Errorf("hit[%d] = %v, want %v", i, hit[i], wantHit[i])
		}
		if hit[i] && pos[i] != wantPos[i] {
			t.Errorf("pos[%d] = %d, want %d", i, pos[i], wantPos[i])
		}
	}
}

func TestBuildFKIndexRejectsDuplicates(t *testing.T) {
	if ix := BuildFKIndex(nil, 1, []int64{1, 2, 2}); ix != nil {
		t.Error("duplicate keys accepted as PK")
	}
}

func TestBuildFKIndexRejectsSparse(t *testing.T) {
	if ix := BuildFKIndex(nil, 1, []int64{0, 1 << 40}); ix != nil {
		t.Error("extremely sparse domain accepted")
	}
	if ix := BuildFKIndex(nil, 1, nil); ix != nil {
		t.Error("empty PK accepted")
	}
}

func TestArithMaps(t *testing.T) {
	a := []int64{100, 200}
	b := []int64{5, 10}
	if got := MapAdd(par.P{}, nil, a, b); got[0] != 105 || got[1] != 210 {
		t.Errorf("MapAdd = %v", got)
	}
	if got := MapSub(par.P{}, nil, a, b); got[0] != 95 || got[1] != 190 {
		t.Errorf("MapSub = %v", got)
	}
	// Fixed-point: 1.00 * 0.05 at scale 100 = 0.05.
	if got := MapMulScaled(par.P{}, nil, []int64{100}, []int64{5}, 100); got[0] != 5 {
		t.Errorf("MapMulScaled = %v, want [5]", got)
	}
}

func TestMeteredOperatorsCharge(t *testing.T) {
	sys := device.PaperSystem()
	m := device.NewMeter(sys)
	vals := make([]int64, 100000)
	for i := range vals {
		vals[i] = int64(i)
	}
	b := bat.NewDense(vals, bat.Width32)
	SelectRange(par.P{}, m, b, 0, 1000)
	if m.CPU == 0 {
		t.Error("metered SelectRange charged nothing")
	}
	if m.GPU != 0 || m.PCI != 0 {
		t.Error("CPU operator charged GPU/PCI time")
	}
	before := m.CPU
	Fetch(par.P{}, m, b, []bat.OID{1, 2, 3})
	if m.CPU <= before {
		t.Error("metered Fetch charged nothing")
	}
}

// TestParallelKernelsMatchSerial asserts byte-identical output between the
// serial kernels and their morsel-parallel forms across worker counts and
// morsel sizes, including the first-appearance group order that downstream
// results depend on.
func TestParallelKernelsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 40_000
	vals := make([]int64, n)
	keys := make([]int64, n)
	keys2 := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(100_000)) - 50_000
		keys[i] = int64(rng.Intn(97))
		keys2[i] = int64(rng.Intn(11))
	}
	b := bat.NewDense(vals, bat.Width32)
	wantIDs := SelectRange(par.P{}, nil, b, -20_000, 20_000)
	wantFetch := Fetch(par.P{}, nil, b, wantIDs)
	wantSub := SelectOIDs(par.P{}, nil, b, wantIDs, -5_000, 5_000)
	// One key column and two: the same core.
	groupCols := [][][]int64{{keys}, {keys, keys2}}
	var wantG []*Grouping
	var wantKeys [][][]int64
	for _, cols := range groupCols {
		g, k := GroupBy(par.P{}, nil, cols)
		wantG, wantKeys = append(wantG, g), append(wantKeys, k)
	}
	wantSum := Sum(par.P{}, nil, vals)
	wantMin, _ := Min(par.P{}, nil, vals)
	wantMax, _ := Max(par.P{}, nil, vals)

	eqOID := func(t *testing.T, what string, got, want []bat.OID) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: len %d != %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: [%d] = %d, want %d", what, i, got[i], want[i])
			}
		}
	}
	eq64 := func(t *testing.T, what string, got, want []int64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: len %d != %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: [%d] = %d, want %d", what, i, got[i], want[i])
			}
		}
	}
	for _, workers := range []int{2, 3, 4, 8} {
		for _, chunk := range []int{0, 1, 97, 4096} {
			p := par.P{Threads: 1, Workers: workers, Chunk: chunk}
			t.Run("", func(t *testing.T) {
				eqOID(t, "SelectRange", SelectRange(p, nil, b, -20_000, 20_000), wantIDs)
				eq64(t, "Fetch", Fetch(p, nil, b, wantIDs), wantFetch)
				eqOID(t, "SelectOIDs", SelectOIDs(p, nil, b, wantIDs, -5_000, 5_000), wantSub)
				for c, cols := range groupCols {
					g, gotKeys := GroupBy(p, nil, cols)
					if g.NGroups != wantG[c].NGroups {
						t.Fatalf("GroupBy/%d: %d groups, want %d", len(cols), g.NGroups, wantG[c].NGroups)
					}
					for i := range wantG[c].IDs {
						if g.IDs[i] != wantG[c].IDs[i] {
							t.Fatalf("GroupBy/%d IDs[%d] = %d, want %d", len(cols), i, g.IDs[i], wantG[c].IDs[i])
						}
					}
					for k := range wantKeys[c] {
						eq64(t, "GroupBy keys", gotKeys[k], wantKeys[c][k])
					}
				}
				if got := Sum(p, nil, vals); got != wantSum {
					t.Fatalf("Sum = %d, want %d", got, wantSum)
				}
				if got, _ := Min(p, nil, vals); got != wantMin {
					t.Fatalf("Min = %d, want %d", got, wantMin)
				}
				if got, _ := Max(p, nil, vals); got != wantMax {
					t.Fatalf("Max = %d, want %d", got, wantMax)
				}
			})
		}
	}
}

// TestParallelChargesMatchSerial pins the meter-identity invariant: a
// kernel's simulated charge depends only on the billed thread count, never
// on the worker budget or morsel size.
func TestParallelChargesMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	n := 50_000
	vals := make([]int64, n)
	keys := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(1_000_000))
		keys[i] = int64(rng.Intn(50))
	}
	b := bat.NewDense(vals, bat.Width32)
	sys := device.PaperSystem()
	run := func(p par.P) *device.Meter {
		m := device.NewMeter(sys)
		ids := SelectRange(p, m, b, 0, 500_000)
		Fetch(p, m, b, ids)
		GroupBy(p, m, [][]int64{keys})
		Sum(p, m, vals)
		return m
	}
	for _, threads := range []int{1, 4} {
		want := run(par.P{Threads: threads, Workers: 1})
		for _, workers := range []int{2, 8} {
			got := run(par.P{Threads: threads, Workers: workers, Chunk: 777})
			if got.CPU != want.CPU || got.GPU != want.GPU || got.PCI != want.PCI {
				t.Fatalf("threads=%d workers=%d: meter %v != serial %v", threads, workers, got, want)
			}
		}
	}
}

func BenchmarkSelectRange(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	vals := make([]int64, 1<<20)
	for i := range vals {
		vals[i] = int64(rng.Intn(1 << 20))
	}
	bb := bat.NewDense(vals, bat.Width32)
	b.SetBytes(int64(len(vals)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SelectRange(par.P{}, nil, bb, 0, 1<<18)
	}
}

func BenchmarkGroupBy(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	keys := make([]int64, 1<<20)
	for i := range keys {
		keys[i] = int64(rng.Intn(1000))
	}
	b.SetBytes(int64(len(keys)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GroupBy(par.P{}, nil, [][]int64{keys})
	}
}
