package bulk

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bat"
	"repro/internal/device"
	"repro/internal/par"
)

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

func TestFKIndexAndJoin(t *testing.T) {
	ix := BuildFKIndex([]int64{100, 101, 102, 103, 104})
	if ix == nil {
		t.Fatal("BuildFKIndex returned nil for a valid PK")
	}
	// The join is fk − base: key 103 is position 3, and a key outside
	// [base, base+n) has no partner.
	if base, n := ix.Span(); base != 100 || n != 5 {
		t.Errorf("Span() = (%d, %d), want (100, 5)", base, n)
	}
}

func TestBuildFKIndexRejectsDuplicates(t *testing.T) {
	if ix := BuildFKIndex([]int64{1, 2, 2}); ix != nil {
		t.Error("duplicate keys accepted as PK")
	}
}

func TestBuildFKIndexRejectsSparse(t *testing.T) {
	if ix := BuildFKIndex([]int64{0, 1 << 40}); ix != nil {
		t.Error("extremely sparse domain accepted")
	}
	if ix := BuildFKIndex([]int64{0, 1, 3}); ix != nil {
		t.Error("gapped key accepted")
	}
	if ix := BuildFKIndex(nil); ix != nil {
		t.Error("empty PK accepted")
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
	ChargeSelectRange(par.P{}, m, b, 1001)
	if m.CPU == 0 {
		t.Error("metered ChargeSelectRange charged nothing")
	}
	if m.GPU != 0 || m.PCI != 0 {
		t.Error("CPU operator charged GPU/PCI time")
	}
	before := m.CPU
	ChargeFetch(par.P{}, m, b, 3)
	if m.CPU <= before {
		t.Error("metered ChargeFetch charged nothing")
	}
}

// TestParallelKernelsMatchSerial asserts byte-identical output between the
// serial grouping kernel and its morsel-parallel form across worker counts
// and morsel sizes, including the first-appearance group order that
// downstream results depend on.
func TestParallelKernelsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 40_000
	keys := make([]int64, n)
	keys2 := make([]int64, n)
	for i := range keys {
		keys[i] = int64(rng.Intn(97))
		keys2[i] = int64(rng.Intn(11))
	}
	// One key column and two: the same core.
	groupCols := [][][]int64{{keys}, {keys, keys2}}
	var wantG []*Grouping
	var wantKeys [][][]int64
	for _, cols := range groupCols {
		g, k := GroupBy(par.P{}, nil, cols)
		wantG, wantKeys = append(wantG, g), append(wantKeys, k)
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
			})
		}
	}
}

// TestParallelChargesMatchSerial pins the meter-identity invariant: a
// kernel's simulated charge depends only on the billed thread count, never
// on the worker budget or morsel size.
func TestParallelChargesMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	keys := make([]int64, 50_000)
	for i := range keys {
		keys[i] = int64(rng.Intn(50))
	}
	sys := device.PaperSystem()
	run := func(p par.P) *device.Meter {
		m := device.NewMeter(sys)
		GroupBy(p, m, [][]int64{keys})
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
