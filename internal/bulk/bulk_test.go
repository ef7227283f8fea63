package bulk

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bat"
	"repro/internal/device"
	"repro/internal/par"
)

func TestGroupByDenseFirstAppearance(t *testing.T) {
	var table KeyTable
	table.Reset(1)
	defer table.Release()
	wantIDs := []uint32{0, 1, 0, 2, 1}
	for i, k := range []uint64{7, 3, 7, 9, 3} {
		if id := table.Word(k); id != wantIDs[i] {
			t.Errorf("key %d of row %d numbered %d, want %d", k, i, id, wantIDs[i])
		}
	}
	if table.Len() != 3 || !slices.Equal(table.Keys(), []uint64{7, 3, 9}) {
		t.Fatalf("%d keys %v, want 3: [7 3 9]", table.Len(), table.Keys())
	}
}

// A key table numbers every tuple densely in order of first sight, and a
// number maps back to its key — one word and three, through many doublings
// — as a row loop with a map does.
func TestGroupByPropertyPartition(t *testing.T) {
	f := func(keys []int64, w uint8) bool {
		width := 1 + int(w%3)
		var table KeyTable
		table.Reset(width)
		defer table.Release()
		seen := map[[3]int64]uint32{}
		for i, k := range append(keys, keys...) { // every key met twice
			var tuple [3]int64
			words := make([]uint64, width)
			for c := range words {
				tuple[c] = k >> (8 * c)
				words[c] = uint64(tuple[c])
			}
			want, ok := seen[tuple]
			if !ok {
				want = uint32(len(seen))
				seen[tuple] = want
			}
			id := table.Tuple(words)
			if width == 1 && i%2 == 0 {
				id = table.Word(words[0])
			}
			if id != want || !slices.Equal(table.Keys()[int(id)*width:][:width], words) {
				return false // a number must map back to its key
			}
		}
		return table.Len() == len(seen)
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
	ChargeSelectRange(par.P{}, m, bat.Width32, len(vals), 1001)
	if m.CPU == 0 {
		t.Error("metered ChargeSelectRange charged nothing")
	}
	if m.GPU != 0 || m.PCI != 0 {
		t.Error("CPU operator charged GPU/PCI time")
	}
	before := m.CPU
	ChargeFetch(par.P{}, m, bat.Width32, len(vals), 3)
	if m.CPU <= before {
		t.Error("metered ChargeFetch charged nothing")
	}
}

// TestParallelKernelsMatchSerial asserts byte-identical output between the
// serial top-k kernel and its morsel-parallel form across worker counts and
// morsel sizes, ties included: the order downstream results depend on.
func TestParallelKernelsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 40_000
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(rng.Intn(97))
	}
	less := func(i, j int) bool { return keys[i] < keys[j] }
	ks := []int{1, 10, 97, n}
	var want [][]int
	for _, k := range ks {
		want = append(want, TopK(par.P{}, n, k, less))
	}
	for _, workers := range []int{2, 3, 4, 8} {
		for _, chunk := range []int{0, 1, 97, 4096} {
			p := par.P{Threads: 1, Workers: workers, Chunk: chunk}
			t.Run("", func(t *testing.T) {
				for c, k := range ks {
					if got := TopK(p, n, k, less); !slices.Equal(got, want[c]) {
						t.Fatalf("TopK k=%d on %d workers, morsel %d: differs from the serial kernel", k, workers, chunk)
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
		ChargeGroupBy(p, m, len(keys), 2)
		ChargeTopK(p, m, len(keys), 10, 8)
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

func BenchmarkKeyTable(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	keys := make([]uint64, 1<<20)
	for i := range keys {
		keys[i] = uint64(rng.Intn(1000))
	}
	b.SetBytes(int64(len(keys)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var table KeyTable
		table.Reset(1)
		for _, k := range keys {
			table.Word(k)
		}
		table.Release()
	}
}
