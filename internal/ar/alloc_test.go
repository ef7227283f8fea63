package ar

import (
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/bwd"
	"repro/internal/mem"
	"repro/internal/par"
)

// The A&R scan hot path — approximate selection, the approximate count and
// the certain mask it builds, refinement, release — and the classic one — the
// host set's exact selection, a gathered column, release — must run at zero
// heap allocations per query in steady state: every buffer they touch cycles
// through the arena, and the set's header through its pool. The guards run the serial morsel path (one worker
// claims every morsel); the parallel path runs the same kernels plus a fixed
// per-query goroutine spawn cost.

type scanFixture struct {
	col    *bwd.Column
	vals   []int64
	rng    bwd.ApproxRange
	lo, hi int64
}

// scanFixtures are the regimes of the granule scan. Shuffled values make
// every granule overlap the range, so each is decoded and its few survivors
// are fetched one by one; clustered (here: ascending) values leave three
// quarters of the granules skipped from their bounds and the rest accepted
// whole and materialised by one decode each; runs of 50–200 rows that start
// at any row (the trips shape) put a run break inside most granules, which
// the two parts of a granule's split settle — a part admitted, a part
// passed over — and only a range that cuts through a run has codes compared.
var scanFixtures = []struct {
	name string
	vals func(n int) []int64
}{
	{"shuffled", func(n int) []int64 { return shuffledInts(n, 7) }},
	{"clustered", func(n int) []int64 {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(i)
		}
		return vals
	}},
	{"runs", func(n int) []int64 {
		rng := rand.New(rand.NewSource(7))
		vals := make([]int64, n)
		for i, at, left := 0, int64(0), 0; i < n; i++ {
			if left == 0 {
				at, left = rng.Int63n(int64(n)), 50+rng.Intn(150)
			}
			at = min(max(at+rng.Int63n(5)-2, 0), int64(n)-1)
			left--
			vals[i] = at
		}
		return vals
	}},
}

func newScanFixture(t testing.TB, vals []int64) *scanFixture {
	n := len(vals)
	col, err := bwd.Decompose(bat.NewDense(vals, bat.Width32), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := int64(n/4), int64(n/2)
	return &scanFixture{col: col, vals: vals, rng: col.Relax(lo, hi), lo: lo, hi: hi}
}

func runARScan(f *scanFixture) {
	cands := SelectApprox(nil, f.col, f.rng)
	CountApprox(nil, cands) // the fixture column keeps residual bits: a certain mask
	if err := SelectRefine(par.P{}, nil, f.col, nil, f.lo, f.hi, cands); err != nil {
		panic(err)
	}
	cands.Release()

	sel, err := SelectExact(par.P{}, len(f.vals), bwd.Exactly(f.col, f.vals, f.lo, f.hi))
	if err != nil {
		panic(err)
	}
	vals := mem.I64.GetN(sel.Len())
	sel.Values(f.vals, nil, vals, 0, (len(f.vals)+bwd.GranuleRows-1)/bwd.GranuleRows)
	mem.I64.Put(vals)
	sel.Release()
}

func TestARScanZeroAlloc(t *testing.T) {
	for _, fx := range scanFixtures {
		t.Run(fx.name, func(t *testing.T) {
			f := newScanFixture(t, fx.vals(50000))
			for i := 0; i < 5; i++ {
				runARScan(f) // warm the arena and the candidate pool
			}
			if n := testing.AllocsPerRun(50, func() { runARScan(f) }); n != 0 {
				if mem.RaceEnabled {
					t.Skipf("%.2f allocs/op under -race (sync.Pool drops Puts); strict guard runs in normal builds", n)
				}
				t.Fatalf("A&R scan allocates %.2f/op in steady state, want 0", n)
			}
		})
	}
}

// BenchmarkHotPathAllocs is the CI smoke target: the bench smoke step runs
// it with -benchtime and asserts 0 allocs/op on every report line, one per
// fixture.
func BenchmarkHotPathAllocs(b *testing.B) {
	for _, fx := range scanFixtures {
		b.Run(fx.name, func(b *testing.B) {
			f := newScanFixture(b, fx.vals(50000))
			for i := 0; i < 5; i++ {
				runARScan(f)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runARScan(f)
			}
		})
	}
}
