package ar

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/bwd"
	"repro/internal/mem"
	"repro/internal/par"
)

// The A&R scan hot path — approximate selection, the approximate count and
// the certain set it splits off, refinement, release — and the classic one — the
// host set's exact selection, a gathered column, release — must run at zero
// heap allocations per query in steady state: every buffer they touch cycles
// through the arena, and the set's header through its pool. The guards run the serial morsel path (one worker
// claims every morsel); the parallel path runs the same kernels plus a fixed
// per-query goroutine spawn cost.

// scanFixture is a selection over one column or two: every conjunct is a
// decomposed column, its values and a range of them.
type scanFixture []conjunct

type conjunct struct {
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
// Each of those selects a quarter of the values at 8 device bits. trips is
// the scan_range statement's two conjuncts: two columns of runs over a wider
// domain at 16 device bits, a 1 % range on each. Its first step settles the
// granule parts the part index finds (bwd.ScanIndexed) instead of walking
// every granule, and its second walks only the set's live granules — in both
// scans, the A&R selection (SelectApproxOver) and the classic one (Narrow).
// TestARScanZeroAlloc checks that the first conjunct of both trips fixtures
// takes the index, so the gate measures that path and its arena scratch
// whatever the index decides for the quarter ranges. The codes of those are
// 8 and 16 bits wide, whose lanes fill words; trips23 is trips at
// scan_range's real width, 23 device bits and no residual, and shuffled12 is
// shuffled at l_shipdate's 12 device bits over 16-bit values, so the gate
// also holds the compare of codes that straddle words — the ranges it
// compiles per walk — to no allocation.
var scanFixtures = []struct {
	name string
	cols []func(n int) []int64
	bits uint
	rng  func(n int64) (lo, hi int64) // the value range selected over n rows
}{
	{"shuffled", []func(int) []int64{func(n int) []int64 { return shuffledInts(n, 7) }}, 8, quarter},
	{"clustered", []func(int) []int64{func(n int) []int64 {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(i)
		}
		return vals
	}}, 8, quarter},
	{"runs", []func(int) []int64{func(n int) []int64 { return runsInts(n, int64(n), 2, 7) }}, 8, quarter},
	{"trips", []func(int) []int64{
		func(n int) []int64 { return runsInts(n, tripsSpan, 20, 7) },
		func(n int) []int64 { return runsInts(n, tripsSpan, 20, 8) },
	}, 16, func(int64) (int64, int64) { return tripsSpan / 2, tripsSpan/2 + tripsSpan/100 }},
	{"trips23", []func(int) []int64{
		func(n int) []int64 { return runsInts(n, 8*tripsSpan, 160, 7) },
		func(n int) []int64 { return runsInts(n, 8*tripsSpan, 160, 8) },
	}, 23, func(int64) (int64, int64) { return 4 * tripsSpan, 4*tripsSpan + 8*tripsSpan/100 }},
	{"shuffled12", []func(int) []int64{func(n int) []int64 { return shuffledInts(n, 9) }}, 12, quarter},
}

// quarter is the range [n/4, n/2] of values in [0, n).
func quarter(n int64) (int64, int64) { return n / 4, n / 2 }

// tripsSpan is the value domain of the trips fixture.
const tripsSpan = 1 << 20

// runsInts draws n values in [0, span) in runs of 50–200 rows, each a drift
// of up to step per row from a start anywhere, from the random source seed.
func runsInts(n int, span, step, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, n)
	for i, at, left := 0, int64(0), 0; i < n; i++ {
		if left == 0 {
			at, left = rng.Int63n(span), 50+rng.Intn(150)
		}
		at = min(max(at+rng.Int63n(2*step+1)-step, 0), span-1)
		left--
		vals[i] = at
	}
	return vals
}

func newScanFixture(t testing.TB, n int, cols []func(int) []int64, bits uint, rng func(int64) (int64, int64)) scanFixture {
	var f scanFixture
	for _, values := range cols {
		vals := values(n)
		col, err := bwd.Decompose(vals, bat.Width32, bits, nil)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := rng(int64(n))
		f = append(f, conjunct{col: col, vals: vals, rng: col.Relax(lo, hi), lo: lo, hi: hi})
	}
	return f
}

func runARScan(f scanFixture) {
	cands := SelectApprox(f[0].col, f[0].rng)
	for _, c := range f[1:] {
		SelectApproxOver(c.col, nil, c.rng, cands)
	}
	CountApprox(cands) // the fixture columns keep residual bits: a certain set
	for _, c := range f {
		if err := SelectRefine(par.P{}, c.col, nil, c.lo, c.hi, cands); err != nil {
			panic(err)
		}
	}
	cands.Release()

	sel, err := SelectExact(par.P{}, len(f[0].vals), bwd.Exactly(f[0].col, f[0].vals, f[0].lo, f[0].hi))
	if err != nil {
		panic(err)
	}
	for _, c := range f[1:] {
		if err := sel.Narrow(par.P{}, bwd.Exactly(c.col, c.vals, c.lo, c.hi)); err != nil {
			panic(err)
		}
	}
	vals := mem.I64.GetN(sel.Len())
	sel.Values(f[0].vals, nil, vals, 0, (len(f[0].vals)+bwd.GranuleRows-1)/bwd.GranuleRows)
	mem.I64.Put(vals)
	sel.Release()
}

func TestARScanZeroAlloc(t *testing.T) {
	for _, fx := range scanFixtures {
		t.Run(fx.name, func(t *testing.T) {
			f := newScanFixture(t, 50000, fx.cols, fx.bits, fx.rng)
			if strings.HasPrefix(fx.name, "trips") && !bwd.Indexed([]bwd.Disjunct{f[0].col.Approximately(f[0].rng)}, granulesTo(len(f[0].vals))) {
				t.Fatal("the first conjunct of trips walks every granule: the gate does not measure the part index")
			}
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
			f := newScanFixture(b, 50000, fx.cols, fx.bits, fx.rng)
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
