package bwd_test

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitpack"
	"repro/internal/bwd"
	"repro/internal/bwd/bwdtest"
)

// The granule decision and the two walks against a row-by-row oracle, over
// granules built to sit on every edge of the split: a run break at every
// row, three runs in one granule, constant, sorted and interleaved rows, a
// split after the first row and before the last, a short last granule split
// and unsplit; approximation widths 1, 24 and 63 with and without residual
// bits, up to a column that spans all 64, and the lane widths 4, 8, 16 and 32
// and the word-cutting 12, whose codes are compared in place several to a
// word or one at a time; ranges that are empty, full, between two runs,
// exactly one run, or cut through one or both, and for the decision alone an
// inner range of no codes inside an outer one of all; and, on the narrowing
// side, live words that are full, sparse and empty. A scan that starts a
// mask runs both as the walk and, where the column has a part index, as the
// index path; every walk must leave the bitmap of its live granules exact.

// layout is the approximation codes of a test column, one or more granules.
type layout struct {
	name  string
	codes []uint64
}

// layouts draws the test columns; runs are around centres spread over the
// code domain.
func layouts(rng *rand.Rand, maxCode uint64) []layout {
	near := func(c uint64) uint64 { // a code within a few steps of centre c
		return min(c-min(c, uint64(rng.Intn(4)))+uint64(rng.Intn(4)), maxCode)
	}
	centre := func() uint64 { return rng.Uint64() & maxCode }
	var out []layout

	var breaks []uint64 // granule k breaks from one run to another at row k
	for k := 0; k < bwd.GranuleRows; k++ {
		a, b := centre(), centre()
		for i := 0; i < bwd.GranuleRows; i++ {
			if i < k {
				breaks = append(breaks, near(a))
			} else {
				breaks = append(breaks, near(b))
			}
		}
	}
	out = append(out, layout{"break at every k", breaks})

	var three []uint64
	for g := 0; g < 8; g++ {
		a, b, c := centre(), centre(), centre()
		cut1 := 1 + rng.Intn(30)
		cut2 := cut1 + 1 + rng.Intn(30)
		for i := 0; i < bwd.GranuleRows; i++ {
			switch {
			case i < cut1:
				three = append(three, near(a))
			case i < cut2:
				three = append(three, near(b))
			default:
				three = append(three, near(c))
			}
		}
	}
	out = append(out, layout{"three runs", three})

	constant := make([]uint64, 3*bwd.GranuleRows+17)
	for i, c := 0, centre(); i < len(constant); i++ {
		constant[i] = c
	}
	out = append(out, layout{"constant, short last granule", constant})

	sorted := make([]uint64, 5*bwd.GranuleRows+1)
	for i := range sorted {
		sorted[i] = centre()
	}
	slices.Sort(sorted)
	out = append(out, layout{"sorted, one-row last granule", sorted})

	var inter []uint64
	for g := 0; g < 6; g++ {
		a, b := centre(), centre()
		for i := 0; i < bwd.GranuleRows-g; i++ { // the last one is short
			if i%2 == 0 {
				inter = append(inter, near(a))
			} else {
				inter = append(inter, near(b))
			}
		}
		if g < 5 {
			for len(inter)%bwd.GranuleRows != 0 {
				inter = append(inter, near(a))
			}
		}
	}
	out = append(out, layout{"two interleaved clusters", inter})

	// Splits at the edges: the first row apart from the rest (K = 1), the
	// last row apart (K = 63), and a short unsplit last granule.
	var edges []uint64
	for _, k := range []int{1, bwd.GranuleRows - 1} {
		a, b := centre(), centre()
		for i := 0; i < bwd.GranuleRows; i++ {
			if i < k {
				edges = append(edges, a)
			} else {
				edges = append(edges, near(b))
			}
		}
	}
	for i, c := 0, centre(); i < 9; i++ {
		edges = append(edges, c)
	}
	out = append(out, layout{"K = 1, K = 63, short unsplit last granule", edges})
	return out
}

// decideColumn builds a column with exactly these codes and random residuals
// through the segment-restore constructor, and returns it with its exact
// values.
func decideColumn(t *testing.T, rng *rand.Rand, approxBits, resBits uint, codes []uint64) (*bwd.Column, []int64) {
	t.Helper()
	res := make([]uint64, len(codes))
	for i := range res {
		res[i] = rng.Uint64() & bitpack.Mask(resBits)
	}
	dec := bwd.Decomposition{Base: -12345, TotalBits: approxBits + resBits, ApproxBits: approxBits, ResBits: resBits, Width: 8}
	if dec.TotalBits == 64 {
		dec.Base = math.MinInt64
	}
	col, err := bwd.Restore(dec, bitpack.Pack(approxBits, codes), bitpack.Pack(resBits, res), nil)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, len(codes))
	for i := range vals {
		vals[i] = col.Reconstruct(i)
	}
	return col, vals
}

// decideRanges returns value ranges to try on col: none, all, and — around
// the parts of a few granules — exactly a part, between two parts, one step
// into and one step short of a part, a single value, a wide interval.
func decideRanges(rng *rand.Rand, col *bwd.Column, vals []int64) [][2]int64 {
	rs := [][2]int64{
		{5, 4},                            // empty as written
		{math.MinInt64, math.MaxInt64},    // full
		{math.MinInt64, col.Dec.Base - 1}, // below the domain (wraps to empty when the base is the minimum)
		{vals[0], vals[0]},
	}
	partVals := func(lo, hi int) (int64, int64) {
		return slices.Min(vals[lo:hi]), slices.Max(vals[lo:hi])
	}
	for trial := 0; trial < 12; trial++ {
		g := rng.Intn(len(col.Splits()))
		lo, hi := g*bwd.GranuleRows, min((g+1)*bwd.GranuleRows, len(vals))
		k := col.Splits()[g].K
		if k == 0 {
			k = (hi - lo) / 2
		}
		if k == 0 {
			continue
		}
		hmin, hmax := partVals(lo, lo+k)
		tmin, tmax := partVals(lo+k, hi)
		rs = append(rs,
			[2]int64{hmin, hmax}, [2]int64{tmin, tmax}, // exactly one part
			[2]int64{min(hmin, tmin), max(hmax, tmax)},         // exactly the granule
			[2]int64{hmin + 1, hmax}, [2]int64{tmin, tmax - 1}, // one value short
			[2]int64{min(hmax, tmax) + 1, max(hmin, tmin) - 1}, // between the parts, if they are apart
			[2]int64{hmin, max(hmax, tmax)},
			[2]int64{hmin + 1, tmax - 1}, [2]int64{tmin + 1, hmax - 1}, // through both parts
		)
	}
	a, b := vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]
	return append(rs, [2]int64{min(a, b), max(a, b)})
}

// liveWords returns the mask to narrow: every row, a sparse draw, a dense
// draw and nothing, granule by granule in turn; no bit past the last row.
func liveWords(rng *rand.Rand, n int) []uint64 {
	mask := make([]uint64, (n+bwd.GranuleRows-1)/bwd.GranuleRows)
	for g := range mask {
		switch g % 4 {
		case 0:
			mask[g] = ^uint64(0)
		case 1:
			mask[g] = rng.Uint64() & rng.Uint64() & rng.Uint64() & rng.Uint64()
		case 2:
			mask[g] = rng.Uint64() | rng.Uint64()
		}
		mask[g] &= ^uint64(0) >> uint(bwd.GranuleRows-min(bwd.GranuleRows, n-g*bwd.GranuleRows))
	}
	return mask
}

func TestDecisionMatchesRowOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	indexed := 0
	for _, w := range []struct{ approx, res uint }{{1, 0}, {1, 5}, {24, 0}, {24, 8}, {63, 0}, {24, 40}, {63, 1},
		{4, 0}, {8, 3}, {12, 0}, {16, 1}, {32, 0}} {
		for _, l := range layouts(rng, bitpack.Mask(w.approx)) {
			label, codes := fmt.Sprintf("%d+%d bits, %s", w.approx, w.res, l.name), l.codes
			col, vals := decideColumn(t, rng, w.approx, w.res, codes)
			bwdtest.CheckGranules(t, label, col)
			n := len(vals)

			for _, vr := range decideRanges(rng, col, vals) {
				relaxed := col.Relax(vr[0], vr[1])
				outer, inner := col.RelaxExact(vr[0], vr[1])
				if outer != relaxed.Codes() {
					t.Fatalf("%s [%d,%d]: outer codes %v are not the relaxed range %+v", label, vr[0], vr[1], outer, relaxed)
				}
				in := func(r bwd.Codes, code uint64) bool { return code >= r.Lo && code <= r.Hi }
				exact := func(i int) bool { return vals[i] >= vr[0] && vals[i] <= vr[1] }
				for i, code := range codes {
					// The two ranges bracket the predicate, code by code.
					if exact(i) && !in(outer, code) || in(inner, code) && !exact(i) || in(inner, code) && !in(outer, code) {
						t.Fatalf("%s [%d,%d]: row %d value %d code %d: outer %v inner %v do not bracket the predicate", label, vr[0], vr[1], i, vals[i], code, outer, inner)
					}
				}

				// The decision, for an exact predicate (outer, inner) and an
				// approximate one (the relaxed range for both).
				live := liveWords(rng, n)
				for g := range live {
					for _, pair := range [][2]bwd.Codes{{outer, inner}, {outer, outer}, {bwd.AllCodes, bwd.NoCodes}} {
						sure, maybe := col.Decide(g, live[g], pair[0], pair[1])
						if sure&maybe != 0 || (sure|maybe)&^live[g] != 0 {
							t.Fatalf("%s [%d,%d] granule %d: sure %x maybe %x of live %x", label, vr[0], vr[1], g, sure, maybe, live[g])
						}
						for w := live[g]; w != 0; w &= w - 1 {
							i := bits.TrailingZeros64(w)
							code := codes[g*bwd.GranuleRows+i]
							switch {
							case sure>>uint(i)&1 == 1 && !in(pair[1], code):
								t.Fatalf("%s [%d,%d] granule %d row %d: sure, but code %d is outside %v", label, vr[0], vr[1], g, i, code, pair[1])
							case (sure|maybe)>>uint(i)&1 == 0 && in(pair[0], code):
								t.Fatalf("%s [%d,%d] granule %d row %d: ruled out, but code %d is inside %v", label, vr[0], vr[1], g, i, code, pair[0])
							}
						}
					}
				}

				// The walks: an exact disjunct with bounds, one without, and
				// the approximate one, starting a mask and narrowing one.
				for _, d := range []struct {
					name string
					d    bwd.Disjunct
					want func(i int) bool
				}{
					{"exact", bwd.Exactly(col, vals, vr[0], vr[1]), exact},
					{"exact, no bounds", bwd.Exactly(nil, vals, vr[0], vr[1]), exact},
					{"approximate", col.Approximately(relaxed), func(i int) bool { return relaxed.Contains(codes[i]) }},
				} {
					for _, walk := range []string{"scan", "narrow", "index"} {
						narrowing := walk == "narrow"
						if walk == "index" && (d.d.Col == nil || !hasIndex(col)) {
							continue
						}
						want := make([]uint64, len(live))
						got := make([]uint64, len(live))
						wantN := 0
						for i := 0; i < n; i++ {
							if (!narrowing || live[i/64]>>uint(i%64)&1 == 1) && d.want(i) {
								want[i/64] |= 1 << uint(i%64)
								wantN++
							}
						}
						var gotN int
						var o bwd.Outcomes
						var bitmap []uint64
						if narrowing {
							copy(got, live)
							bitmap = liveOf(got)
							gotN, o = bwd.NarrowGranules([]bwd.Disjunct{d.d}, got, bitmap, 0, n)
						} else {
							bitmap = make([]uint64, (len(got)+63)/64)
							for g := range got {
								got[g] = rng.Uint64() // a scan overwrites whatever the buffers held
							}
							for g := range got {
								bitmap[g/64] |= rng.Uint64() & 1 << uint(g%64)
							}
							if walk == "index" {
								indexed++
								gotN, o = bwd.ScanIndexed([]bwd.Disjunct{d.d}, got, bitmap, n, bwd.GranuleRows, make([]int, len(got)))
							} else {
								gotN, o = bwd.ScanGranules([]bwd.Disjunct{d.d}, got, bitmap, 0, n)
							}
						}
						if !slices.Equal(got, want) || gotN != wantN {
							t.Fatalf("%s [%d,%d] %s %s: %d rows, the row oracle has %d", label, vr[0], vr[1], d.name, walk, gotN, wantN)
						}
						if !slices.Equal(bitmap, liveOf(got)) {
							t.Fatalf("%s [%d,%d] %s %s: live granules %x, the non-zero words %x", label, vr[0], vr[1], d.name, walk, bitmap, liveOf(got))
						}
						if total := o.Skipped + o.Inside + o.Compared; total != uint64(len(live)) {
							t.Fatalf("%s %s: %d outcomes for %d granules", label, d.name, total, len(live))
						}
					}
				}
			}
		}
	}
	if indexed == 0 {
		t.Fatal("no layout got a part index: the index path was never held to the row oracle")
	}
}

// The property test would pass if the parts were never consulted; pin what
// they buy on a granule that breaks from one run to another at row 20: a
// range that takes the first run and leaves the second, one that falls
// between the two, and one that covers both are all settled without reading
// a row, and a range that cuts through the second run reads that run only.
func TestDecisionSettlesARunBreakFromTheParts(t *testing.T) {
	codes := make([]uint64, bwd.GranuleRows)
	for i := range codes {
		codes[i] = 1000 + uint64(i%5)
		if i >= 20 {
			codes[i] = 9000 + uint64(i%7)
		}
	}
	col, err := bwd.Restore(bwd.Decomposition{TotalBits: 24, ApproxBits: 24, Width: 8}, bitpack.Pack(24, codes), bitpack.New(0, len(codes)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := col.Splits()[0]; s.K != 20 || s.Head != (bwd.Bounds{Min: 1000, Max: 1004}) || s.Tail != (bwd.Bounds{Min: 9000, Max: 9006}) {
		t.Fatalf("split %+v, want the break at row 20", s)
	}
	all := ^uint64(0)
	head := uint64(1)<<20 - 1
	for _, c := range []struct {
		name        string
		r           bwd.Codes
		sure, maybe uint64
	}{
		{"first run only", bwd.Codes{Lo: 900, Hi: 1100}, head, 0},
		{"second run only", bwd.Codes{Lo: 9000, Hi: 9006}, all &^ head, 0},
		{"between the runs", bwd.Codes{Lo: 2000, Hi: 8000}, 0, 0},
		{"both runs", bwd.Codes{Lo: 1000, Hi: 9006}, all, 0},
		{"cuts the second run", bwd.Codes{Lo: 500, Hi: 9003}, head, all &^ head},
		{"cuts both", bwd.Codes{Lo: 1002, Hi: 9003}, 0, all},
	} {
		if sure, maybe := col.Decide(0, all, c.r, c.r); sure != c.sure || maybe != c.maybe {
			t.Errorf("%s: sure %x maybe %x, want %x %x", c.name, sure, maybe, c.sure, c.maybe)
		}
	}
	mask := make([]uint64, 1)
	if n, o := bwd.ScanGranules([]bwd.Disjunct{col.Approximately(bwd.ApproxRange{Lo: 900, Hi: 1100})}, mask, make([]uint64, 1), 0, len(codes)); n != 20 || mask[0] != head || o != (bwd.Outcomes{Inside: 1}) {
		t.Errorf("scan of the first run: %d rows, mask %x, outcomes %+v", n, mask[0], o)
	}
}

// liveOf returns the bitmap of mask's live granules: bit g%64 of word g/64
// set exactly where word g is not zero.
func liveOf(mask []uint64) []uint64 {
	live := make([]uint64, (len(mask)+63)/64)
	for g, w := range mask {
		if w != 0 {
			live[g/64] |= 1 << uint(g%64)
		}
	}
	return live
}
