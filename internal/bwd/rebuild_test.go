package bwd_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitpack"
	"repro/internal/bwd"
)

// TestExactlyRebuildsFromTheResidual: the refinement's disjunct — Exactly over
// a decomposition with no tails, which rebuilds a boundary-bucket row's value
// from its code and residual — keeps, row for row, what Exactly over the
// column's exact values keeps: 6 device bits with residual widths 0, 1, 4 and
// 8, and 16 device bits with 1 residual bit over uniform codes, the shape of
// a column no granule bound settles, so that every granule is compared in
// place with both code ranges; ranges whose ends lie on a bucket edge, one
// below and one above it; an empty range and ranges open below and above; a
// mask that starts full and one that starts half empty, walked from scratch
// and narrowed; and the same read through a key with dangling keys and
// deleted dimension rows. A disjunct that judged the code alone would keep
// every row of the boundary buckets and fail.
func TestExactlyRebuildsFromTheResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	const n = 7*bwd.GranuleRows + 23
	for _, w := range []struct{ approx, res uint }{{6, 0}, {6, 1}, {6, 4}, {6, 8}, {16, 1}} {
		codes := make([]uint64, n)
		// The buckets the ranges start and end in: runs of nearby 6-bit codes,
		// so that bounds settle whole granules and parts as well as leave them
		// to the compare, cut at fixed buckets; uniform 16-bit codes, cut at
		// the buckets of rows the column holds.
		var cuts [][2]int64
		if w.approx == 6 {
			for i, c := 0, uint64(0); i < n; i++ {
				if i%40 == 0 {
					c = uint64(rng.Intn(48))
				}
				codes[i] = min(c+uint64(rng.Intn(3)), 63)
			}
			cuts = [][2]int64{{3, 11}, {11, 19}, {20, 28}}
		} else {
			for i := range codes {
				codes[i] = rng.Uint64() & bitpack.Mask(w.approx)
			}
			for range 3 {
				a, b := int64(codes[rng.Intn(n)]), int64(codes[rng.Intn(n)])
				cuts = append(cuts, [2]int64{min(a, b), max(a, b)})
			}
		}
		col, vals := decideColumn(t, rng, w.approx, w.res, codes)
		bucket := int64(1) << w.res
		var ranges [][2]int64
		for _, k := range cuts {
			lo, hi := col.Dec.Base+k[0]*bucket, col.Dec.Base+(k[1]+1)*bucket-1
			for _, dlo := range []int64{0, -1, 1} {
				for _, dhi := range []int64{0, -1, 1} {
					ranges = append(ranges, [2]int64{lo + dlo, hi + dhi})
				}
			}
			ranges = append(ranges, [2]int64{math.MinInt64, hi + 1}, [2]int64{lo - 1, math.MaxInt64})
		}
		ranges = append(ranges, [2]int64{5, 4}, [2]int64{math.MinInt64, math.MaxInt64}, [2]int64{vals[n/2], vals[n/2]})

		// The key: fact row i joins dimension row fks[i], or — every ninth
		// row — no row at all; a third of the dimension rows are deleted.
		fks := make([]int64, 3*n)
		for i := range fks {
			if fks[i] = int64(rng.Intn(n)); i%9 == 4 {
				fks[i] = int64(n + rng.Intn(5))
			}
		}
		key := &bwd.Key{Tails: fks, Len: n}
		deleted := make([]uint64, (n+63)/64)
		for i := range deleted {
			deleted[i] = rng.Uint64() & rng.Uint64()
		}

		for _, vr := range ranges {
			for _, through := range []bool{false, true} {
				rows := n
				got, want := bwd.Exactly(col, nil, vr[0], vr[1]), bwd.Exactly(col, vals, vr[0], vr[1])
				if through {
					rows = len(fks)
					got, want = got.Through(key), want.Through(key)
					got.Deleted, want.Deleted = deleted, deleted
				}
				label := fmt.Sprintf("%d+%d bits, [%d,%d], through a key %v", w.approx, w.res, vr[0], vr[1], through)
				full := make([]uint64, (rows+63)/64)
				for g := range full {
					full[g] = ^uint64(0) >> uint(bwd.GranuleRows-min(bwd.GranuleRows, rows-g*bwd.GranuleRows))
				}
				half := liveWords(rng, rows)
				for name, start := range map[string][]uint64{"full": full, "half empty": half} {
					a, b := slices.Clone(start), slices.Clone(start)
					na, _ := bwd.NarrowGranules([]bwd.Disjunct{got}, a, liveOf(a), 0, rows)
					nb, _ := bwd.NarrowGranules([]bwd.Disjunct{want}, b, liveOf(b), 0, rows)
					if !slices.Equal(a, b) || na != nb {
						t.Fatalf("%s, %s mask narrowed: %d rows rebuilt from the residual, %d from the exact values", label, name, na, nb)
					}
					for i := 0; i < rows && !through; i++ {
						in := start[i/64]>>(i%64)&1 == 1 && vals[i] >= vr[0] && vals[i] <= vr[1]
						if in != (a[i/64]>>(i%64)&1 == 1) {
							t.Fatalf("%s, %s mask: row %d (value %d) kept %v", label, name, i, vals[i], !in)
						}
					}
				}
				a, b := make([]uint64, len(full)), make([]uint64, len(full))
				na, _ := bwd.ScanGranules([]bwd.Disjunct{got}, a, liveOf(a), 0, rows)
				nb, _ := bwd.ScanGranules([]bwd.Disjunct{want}, b, liveOf(b), 0, rows)
				if !slices.Equal(a, b) || na != nb {
					t.Fatalf("%s, walked from scratch: %d rows rebuilt from the residual, %d from the exact values", label, na, nb)
				}
			}
		}
	}
}
