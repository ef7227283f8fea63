package bwd_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bat"
	"repro/internal/bitpack"
	"repro/internal/bwd"
	"repro/internal/bwd/bwdtest"
)

// Both constructors derive the granule bounds and splits, the part index and
// the bucket histogram in one shared pass, so a column rebuilt from its persisted planes must
// summarise exactly like the one Decompose produced, at row counts on and
// around granule and summary-block boundaries and with or without
// residual bits.
func TestGranuleBoundsDecomposeAndRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	indexed := 0
	for _, n := range []int{1, 63, 64, 65, 1000, 64<<10 - 1, 64 << 10, 64<<10 + 1, 150_000} {
		for _, bits := range []uint{3, 11, 40} {
			vals := make([]int64, n)
			at := rng.Int63n(1 << 20)
			for i := range vals {
				if i%90 == 0 {
					at = rng.Int63n(1 << 20) // clustered runs: narrow granules
				}
				at += rng.Int63n(5) - 2
				vals[i] = at - 1<<19
			}
			col, err := bwd.Decompose(vals, bat.Width32, bits, nil)
			if err != nil {
				t.Fatal(err)
			}
			bwdtest.CheckGranules(t, "decompose", col)

			back, err := bwd.Restore(col.Dec, col.Approx.Clone(), col.Residual.Clone(), nil)
			if err != nil {
				t.Fatal(err)
			}
			bwdtest.CheckGranules(t, "restore", back)
			if !slices.Equal(back.Splits(), col.Splits()) {
				t.Fatalf("n=%d bits=%d: restored granule records differ from the decomposed column's", n, bits)
			}
			if hasIndex(back) != hasIndex(col) {
				t.Fatalf("n=%d bits=%d: the restored column has a part index: %v, the decomposed one: %v", n, bits, hasIndex(back), hasIndex(col))
			}
			if hasIndex(col) {
				indexed++
				// The same index reads as many entries for a range, so the
				// two take it alike, and finds the same granules.
				for k := 0; k < 8; k++ {
					lo := rng.Uint64() & col.Dec.MaxApprox()
					r := bwd.ApproxRange{Lo: lo, Hi: min(lo+col.Dec.MaxApprox()>>uint(k), col.Dec.MaxApprox())}
					dc, db := []bwd.Disjunct{col.Approximately(r)}, []bwd.Disjunct{back.Approximately(r)}
					mc, mb := make([]uint64, len(col.Splits())), make([]uint64, len(col.Splits()))
					cc, cb := make([]int, 1), make([]int, 1)
					nc, oc := bwd.ScanIndexed(dc, mc, liveOf(mc), n, len(mc)*bwd.GranuleRows, cc)
					nb, ob := bwd.ScanIndexed(db, mb, liveOf(mb), n, len(mb)*bwd.GranuleRows, cb)
					if bwd.Indexed(dc, len(mc)) != bwd.Indexed(db, len(mb)) || nc != nb || oc != ob || !slices.Equal(mc, mb) {
						t.Fatalf("n=%d bits=%d range %+v: the restored part index decides or finds otherwise than the decomposed column's", n, bits, r)
					}
				}
			}
			if !slices.Equal(back.BucketCounts(), col.BucketCounts()) || back.BucketShift() != col.BucketShift() ||
				back.BucketRows() != int64(n) || col.BucketRows() != int64(n) {
				t.Fatalf("n=%d bits=%d: restored histogram differs from the decomposed column's", n, bits)
			}
		}
	}
	if indexed == 0 {
		t.Fatal("no column got a part index: the comparison of the two constructors' indexes proved nothing")
	}
}

// hasIndex reports whether col has a part index: an empty range reads only
// the wide list, far fewer entries than 2^29 granules' worth, so Indexed
// takes it exactly when there is an index to read.
func hasIndex(col *bwd.Column) bool {
	return bwd.Indexed([]bwd.Disjunct{col.Approximately(bwd.ApproxRange{Empty: true})}, 1<<29)
}

// indexCodes draws n approximation codes of one regime, all within maxCode:
// runs of 50–200 rows drifting slowly from a start anywhere (the trips
// shape, run breaks at any row), clustered (ascending), shuffled, constant,
// and runs packed against the top of the domain.
func indexCodes(rng *rand.Rand, regime string, n int, maxCode uint64) []uint64 {
	codes := make([]uint64, n)
	step := max(maxCode>>12, 1)
	drift := func(at uint64) uint64 {
		return min(at-min(at, uint64(rng.Intn(3))*step)+uint64(rng.Intn(3))*step, maxCode)
	}
	switch regime {
	case "runs", "top":
		at, left := uint64(0), 0
		for i := range codes {
			if left == 0 {
				at, left = rng.Uint64()&maxCode, 50+rng.Intn(150)
				if regime == "top" {
					at = maxCode - min(maxCode, uint64(rng.Intn(4))*step)
				}
			}
			at, left = drift(at), left-1
			codes[i] = at
		}
	case "clustered":
		for i := range codes {
			codes[i] = uint64(i) * (maxCode / uint64(max(n-1, 1)))
		}
	case "shuffled":
		for i := range codes {
			codes[i] = rng.Uint64() & maxCode
		}
	case "constant":
		c := rng.Uint64() & maxCode
		for i := range codes {
			codes[i] = c
		}
	}
	return codes
}

// The part index path is the walk: for every regime, row count, width and
// range the index serves, ScanIndexed leaves the mask words, the
// per-work-group survivor counts, the row count and the outcomes that
// ScanGranules leaves over the same work-groups — for approximate disjuncts
// and exact ones with tails and with a residual (inner ≠ outer), one range
// and the union of two, and work-groups of one granule, of a rounded morsel
// and of 64k rows. A regime with narrow parts must get an index at 150,000
// rows and take it for a 1 % range, or the comparison would prove nothing.
func TestIndexedScanMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, regime := range []string{"runs", "clustered", "shuffled", "constant", "top"} {
		compared, taken := 0, 0
		for _, n := range []int{1, 63, 64, 65, 150_000} {
			for _, w := range []struct{ approx, res uint }{{1, 0}, {7, 3}, {12, 0}, {16, 1}, {23, 0}, {24, 8}, {40, 0}} {
				maxCode := bitpack.Mask(w.approx)
				codes := indexCodes(rng, regime, n, maxCode)
				col, vals := decideColumn(t, rng, w.approx, w.res, codes)
				if !hasIndex(col) {
					continue
				}
				label := fmt.Sprintf("%s n=%d %d+%d bits", regime, n, w.approx, w.res)
				c := codes[rng.Intn(n)]
				sorted := slices.Sorted(slices.Values(codes))
				gap := bwd.ApproxRange{Lo: sorted[n/2], Hi: sorted[n/2]} // between two runs where there is a gap
				for i := n / 2; i+1 < n; i++ {
					if sorted[i+1] > sorted[i]+1 {
						gap = bwd.ApproxRange{Lo: sorted[i] + 1, Hi: sorted[i+1] - 1}
						break
					}
				}
				pct := func() bwd.ApproxRange {
					lo := rng.Uint64() & maxCode
					return bwd.ApproxRange{Lo: lo, Hi: min(lo+maxCode/100, maxCode)}
				}
				ranges := []bwd.ApproxRange{
					{Empty: true}, {Full: true}, {Lo: c, Hi: c}, {Lo: 0, Hi: 0}, {Lo: maxCode, Hi: maxCode},
					{Lo: 0, Hi: maxCode / 50}, {Lo: maxCode - maxCode/50, Hi: maxCode}, gap, pct(), pct(),
				}
				value := func(r bwd.ApproxRange) (int64, int64) { // a value range whose relaxation is r
					if r.Empty {
						return 1, 0
					}
					if r.Full {
						return math.MinInt64, math.MaxInt64
					}
					return col.ReconstructFrom(r.Lo, uint64(rng.Int63n(int64(col.Dec.Err())+1))), col.ReconstructFrom(r.Hi, 0)
				}
				for k, r := range ranges {
					other := ranges[(k+1)%len(ranges)]
					lo, hi := value(r)
					olo, ohi := value(other)
					for _, ds := range [][]bwd.Disjunct{
						{col.Approximately(r)},
						{col.Approximately(r), col.Approximately(other)},
						{{Col: col, Outer: bwd.NoCodes, Inner: bwd.NoCodes}},
						{bwd.Exactly(col, vals, lo, hi)},
						{bwd.Exactly(col, nil, lo, hi)},
						{bwd.Exactly(col, nil, lo, hi), bwd.Exactly(col, vals, olo, ohi)},
					} {
						for _, chunk := range []int{bwd.GranuleRows, 1024, 64 << 10} {
							checkIndexedScan(t, fmt.Sprintf("%s range %d chunk %d", label, k, chunk), ds, vals, chunk)
							compared++
						}
					}
				}
				if n == 150_000 && bwd.Indexed([]bwd.Disjunct{col.Approximately(pct())}, len(col.Splits())) {
					taken++
				}
			}
		}
		if regime != "shuffled" && (compared == 0 || taken == 0) {
			t.Errorf("%s: the index path ran %d times and was taken for a 1 %% range %d times", regime, compared, taken)
		}
	}
}

// checkIndexedScan compares ScanIndexed with ScanGranules walked work-group
// by work-group over all of vals' rows: the masks, the counts, the outcomes
// and the live bitmaps both write.
func checkIndexedScan(t *testing.T, label string, ds []bwd.Disjunct, vals []int64, chunk int) {
	t.Helper()
	rows := len(vals)
	granules := (rows + bwd.GranuleRows - 1) / bwd.GranuleRows
	groups := (rows + chunk - 1) / chunk
	want, wantCounts := make([]uint64, granules), make([]int, groups)
	wantLive := make([]uint64, (granules+63)/64) // the walk writes it as it starts the mask
	wantN, wantO := 0, bwd.Outcomes{}
	for lo := 0; lo < rows; lo += chunk {
		n, o := bwd.ScanGranules(ds, want, wantLive, lo, min(lo+chunk, rows))
		wantCounts[lo/chunk], wantN = n, wantN+n
		wantO.Skipped, wantO.Inside, wantO.Compared = wantO.Skipped+o.Skipped, wantO.Inside+o.Inside, wantO.Compared+o.Compared
	}
	got, gotCounts := make([]uint64, granules), make([]int, groups)
	for g := range got {
		got[g] = ^uint64(0) // the index path clears what it does not visit
	}
	for i := range gotCounts {
		gotCounts[i] = -1
	}
	live := make([]uint64, (granules+63)/64)
	gotN, gotO := bwd.ScanIndexed(ds, got, live, rows, chunk, gotCounts)
	if !slices.Equal(got, want) || !slices.Equal(gotCounts, wantCounts) || gotN != wantN || gotO != wantO || !slices.Equal(live, liveOf(got)) || !slices.Equal(wantLive, live) {
		t.Fatalf("%s: the index path gives %d rows, counts %v, outcomes %+v; the walk %d rows, counts %v, outcomes %+v (masks equal: %v)",
			label, gotN, gotCounts[:min(4, groups)], gotO, wantN, wantCounts[:min(4, groups)], wantO, slices.Equal(got, want))
	}
}
