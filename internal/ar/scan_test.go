package ar

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bat"
	"repro/internal/bitpack"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/par"
)

// The approximate scan against a per-row reference: for every packed
// width, row counts on and around granule and work-group boundaries, data
// layouts that exercise all three granule outcomes, and ranges that are
// empty, full, one code wide, one-sided, interior or touch a granule's
// bounds exactly — with one disjunct and with several, under 1, 2 and 4
// workers — the candidate ids, every attached code column, their order and
// the meter must equal what a Get-per-row scan under the same work-group
// permutation produces.

// refScan is that reference: visit the work-groups in the device
// permutation, test every row with Get and Contains, and charge the
// paper's full packed scan.
func refScan(m *device.Meter, cols []*bwd.Column, rs []bwd.ApproxRange) ([]bat.OID, [][]uint64) {
	n := cols[0].Len()
	ids := []bat.OID{}
	codes := make([][]uint64, len(cols))
	for j := range codes {
		codes[j] = []uint64{}
	}
	row := make([]uint64, len(cols))
	for _, ci := range par.PermuteInto(make([]int, (n+gpuChunk-1)/gpuChunk)) {
		for i := ci * gpuChunk; i < min(n, (ci+1)*gpuChunk); i++ {
			match := false
			for j, col := range cols {
				row[j] = col.Approx.Get(i)
				match = match || rs[j].Contains(row[j])
			}
			if match {
				ids = append(ids, bat.OID(i))
				for j := range cols {
					codes[j] = append(codes[j], row[j])
				}
			}
		}
	}
	scanned, written := int64(0), int64(len(ids))*4
	for _, col := range cols {
		scanned += col.Approx.Bytes()
		written += packedBytes(len(ids), col.Dec.ApproxBits)
	}
	m.GPUKernel(scanned+written, 0, int64(n)*OpsPackedScan*int64(len(cols)))
	return ids, codes
}

// scanColumn builds a column of n rows whose approximation is exactly
// `width` bits wide, through the segment-restore constructor so that n = 0
// is allowed and the backing words can carry garbage past the last value.
func scanColumn(t *testing.T, rng *rand.Rand, width uint, n int, shape string) *bwd.Column {
	t.Helper()
	maxCode := bitpack.Mask(width)
	codes := make([]uint64, n)
	switch shape {
	case "constant":
		c := rng.Uint64() & maxCode
		for i := range codes {
			codes[i] = c
		}
	case "clustered":
		// Runs of ~100 rows drifting around one spot, like GPS trips: most
		// granules span a sliver of the domain, some straddle two runs.
		var at uint64
		for i := range codes {
			if i%100 == 0 {
				at = rng.Uint64() & maxCode
			}
			at = (at + uint64(rng.Intn(3))) & maxCode
			codes[i] = at
		}
	default: // sorted, shuffled
		for i := range codes {
			codes[i] = rng.Uint64() & maxCode
		}
		if shape == "sorted" {
			slices.Sort(codes)
		}
	}
	approx := bitpack.Pack(width, codes)
	if rem := uint(uint64(width) * uint64(n) & 63); rem != 0 {
		words := slices.Clone(approx.Words())
		words[len(words)-1] |= rng.Uint64() &^ bitpack.Mask(rem)
		var err error
		if approx, err = bitpack.FromWords(width, n, words); err != nil {
			t.Fatal(err)
		}
	}
	dec := bwd.Decomposition{TotalBits: width, ApproxBits: width, Width: 8}
	col, err := bwd.Restore(dec, approx, bitpack.New(0, n), nil)
	if err != nil {
		t.Fatal(err)
	}
	return col
}

// scanRanges returns the relaxed ranges to try on col: the flag cases, a
// single code, both one-sided forms, an interior interval, and intervals
// whose ends sit exactly on a granule's minimum or maximum (the inclusive
// edges of the skip and inside tests).
func scanRanges(rng *rand.Rand, col *bwd.Column) []bwd.ApproxRange {
	maxCode := col.Dec.MaxApprox()
	a, b := rng.Uint64()&maxCode, rng.Uint64()&maxCode
	if a > b {
		a, b = b, a
	}
	rs := []bwd.ApproxRange{
		{Empty: true},
		{Full: true},
		{Lo: 0, Hi: maxCode}, // covers every granule without the flag
		{Lo: a, Hi: a},
		{Lo: 0, Hi: a},
		{Lo: b, Hi: maxCode},
		{Lo: a, Hi: b},
	}
	if g := col.Granules(); len(g) > 0 {
		x, y := g[rng.Intn(len(g))], g[rng.Intn(len(g))]
		rs = append(rs,
			bwd.ApproxRange{Lo: x.Min, Hi: x.Max}, // exactly inside
			bwd.ApproxRange{Lo: x.Max, Hi: maxCode},
			bwd.ApproxRange{Lo: 0, Hi: y.Min},
		)
		if x.Max < maxCode {
			rs = append(rs, bwd.ApproxRange{Lo: x.Max + 1, Hi: maxCode}) // just misses
		}
		if y.Min > 0 {
			rs = append(rs, bwd.ApproxRange{Lo: 0, Hi: y.Min - 1})
		}
	}
	return rs
}

// scanCase is one scan to check: its disjuncts and what the reference got.
type scanCase struct {
	label string
	cols  []*bwd.Column
	rs    []bwd.ApproxRange
	ids   []bat.OID
	codes [][]uint64
	meter device.Meter
}

func newScanCase(sys *device.System, label string, cols []*bwd.Column, rs []bwd.ApproxRange) scanCase {
	c := scanCase{label: label, cols: cols, rs: rs, meter: *device.NewMeter(sys)}
	c.ids, c.codes = refScan(&c.meter, cols, rs)
	return c
}

// checkScans runs every case under 1, 2 and 4 workers (the worker count is
// GOMAXPROCS at call time) and compares with the reference.
func checkScans(t *testing.T, sys *device.System, cases []scanCase) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(workers)
		for _, sc := range cases {
			got := device.NewMeter(sys)
			var c *Candidates
			if len(sc.cols) == 1 {
				c = SelectApprox(got, sc.cols[0], sc.rs[0])
			} else {
				c = SelectApproxAny(got, sc.cols, sc.rs, 7)
			}
			if !slices.Equal(c.IDs, sc.ids) {
				t.Fatalf("%s workers=%d: %d ids differ from the %d of the per-row reference", sc.label, workers, len(c.IDs), len(sc.ids))
			}
			if len(c.attach) != len(sc.cols) {
				t.Fatalf("%s workers=%d: %d attachments for %d disjuncts", sc.label, workers, len(c.attach), len(sc.cols))
			}
			for j, a := range c.attach {
				if a.col != sc.cols[j] || a.rng != sc.rs[j] || !a.filtered || (len(sc.cols) > 1 && a.group != 7) {
					t.Fatalf("%s workers=%d: attachment %d does not describe disjunct %d", sc.label, workers, j, j)
				}
				if !slices.Equal(a.codes, sc.codes[j]) {
					t.Fatalf("%s workers=%d: codes of disjunct %d differ from the per-row reference", sc.label, workers, j)
				}
			}
			if *got != sc.meter {
				t.Fatalf("%s workers=%d: meter %v, reference %v", sc.label, workers, got, &sc.meter)
			}
			c.Release()
		}
	}
}

func TestScanMatchesPerRowReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	sys := device.PaperSystem()
	small := []int{0, 1, 63, 64, 65, 200}
	large := []int{gpuChunk - 1, gpuChunk, gpuChunk + 1, 3*gpuChunk + 777}
	shapes := []string{"clustered", "sorted", "shuffled", "constant"}
	for width := uint(1); width <= 63; width++ {
		sizes := small
		// Several work-groups at every width would take minutes under
		// -race; a spread of widths (aligned, straddling, the spatial 23,
		// the extremes) covers the group-boundary arithmetic, which does
		// not depend on the width.
		if slices.Contains([]uint{1, 8, 23, 33, 63}, width) {
			sizes = append(slices.Clone(small), large...)
		}
		for _, n := range sizes {
			shape := shapes[rng.Intn(len(shapes))]
			if n >= gpuChunk && width == 23 {
				shape = "clustered"
			}
			col := scanColumn(t, rng, width, n, shape)
			var cases []scanCase
			for ri, r := range scanRanges(rng, col) {
				label := fmt.Sprintf("width=%d n=%d %s range#%d", width, n, shape, ri)
				cases = append(cases, newScanCase(sys, label, []*bwd.Column{col}, []bwd.ApproxRange{r}))
			}
			// k > 1: a second column of another width and layout, plus the
			// first column again under a different range.
			other := scanColumn(t, rng, 1+uint(rng.Intn(63)), n, shapes[rng.Intn(len(shapes))])
			cols := []*bwd.Column{col, other, col}
			for trial := 0; trial < 3; trial++ {
				rs := make([]bwd.ApproxRange, len(cols))
				for j, c := range cols {
					cand := scanRanges(rng, c)
					rs[j] = cand[rng.Intn(len(cand))]
				}
				label := fmt.Sprintf("width=%d n=%d %s any#%d", width, n, shape, trial)
				cases = append(cases, newScanCase(sys, label, cols, rs))
			}
			checkScans(t, sys, cases)
		}
	}
}

// The property test above would pass without ever skipping or accepting a
// granule from its bounds if the bounds were useless; pin the three
// outcomes on a sorted column, where a range from inside one granule to
// inside the next-but-one cuts two granules, covers one and misses the rest.
func TestScanGranuleOutcomes(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	col := scanColumn(t, rng, 23, 3*gpuChunk+777, "sorted")
	g := col.Granules()
	k := len(g) / 2
	before := ScanStats()
	SelectApprox(nil, col, bwd.ApproxRange{Lo: g[k-1].Min + 1, Hi: g[k+1].Max - 1}).Release()
	after := ScanStats()
	skipped, inside, decoded := after.Skipped-before.Skipped, after.Inside-before.Inside, after.Decoded-before.Decoded
	if skipped != uint64(len(g))-3 || inside != 1 || decoded != 2 {
		t.Fatalf("skipped %d inside %d decoded %d of %d granules, want %d/1/2", skipped, inside, decoded, len(g), len(g)-3)
	}
}

// The device kernels size their worker pool when they run, not when the
// package was initialised.
func TestDevPFollowsGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(3)
	defer runtime.GOMAXPROCS(prev)
	if w := devP().NWorkers(); w != 3 {
		t.Fatalf("devP has %d workers under GOMAXPROCS(3)", w)
	}
	runtime.GOMAXPROCS(1)
	if w := devP().NWorkers(); w != 1 {
		t.Fatalf("devP has %d workers under GOMAXPROCS(1)", w)
	}
}

// A scan's transient buffers are a bitmask and per-work-group offsets, so
// a table larger than the arena's top size class (2 M elements) never asks
// the arena for more than it pools: in steady state no request misses.
// One P makes that exact — sync.Pool keeps a private slot per P that a
// goroutine resuming elsewhere cannot reach, while a request above the top
// class misses on any number of Ps.
func TestScanAboveTopSizeClassStaysPooled(t *testing.T) {
	if mem.RaceEnabled {
		t.Skip("sync.Pool drops Puts under -race, so misses are not stable")
	}
	const n = 1<<21 + 100_000
	rng := rand.New(rand.NewSource(16))
	col := scanColumn(t, rng, 23, n, "clustered")
	g := col.Granules()[1000]
	r := bwd.ApproxRange{Lo: g.Min, Hi: g.Max}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC() // collect the fixture's garbage now, not mid-measurement
	for i := 0; i < 5; i++ {
		SelectApprox(nil, col, r).Release()
	}
	before := mem.Stats().Misses
	for i := 0; i < 20; i++ {
		c := SelectApprox(nil, col, r)
		if c.Len() == 0 || c.Len() > n/10 {
			t.Fatalf("fixture range selects %d of %d rows", c.Len(), n)
		}
		c.Release()
	}
	if d := mem.Stats().Misses - before; d != 0 {
		t.Fatalf("%d arena misses over 20 steady-state scans of %d rows", d, n)
	}
}
