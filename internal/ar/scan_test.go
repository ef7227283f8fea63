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
// bounds exactly — with one disjunct and with several, alone and as the
// start of a chain of further conjuncts, disjunction groups and a deletion
// bitmap, under 1, 2 and 4 workers — the candidate ids, their order, the
// filters attached, the split, row by row, and the meter must equal
// what a Get-per-row scan under the same work-group permutation, filtered row
// by row by every later step, produces.

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

// granuleBounds returns the code bounds of every granule of col, the union
// of its record's parts.
func granuleBounds(col *bwd.Column) []bwd.Bounds {
	recs := col.Splits()
	out := make([]bwd.Bounds, len(recs))
	for g := range recs {
		out[g] = recs[g].Bounds()
	}
	return out
}

// scanColumn builds a fully device-resident column of n rows whose
// approximation is exactly `width` bits wide.
func scanColumn(t *testing.T, rng *rand.Rand, width uint, n int, shape string) *bwd.Column {
	t.Helper()
	return splitColumn(t, rng, width, 0, n, shape)
}

// splitColumn builds a column of n rows with a `width`-bit approximation
// over resBits (all-zero) residual bits, through the segment-restore
// constructor so that n = 0 is allowed and the backing words can carry
// garbage past the last value.
func splitColumn(t *testing.T, rng *rand.Rand, width, resBits uint, n int, shape string) *bwd.Column {
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
	dec := bwd.Decomposition{TotalBits: width + resBits, ApproxBits: width, ResBits: resBits, Width: 8}
	col, err := bwd.Restore(dec, approx, bitpack.New(resBits, n), nil)
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
	if g := granuleBounds(col); len(g) > 0 {
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

// chainStep is one narrowing after the scan that starts a chain: a further
// conjunct (one column), a disjunction group (several), or — no columns —
// the deletion bitmap drop.
type chainStep struct {
	cols []*bwd.Column
	rs   []bwd.ApproxRange
	drop []uint64
}

// scanCase is one scan to check — its disjuncts, then the steps that narrow
// its candidates — and what the reference got: ids, one code column per
// attachment, and the rows whose candidates are certain, bit r%64 of word
// r/64 for row r.
type scanCase struct {
	label   string
	cols    []*bwd.Column
	rs      []bwd.ApproxRange
	chain   []chainStep
	ids     []bat.OID
	codes   [][]uint64
	certain []uint64
	meter   device.Meter
}

// scanGroup is the disjunction group id the cases scan under; a chain's
// step i narrows under scanGroup+i.
const scanGroup = 7

// steps returns the scan and the chain as one list.
func (c *scanCase) steps() []chainStep {
	return append([]chainStep{{cols: c.cols, rs: c.rs}}, c.chain...)
}

func newScanCase(sys *device.System, label string, cols []*bwd.Column, rs []bwd.ApproxRange, chain ...chainStep) scanCase {
	c := scanCase{label: label, cols: cols, rs: rs, chain: chain, meter: *device.NewMeter(sys)}
	c.ids, c.codes = refScan(&c.meter, cols, rs)
	for _, step := range chain {
		c.refNarrow(step)
	}
	// Certain, from its definition: a conjunct's code lies off its range's
	// two boundary buckets unless the column is resident or the range full;
	// a disjunction group needs one member certainly satisfied.
	c.certain = make([]uint64, (cols[0].Len()+63)/64)
	for i, id := range c.ids {
		ok, at := true, 0
		for _, step := range c.steps() {
			any := len(step.cols) == 0
			for j, col := range step.cols {
				code, r := c.codes[at+j][i], step.rs[j]
				off := col.Dec.ResBits == 0 || r.Full || code != r.Lo && code != r.Hi
				if len(step.cols) == 1 {
					any = off
				} else {
					any = any || r.Contains(code) && off
				}
			}
			ok = ok && any
			at += len(step.cols)
		}
		if ok {
			c.certain[id/64] |= 1 << (id % 64)
		}
	}
	return c
}

// refNarrow filters the reference candidates through one step, row by row,
// and charges what the device is billed for it: a gather of every step
// column at the candidate positions (nothing for the deletion bitmap, which
// the query layer charges).
func (c *scanCase) refNarrow(step chainStep) {
	n := len(c.ids)
	keep := make([]int, 0, n)
	added := make([][]uint64, len(step.cols))
	for i, id := range c.ids {
		match := len(step.cols) == 0 && (int(id)/64 >= len(step.drop) || step.drop[id/64]>>(id%64)&1 == 0)
		for j, col := range step.cols {
			match = match || step.rs[j].Contains(col.Approx.Get(int(id)))
		}
		if match {
			keep = append(keep, i)
			for j, col := range step.cols {
				added[j] = append(added[j], col.Approx.Get(int(id)))
			}
		}
	}
	ids := make([]bat.OID, len(keep))
	for k, i := range keep {
		ids[k] = c.ids[i]
	}
	c.ids = ids
	for a := range c.codes {
		codes := make([]uint64, len(keep))
		for k, i := range keep {
			codes[k] = c.codes[a][i]
		}
		c.codes[a] = codes
	}
	for j := range step.cols {
		c.codes = append(c.codes, append([]uint64{}, added[j]...))
	}
	if len(step.cols) > 0 {
		seq, rnd := int64(n)*4+int64(len(keep))*4, int64(0)
		for _, col := range step.cols {
			seq += packedBytes(len(keep), col.Dec.ApproxBits)
			rnd += packedBytes(n, col.Dec.ApproxBits)
		}
		c.meter.GPUKernel(seq, rnd, int64(n)*OpsPackedScan*int64(len(step.cols)))
	}
}

// run executes the case through the operators under test.
func (sc *scanCase) run(m *device.Meter) *Candidates {
	var c *Candidates
	if len(sc.cols) == 1 {
		c = SelectApprox(sc.cols[0], sc.rs[0])
	} else {
		c = SelectApproxAny(sc.cols, sc.rs, scanGroup)
	}
	ChargeSelectApprox(m, c.Len(), sc.cols...)
	for i, step := range sc.chain {
		n := c.Len()
		switch len(step.cols) {
		case 0:
			c.MaskOut(step.drop)
			continue
		case 1:
			c = SelectApproxOver(step.cols[0], nil, step.rs[0], c)
		default:
			c = SelectApproxAnyOver(step.cols, step.rs, c, scanGroup+1+i)
		}
		ChargeSelectApproxOver(m, false, n, c.Len(), step.cols...)
	}
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
			c := sc.run(got)
			if c.Len() != len(sc.ids) {
				t.Fatalf("%s workers=%d: %d candidates before any id is read, the per-row reference has %d", sc.label, workers, c.Len(), len(sc.ids))
			}
			if !slices.Equal(c.IDs(), sc.ids) {
				t.Fatalf("%s workers=%d: %d ids differ from the %d of the per-row reference", sc.label, workers, len(c.IDs()), len(sc.ids))
			}
			if len(c.attach) != len(sc.codes) {
				t.Fatalf("%s workers=%d: %d attachments for %d filtered columns", sc.label, workers, len(c.attach), len(sc.codes))
			}
			at := 0
			for si, step := range sc.steps() {
				for j := range step.cols {
					a := c.attach[at]
					group := 0
					if si > 0 && len(step.cols) > 1 {
						group = scanGroup + si
					} else if len(step.cols) > 1 {
						group = scanGroup
					}
					if a.col != step.cols[j] || a.rng != step.rs[j] || a.group != group {
						t.Fatalf("%s workers=%d: attachment %d does not describe disjunct %d of step %d", sc.label, workers, at, j, si)
					}
					at++
				}
			}
			// The split: the reference's ids, in candidate order, kept by
			// the certain set when the reference holds them certain and by
			// the uncertain one otherwise.
			var wantSure, wantUnsure []bat.OID
			for _, id := range sc.ids {
				if sc.certain[id/64]>>(id%64)&1 == 1 {
					wantSure = append(wantSure, id)
				} else {
					wantUnsure = append(wantUnsure, id)
				}
			}
			if sure, unsure := splitIDs(c); !slices.Equal(sure, wantSure) || !slices.Equal(unsure, wantUnsure) {
				t.Fatalf("%s workers=%d: split %d certain, %d uncertain; per-row reference %d, %d", sc.label, workers, len(sure), len(unsure), len(wantSure), len(wantUnsure))
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
			cases = append(cases, chainCases(t, rng, sys, fmt.Sprintf("width=%d n=%d %s", width, n, shape), col, other)...)
			checkScans(t, sys, cases)
		}
	}
}

// chainCases builds the chains over one table: 2 and 3 conjuncts, a
// conjunct followed by a 3-disjunct group, a deletion bitmap mid-chain, an
// empty and a full range mid-chain, and a chain that starts from a
// disjunctive scan. a and b are two of its columns; two more, with residual
// bits so that boundary codes are uncertain, are built here. Ranges are drawn
// like the single scan's, so survivors straddle whatever granule and
// work-group edges the row count has.
func chainCases(t *testing.T, rng *rand.Rand, sys *device.System, label string, a, b *bwd.Column) []scanCase {
	n := a.Len()
	shapes := []string{"clustered", "sorted", "shuffled"}
	c := splitColumn(t, rng, 1+uint(rng.Intn(40)), 1+uint(rng.Intn(8)), n, shapes[rng.Intn(len(shapes))])
	d := splitColumn(t, rng, 1+uint(rng.Intn(12)), 3, n, shapes[rng.Intn(len(shapes))])
	pick := func(col *bwd.Column) bwd.ApproxRange {
		// Wide ranges mostly, so that a chain keeps survivors to its end.
		if rs := scanRanges(rng, col); rng.Intn(3) == 0 {
			return rs[rng.Intn(len(rs))]
		}
		lo := rng.Uint64() & col.Dec.MaxApprox() / 4
		return bwd.ApproxRange{Lo: lo, Hi: lo + col.Dec.MaxApprox()/2}
	}
	one := func(col *bwd.Column, r bwd.ApproxRange) chainStep {
		return chainStep{cols: []*bwd.Column{col}, rs: []bwd.ApproxRange{r}}
	}
	// An eighth of the rows deleted; the bitmap ends a few words early on
	// one draw and runs past the rows on the next, as a snapshot's may.
	drop := make([]uint64, max(0, (n+63)/64+rng.Intn(5)-2))
	for i := range drop {
		drop[i] = rng.Uint64() & rng.Uint64() & rng.Uint64()
	}
	or3 := chainStep{cols: []*bwd.Column{b, c, b}, rs: []bwd.ApproxRange{pick(b), pick(c), pick(b)}}
	var cases []scanCase
	for _, ch := range []struct {
		name  string
		steps []chainStep
	}{
		{"2 conjuncts", []chainStep{one(c, pick(c))}},
		{"3 conjuncts", []chainStep{one(b, pick(b)), one(c, pick(c))}},
		{"conjunct, or", []chainStep{or3}},
		{"deleted mid-chain", []chainStep{one(d, pick(d)), {drop: drop}, one(b, pick(b))}},
		{"empty mid-chain", []chainStep{one(c, bwd.ApproxRange{Empty: true}), one(b, pick(b))}},
		{"full mid-chain", []chainStep{one(c, bwd.ApproxRange{Full: true}), {drop: drop}, one(d, pick(d))}},
	} {
		cases = append(cases, newScanCase(sys, label+" chain: "+ch.name, []*bwd.Column{a}, []bwd.ApproxRange{pick(a)}, ch.steps...))
	}
	return append(cases, newScanCase(sys, label+" chain: or, conjunct, or",
		[]*bwd.Column{d, a}, []bwd.ApproxRange{pick(d), pick(a)}, one(c, pick(c)), or3))
}

// The property test above would pass without ever skipping or accepting a
// granule from its bounds if the bounds were useless; pin the three
// outcomes on a sorted column, where a range from inside one granule to
// inside the next-but-one cuts two granules, covers one and misses the rest.
func TestScanGranuleOutcomes(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	col := scanColumn(t, rng, 23, 3*gpuChunk+777, "sorted")
	g := granuleBounds(col)
	k := len(g) / 2
	before := ScanStats()
	c := SelectApprox(col, bwd.ApproxRange{Lo: g[k-1].Min + 1, Hi: g[k+1].Max - 1})
	after := ScanStats()
	skipped, inside, decoded := after.Skipped-before.Skipped, after.Inside-before.Inside, after.Decoded-before.Decoded
	if skipped != uint64(len(g))-3 || inside != 1 || decoded != 2 {
		t.Fatalf("skipped %d inside %d decoded %d of %d granules, want %d/1/2", skipped, inside, decoded, len(g), len(g)-3)
	}
	// Every conjunct counts its own outcomes. A second one sees three
	// granules with a survivor left: its range starts at the middle one's
	// minimum — so the first lies below it and is passed over on its bounds,
	// the middle one is inside — and ends inside the third, which is decoded.
	// The granules the first conjunct emptied are passed over unread.
	if g[k-1].Max >= g[k].Min || g[k+1].Max-g[k+1].Min < 2 {
		t.Fatalf("fixture: granules %v %v %v do not separate", g[k-1], g[k], g[k+1])
	}
	before = after
	c = SelectApproxOver(col, nil, bwd.ApproxRange{Lo: g[k].Min, Hi: g[k+1].Min + 1}, c)
	after = ScanStats()
	skipped, inside, decoded = after.Skipped-before.Skipped, after.Inside-before.Inside, after.Decoded-before.Decoded
	if skipped != uint64(len(g))-2 || inside != 1 || decoded != 1 {
		t.Fatalf("second conjunct: skipped %d inside %d decoded %d of %d granules, want %d/1/1", skipped, inside, decoded, len(g), len(g)-2)
	}
	if c.Len() < 64 || c.Len() >= 128 {
		t.Fatalf("%d candidates left, want the middle granule and part of the next", c.Len())
	}
	c.Release()
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

// Narrowing happens on the mask: a chain of k conjuncts asks the arena for
// what one scan asks — the mask, the work-group slots, the ids — and never
// for a copy of the set in between, nor for a list of any conjunct's codes.
func TestChainBuffersIndependentOfLength(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 3*gpuChunk + 777
	cols := []*bwd.Column{
		scanColumn(t, rng, 23, n, "clustered"), scanColumn(t, rng, 9, n, "shuffled"), scanColumn(t, rng, 33, n, "sorted"),
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	gets := func(k int) uint64 {
		before := mem.Stats()
		c := SelectApprox(cols[0], bwd.ApproxRange{Lo: 0, Hi: cols[0].Dec.MaxApprox() / 2})
		for _, col := range cols[1:k] {
			c = SelectApproxOver(col, nil, bwd.ApproxRange{Lo: 0, Hi: col.Dec.MaxApprox() / 2}, c)
		}
		if len(c.IDs()) == 0 || len(c.attach) != k {
			t.Fatalf("fixture: %d candidates, %d attachments after %d conjuncts", c.Len(), len(c.attach), k)
		}
		after := mem.Stats()
		c.Release()
		return after.Hits + after.Misses - before.Hits - before.Misses
	}
	one := gets(1)
	for k := 2; k <= len(cols); k++ {
		if got := gets(k); got != one {
			t.Fatalf("%d conjuncts take %d arena buffers, one takes %d", k, got, one)
		}
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
	g := granuleBounds(col)[1000]
	r := bwd.ApproxRange{Lo: g.Min, Hi: g.Max}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC() // collect the fixture's garbage now, not mid-measurement
	for i := 0; i < 5; i++ {
		SelectApprox(col, r).Release()
	}
	before := mem.Stats().Misses
	for i := 0; i < 20; i++ {
		c := SelectApprox(col, r)
		if c.Len() == 0 || c.Len() > n/10 {
			t.Fatalf("fixture range selects %d of %d rows", c.Len(), n)
		}
		c.Release()
	}
	if d := mem.Stats().Misses - before; d != 0 {
		t.Fatalf("%d arena misses over 20 steady-state scans of %d rows", d, n)
	}
}
