package bwd_test

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitpack"
	"repro/internal/bwd"
	"repro/internal/par"
)

// The steps of a selection as the scans take them — the first through the
// part index where Indexed says so and by the walk elsewhere, every later one
// over the set's live granules — against a plain reference walk that keeps no bitmap, visits every
// granule and decides each one the way the walk always has: the bounds of
// the granule as a whole first (a miss asks nothing, a range that holds them
// takes every live row), then each part of its split, and the rows only
// where a part is cut, one disjunct after another until all live rows are in.
// Bounds, parts and rows are read from the codes row by row, so the oracle
// shares no code with the walk but the records' K. For chains of one to three
// steps, with the survivors of random rows dropped between two steps (as
// MaskOut does, which leaves the bitmap holding granules whose words are
// zero), every step must leave the mask, its row count, each work-group's
// count and the outcomes of the reference, and a bitmap that holds every
// granule whose word is not zero. Columns of runs, shuffled, sorted and
// constant codes with a short last granule, with an index and without;
// approximate and exact disjuncts (with tails, and rebuilt from a residual),
// one without bounds (tails only), one over a column with no device bits (its
// residual codes), one read through a key — of tails or of a column with no
// device bits — with dangling keys and deleted dimension rows, and OR groups of two, among them two ranges on
// one column that overlap, so that a granule the first takes whole the
// second would cut through if it were asked; work-groups of one
// granule, of 16 (which share bitmap words, walked concurrently) and of 64k
// rows.
func TestLiveNarrowingMatchesReferenceWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	indexed := 0
	for _, regime := range []string{"runs", "shuffled", "clustered", "constant"} {
		for _, n := range []int{200*bwd.GranuleRows + 37, 3*bwd.GranuleRows + 5} {
			maxCode := bitpack.Mask(16)
			colA, valsA := decideColumn(t, rng, 16, 3, indexCodes(rng, regime, n, maxCode))
			colB, valsB := decideColumn(t, rng, 16, 3, indexCodes(rng, "runs", n, maxCode))
			dimLen := 500
			dimVals := make([]int64, dimLen)
			for i := range dimVals {
				dimVals[i] = rng.Int63n(1000)
			}
			fks := make([]int64, n)
			for i := range fks {
				fks[i] = rng.Int63n(int64(dimLen) + 20) // some keys have no partner
			}
			deleted := make([]uint64, (dimLen+63)/64)
			for i := range deleted {
				deleted[i] = rng.Uint64() & rng.Uint64() & rng.Uint64()
			}
			key := &bwd.Key{Tails: fks, Len: dimLen}
			host := func(vals []int64) *bwd.Column {
				c, err := bwd.Decompose(vals, 8, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			hostA, hostB, dimHost := host(valsA), host(valsB), host(dimVals)
			hostKey := &bwd.Key{Col: host(fks), Len: dimLen}

			codeRange := func(col *bwd.Column) bwd.ApproxRange {
				switch rng.Intn(6) {
				case 0:
					return bwd.ApproxRange{Empty: true}
				case 1:
					return bwd.ApproxRange{Full: true}
				case 2:
					c := col.Approx.Get(rng.Intn(n))
					return bwd.ApproxRange{Lo: c, Hi: c}
				case 3:
					lo := rng.Uint64() & maxCode
					return bwd.ApproxRange{Lo: lo, Hi: min(lo+maxCode/3, maxCode)}
				}
				lo := rng.Uint64() & maxCode
				return bwd.ApproxRange{Lo: lo, Hi: min(lo+maxCode/100, maxCode)}
			}
			valueRange := func(col *bwd.Column) (int64, int64) {
				r := codeRange(col)
				switch {
				case r.Empty:
					return 1, 0
				case r.Full:
					return col.Dec.Base, col.Dec.Base + int64(maxCode+1)<<col.Dec.ResBits
				}
				return col.ReconstructFrom(r.Lo, uint64(rng.Intn(8))), col.ReconstructFrom(r.Hi, uint64(rng.Intn(8)))
			}
			pick := func() refDisjunct {
				col, vals, hcol := colA, valsA, hostA
				if rng.Intn(2) == 0 {
					col, vals, hcol = colB, valsB, hostB
				}
				switch rng.Intn(7) {
				case 0, 1:
					r := codeRange(col)
					return refDisjunct{"approximate", col.Approximately(r), func(i int) bool { return r.Contains(col.Approx.Get(i)) }}
				case 2:
					lo, hi := valueRange(col)
					return refDisjunct{"exact", bwd.Exactly(col, vals, lo, hi), func(i int) bool { return vals[i] >= lo && vals[i] <= hi }}
				case 3:
					lo, hi := valueRange(col)
					return refDisjunct{"rebuilt", bwd.Exactly(col, nil, lo, hi), func(i int) bool { return vals[i] >= lo && vals[i] <= hi }}
				case 4:
					lo, hi := valueRange(col)
					return refDisjunct{"no bounds", bwd.Exactly(nil, vals, lo, hi), func(i int) bool { return vals[i] >= lo && vals[i] <= hi }}
				case 5:
					lo, hi := valueRange(col)
					return refDisjunct{"no device bits", bwd.Exactly(hcol, nil, lo, hi), func(i int) bool { return vals[i] >= lo && vals[i] <= hi }}
				}
				lo := rng.Int63n(1000)
				hi := lo + rng.Int63n(400)
				d := bwd.Exactly(nil, dimVals, lo, hi).Through(key)
				if rng.Intn(2) == 0 {
					d = bwd.Exactly(dimHost, nil, lo, hi).Through(hostKey)
				}
				d.Deleted = deleted
				return refDisjunct{"keyed", d, func(i int) bool {
					pos, ok := key.At(i)
					return ok && deleted[pos/64]>>uint(pos%64)&1 == 0 && dimVals[pos] >= lo && dimVals[pos] <= hi
				}}
			}

			// overlapping is an OR group of two approximate ranges on one
			// column, the second starting halfway into the first: the
			// granules the first takes whole, the second cuts through.
			overlapping := func() []refDisjunct {
				col := colA
				if rng.Intn(2) == 0 {
					col = colB
				}
				w := maxCode / 100
				lo := rng.Uint64() % (maxCode - 2*w)
				var group []refDisjunct
				for _, r := range []bwd.ApproxRange{{Lo: lo, Hi: lo + w}, {Lo: lo + w/2, Hi: lo + w + w/2}} {
					group = append(group, refDisjunct{"approximate", col.Approximately(r), func(i int) bool { return r.Contains(col.Approx.Get(i)) }})
				}
				return group
			}

			for trial := 0; trial < 60; trial++ {
				chunk := []int{bwd.GranuleRows, 16 * bwd.GranuleRows, 64 << 10}[rng.Intn(3)]
				steps := 1 + rng.Intn(3)
				label := fmt.Sprintf("%s n=%d trial %d chunk %d", regime, n, trial, chunk)
				granules := (n + bwd.GranuleRows - 1) / bwd.GranuleRows
				groups := (n + chunk - 1) / chunk
				mask, want := make([]uint64, granules), make([]uint64, granules)
				live := make([]uint64, (granules+63)/64)
				for g := range mask {
					mask[g] = rng.Uint64() // a first step overwrites whatever the buffers held
				}
				for g := range granules {
					live[g/64] |= rng.Uint64() & 1 << uint(g%64)
				}
				for s := 0; s < steps; s++ {
					step := []refDisjunct{pick()}
					switch rng.Intn(3) {
					case 1:
						step = append(step, pick())
					case 2:
						step = overlapping()
					}
					ds := make([]bwd.Disjunct, len(step))
					for j := range step {
						ds[j] = step[j].d
					}
					name := fmt.Sprintf("%s step %d (%s", label, s, step[0].name)
					if len(step) > 1 {
						name += " or " + step[1].name
					}
					name += ")"
					if s > 0 && rng.Intn(3) == 0 {
						for i := 0; i < n; i += 1 + rng.Intn(200) { // MaskOut: the bitmap is left as it is
							mask[i/64] &^= 1 << uint(i%64)
							want[i/64] &^= 1 << uint(i%64)
						}
					}

					wantCounts := make([]int, groups)
					var wantO bwd.Outcomes
					wantN := 0
					for ci := range groups {
						k, o := referenceWalk(step, want, ci*chunk, min(ci*chunk+chunk, n), s > 0)
						wantCounts[ci], wantN = k, wantN+k
						wantO.Skipped, wantO.Inside, wantO.Compared = wantO.Skipped+o.Skipped, wantO.Inside+o.Inside, wantO.Compared+o.Compared
					}

					gotCounts := make([]int, groups)
					var gotO bwd.Outcomes
					gotN := 0
					take := s == 0 && bwd.Indexed(ds, granules)
					switch {
					case take:
						indexed++
						gotN, gotO = bwd.ScanIndexed(ds, mask, live, n, chunk, gotCounts)
					default:
						walk := bwd.ScanGranules
						if s > 0 {
							walk = bwd.NarrowGranules
						}
						outcomes := make([]bwd.Outcomes, groups)
						par.P{Workers: 4, Chunk: chunk}.For(n, func(lo, hi int) {
							gotCounts[lo/chunk], outcomes[lo/chunk] = walk(ds, mask, live, lo, hi)
						})
						for ci, o := range outcomes {
							gotN += gotCounts[ci]
							gotO.Skipped, gotO.Inside, gotO.Compared = gotO.Skipped+o.Skipped, gotO.Inside+o.Inside, gotO.Compared+o.Compared
						}
					}
					if !slices.Equal(mask, want) || gotN != wantN || !slices.Equal(gotCounts, wantCounts) || gotO != wantO {
						t.Fatalf("%s, index %v: %d rows, outcomes %+v; the reference %d rows, outcomes %+v (masks equal %v, counts equal %v)",
							name, take, gotN, gotO, wantN, wantO, slices.Equal(mask, want), slices.Equal(gotCounts, wantCounts))
					}
					if held := liveOf(mask); !slices.Equal(live, held) {
						t.Fatalf("%s: live granules %x, the non-zero words %x", name, live, held)
					}
				}
			}
		}
	}
	if indexed == 0 {
		t.Fatal("the index settled no first step: its path was never held to the reference")
	}
}

// refDisjunct is a disjunct beside its row predicate.
type refDisjunct struct {
	name string
	d    bwd.Disjunct
	row  func(i int) bool
}

// referenceWalk starts (narrowing false) or narrows mask over rows [lo, hi)
// with the disjuncts ds, granule by granule, and returns the rows it holds
// and the outcomes, as the walk did before it kept a bitmap: a granule
// whose word is zero is skipped unread, every other one asks each disjunct
// in turn until every live row is in, the answer being the live rows whose
// predicate holds.
func referenceWalk(ds []refDisjunct, mask []uint64, lo, hi int, narrowing bool) (n int, o bwd.Outcomes) {
	for g := lo / bwd.GranuleRows; g*bwd.GranuleRows < hi; g++ {
		base := g * bwd.GranuleRows
		live := ^uint64(0) >> uint(bwd.GranuleRows-min(bwd.GranuleRows, hi-base))
		if narrowing {
			if live = mask[g]; live == 0 {
				o.Skipped++
				continue
			}
		}
		var word uint64
		compared := false
		for j := range ds {
			compared = compared || referenceCompares(&ds[j].d, g, live)
			for w := live; w != 0; w &= w - 1 {
				i := bits.TrailingZeros64(w)
				if ds[j].row(base + i) {
					word |= 1 << uint(i)
				}
			}
			if word == live {
				break
			}
		}
		switch {
		case compared:
			o.Compared++
		case word != 0:
			o.Inside++
		default:
			o.Skipped++
		}
		mask[g] = word
		n += bits.OnesCount64(word)
	}
	return n, o
}

// referenceCompares reports whether deciding granule g for the rows live
// reads rows: always without bounds; otherwise not when the granule's codes
// all lie outside Outer or all inside Inner, not when it is unsplit and
// does neither, and else when some part whose codes do neither holds a live
// row.
func referenceCompares(d *bwd.Disjunct, g int, live uint64) bool {
	if d.Col == nil || d.Key != nil {
		return true
	}
	rows := min(bwd.GranuleRows, d.Col.Len()-g*bwd.GranuleRows)
	span := func(from, to int) bwd.Bounds {
		b := bwd.Bounds{Min: ^uint64(0)}
		for i := from; i < to; i++ {
			c := d.Col.Approx.Get(g*bwd.GranuleRows + i)
			b.Min, b.Max = min(b.Min, c), max(b.Max, c)
		}
		return b
	}
	misses := func(b bwd.Bounds) bool { return b.Max < d.Outer.Lo || b.Min > d.Outer.Hi }
	holds := func(b bwd.Bounds) bool { return b.Min >= d.Inner.Lo && b.Max <= d.Inner.Hi }
	whole := span(0, rows)
	switch k := d.Col.Splits()[g].K; {
	case misses(whole) || holds(whole):
		return false
	case k == 0:
		return true
	default:
		head := uint64(1)<<uint(k) - 1
		open := uint64(0)
		if b := span(0, k); !misses(b) && !holds(b) {
			open |= head
		}
		if b := span(k, rows); !misses(b) && !holds(b) {
			open |= ^head
		}
		return live&open != 0
	}
}
