package plan

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ar"
	"repro/internal/bitpack"
	"repro/internal/bwd"
	"repro/internal/mem"
	"repro/internal/par"
)

// decColumn packs vals as a column of decomposition dec: each value's offset
// from dec.Base, its high bits the codes and its low ResBits the residual.
func decColumn(dec bwd.Decomposition, vals []int64) *bwd.Column {
	codes, res := make([]uint64, len(vals)), make([]uint64, len(vals))
	for i, v := range vals {
		off := uint64(v - dec.Base)
		codes[i], res[i] = off>>dec.ResBits, off&bitpack.Mask(dec.ResBits)
	}
	col := &bwd.Column{Dec: dec, Approx: bitpack.Pack(dec.ApproxBits, codes)}
	if dec.ResBits > 0 {
		col.Residual = bitpack.Pack(dec.ResBits, res)
	}
	return col
}

// mergeLawKey is one key shape of TestKeyedFoldMergeLaw: the decomposition of
// each of its two columns (nil: bound to values by row) and how many keys it
// draws from.
type mergeLawKey struct {
	name  string
	decs  [2]*bwd.Decomposition
	keys  int
	delta bool // every other segment binds values by row, as a delta does
}

// TestKeyedFoldMergeLaw is the merge law of the grouped fold: for rows cut
// into 1 to 8 ordered segments — device sets, whose work-groups are sealed in
// a permuted order, and host sets in row order, some empty, some spanning
// several work-groups — folding the segments equals folding the
// concatenation of their candidates in candidate order, bit for bit: the
// counts, every accumulator, and the keys in number order, which equal a
// serial loop's order of first appearance; and the serial loop's aggregates
// per group. Keys of at most ar.DirectBits bits, of 13 to 64 packed bits (one
// column with residual bits), and tuples — values by row, segments mixing
// decompositions and values, and decompositions wider than a word. A dropped
// row holds a key no candidate holds and extreme values, and dense blocks are
// taken whole, so a dropped row keyed instead of sunk adds a group. The
// ungrouped interval fold obeys the same law. One, two and five workers,
// pooled and unpooled.
func TestKeyedFoldMergeLaw(t *testing.T) {
	defer mem.SetPooling(mem.SetPooling(true))
	const gpuChunk = 64 << 10
	rng := rand.New(rand.NewSource(44))
	dec := func(base int64, approx, res uint) *bwd.Decomposition {
		return &bwd.Decomposition{Base: base, TotalBits: approx + res, ApproxBits: approx, ResBits: res, Width: 8}
	}
	shapes := []mergeLawKey{
		{"direct, 5+4 bits", [2]*bwd.Decomposition{dec(-7, 5, 0), dec(100, 4, 0)}, 300, false},
		{"direct, 12 bits with residual", [2]*bwd.Decomposition{dec(3, 4, 2), dec(0, 6, 0)}, 3000, false},
		{"packed, 13+20 bits", [2]*bwd.Decomposition{dec(-1000, 10, 3), dec(5, 20, 0)}, 5000, false},
		{"packed, 64 bits", [2]*bwd.Decomposition{dec(1<<40, 32, 0), dec(-9, 30, 2)}, 2000, false},
		{"tuple, values by row", [2]*bwd.Decomposition{nil, nil}, 4000, false},
		{"tuple, base and delta", [2]*bwd.Decomposition{dec(0, 12, 0), dec(-50, 8, 0)}, 700, true},
		{"tuple, 40+30 bits", [2]*bwd.Decomposition{dec(0, 40, 0), dec(-3, 27, 3)}, 1000, false},
	}
	vDec := *dec(-500, 10, 4) // the interval column: err 15
	aggs := []AggSpec{
		{Name: "n", Func: Count},
		{Name: "s", Func: Sum, Expr: Col("v")},
		{Name: "lo", Func: Min, Expr: Col("v")},
		{Name: "hi", Func: Max, Expr: Col("w")},
		{Name: "a", Func: Avg, Expr: Add(Col("v"), Col("w"))},
	}
	pg := compileAggs(aggs)
	for trial := 0; trial < 3*len(shapes); trial++ {
		shape := shapes[trial%len(shapes)]
		big := trial >= 2*len(shapes) // one device segment spans several work-groups
		keyOf := func() [2]int64 {
			var k [2]int64
			for c, d := range shape.decs {
				span := int64(1) << 20
				base := int64(0)
				if d != nil {
					span, base = int64(bitpack.Mask(min(d.TotalBits, 62))), d.Base
				}
				k[c] = base + rng.Int63n(max(1, span-1)) // the top offset is the dropped rows'
			}
			return k
		}
		pool := make([][2]int64, shape.keys)
		for i := range pool {
			pool[i] = keyOf()
		}
		poison := [2]int64{}
		for c, d := range shape.decs {
			poison[c] = -1 << 40
			if d != nil {
				poison[c] = d.Base + int64(bitpack.Mask(min(d.TotalBits, 62)))
			}
		}

		nseg := 1 + rng.Intn(8)
		segs := make(segments, nseg)
		var serial [][4]int64 // the candidates in candidate order: both keys, v, w
		for si := range segs {
			n := []int{0, 1 + rng.Intn(200), 1000 + rng.Intn(5000)}[rng.Intn(3)]
			device := rng.Intn(2) == 0
			if big && si == 0 {
				n, device = 4*gpuChunk+rng.Intn(gpuChunk), true
			}
			// A block of rows mostly survives, or mostly not: dense blocks are
			// taken whole, their holes sunk.
			sel, k0, k1, v, w := make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
			dense, last := true, pool[0]
			for r := range sel {
				if r%1024 == 0 {
					dense = rng.Intn(3) > 0
				}
				if dense && rng.Intn(20) > 0 || !dense && rng.Intn(10) == 0 {
					sel[r] = 1
				}
				// Keys drift with the row, so that work-groups meet them in
				// orders of their own, and come in runs, as TPC-H's do.
				key := pool[(r/3000+rng.Intn(3))%len(pool)]
				switch rng.Intn(4) {
				case 0:
					key = pool[rng.Intn(len(pool))]
				case 1, 2:
					key = last
				}
				last = key
				k0[r], k1[r] = key[0], key[1]
				v[r], w[r] = vDec.Base+rng.Int63n(1<<14), rng.Int63n(1<<20)-1<<19
				if sel[r] == 0 {
					k0[r], k1[r] = poison[0], poison[1]
					v[r], w[r] = vDec.Base+1<<14-1, -1<<40
				}
			}
			var set *ar.Candidates
			if device {
				codes := make([]uint64, n)
				for r, v := range sel {
					codes[r] = uint64(v)
				}
				set = ar.SelectApprox(residentColumn(t, 1, 0, codes), bwd.ApproxRange{Lo: 1, Hi: 1})
			} else {
				var err error
				if set, err = ar.SelectExact(par.P{Chunk: 1 + rng.Intn(3)*4096}, n, bwd.Exactly(nil, sel, 1, 1)); err != nil {
					t.Fatal(err)
				}
			}
			binds := map[ColRef]colBind{{Name: "v"}: {col: decColumn(vDec, v)}, {Name: "w"}: {tails: w}}
			for c, vals := range [2][]int64{k0, k1} {
				b := colBind{tails: vals}
				if d := shape.decs[c]; d != nil && !(shape.delta && si%2 == 1) {
					b = colBind{col: decColumn(*d, vals)}
				}
				binds[ColRef{Name: fmt.Sprint("k", c)}] = b
			}
			if want := int(sumOf(sel)); set.Len() != want {
				t.Fatalf("fixture: segment %d holds %d candidates, want %d", si, set.Len(), want)
			}
			segs[si] = segment{set: set, binds: binds}
			for _, id := range set.IDs() {
				serial = append(serial, [4]int64{k0[id], k1[id], v[id], w[id]})
			}
		}
		// The concatenation: one host segment over every candidate, in
		// candidate order, each column bound as the segments bind it.
		cat := func(c int) []int64 {
			out := make([]int64, len(serial))
			for i, row := range serial {
				out[i] = row[c]
			}
			return out
		}
		one, err := ar.SelectExact(par.P{}, len(serial))
		if err != nil {
			t.Fatal(err)
		}
		concat := segment{set: one, binds: map[ColRef]colBind{{Name: "v"}: {col: decColumn(vDec, cat(2))}, {Name: "w"}: {tails: cat(3)}}}
		for c := range 2 {
			b := colBind{tails: cat(c)}
			if d := shape.decs[c]; d != nil && !shape.delta {
				b = colBind{col: decColumn(*d, cat(c))}
			}
			concat.binds[ColRef{Name: fmt.Sprint("k", c)}] = b
		}

		// The serial loop: keys in order of first appearance, and every
		// aggregate's fold per group.
		gid := map[[2]int64]int{}
		var want [][5]int64 // count, sum v, min v, max w, sum v+w
		var order [][2]int64
		for _, row := range serial {
			k := [2]int64{row[0], row[1]}
			g, ok := gid[k]
			if !ok {
				g = len(order)
				gid[k] = g
				order = append(order, k)
				want = append(want, [5]int64{0, 0, foldMin.identity(), foldMax.identity(), 0})
			}
			a := &want[g]
			a[0], a[1], a[2], a[3], a[4] = a[0]+1, a[1]+row[2], min(a[2], row[2]), max(a[3], row[3]), a[4]+row[2]+row[3]
		}

		label := fmt.Sprintf("trial %d, %s, %d segments, %d candidates", trial, shape.name, nseg, len(serial))
		by := []string{"k0", "k1"}
		var ref aggAcc
		refKeys := segments{concat}.fold(par.P{Threads: 1}, pg, &ref, by...)
		refIv := pg.newAcc(1, true)
		bindIv := func(ss segments) []rows {
			var ins []rows
			for _, s := range ss {
				in := pg.bind(s)
				for i, ref := range pg.cols {
					if ref.Name == "v" {
						in.cols[i].err = vDec.Err()
					}
				}
				ins = append(ins, in)
			}
			return ins
		}
		pg.fold(par.P{Threads: 1}, &refIv, nil, bindIv(segments{concat})...)
		if len(refKeys[0]) != len(order) {
			t.Fatalf("%s: the concatenation folds into %d groups, the serial loop meets %d", label, len(refKeys[0]), len(order))
		}
		for g, k := range order {
			if refKeys[0][g] != k[0] || refKeys[1][g] != k[1] {
				t.Fatalf("%s: group %d of the concatenation has key %d|%d, the serial loop %d|%d", label, g, refKeys[0][g], refKeys[1][g], k[0], k[1])
			}
			a := want[g]
			for i, exp := range []int64{a[0], a[1], a[2], a[3], a[4] / a[0]} {
				if v := pg.value(&ref, i, g); v != exp {
					t.Fatalf("%s: group %d %s = %d, the serial loop says %d", label, g, aggs[i].Name, v, exp)
				}
			}
		}
		for _, workers := range []int{1, 2, 5} {
			for _, pooled := range []bool{true, false} {
				mem.SetPooling(pooled)
				pp := par.P{Threads: 1, Workers: workers, Chunk: []int{0, 1, 3}[rng.Intn(3)]}
				how := fmt.Sprintf("%s, %d workers, pooled %v", label, workers, pooled)
				var acc aggAcc
				keys := segs.fold(pp, pg, &acc, by...)
				if acc.groups != ref.groups || !slices.Equal(acc.cnt, ref.cnt) || !slices.Equal(acc.lo, ref.lo) ||
					!slices.Equal(keys[0], refKeys[0]) || !slices.Equal(keys[1], refKeys[1]) {
					t.Fatalf("%s: the segments fold into %d groups, the concatenation %d (counts equal %v, accumulators %v, keys %v)", how, acc.groups, ref.groups,
						slices.Equal(acc.cnt, ref.cnt), slices.Equal(acc.lo, ref.lo), slices.Equal(keys[0], refKeys[0]) && slices.Equal(keys[1], refKeys[1]))
				}
				acc.release()
				iv := pg.newAcc(1, true)
				pg.fold(pp, &iv, nil, bindIv(segs)...)
				if !slices.Equal(iv.cnt, refIv.cnt) || !slices.Equal(iv.lo, refIv.lo) || !slices.Equal(iv.hi, refIv.hi) {
					t.Fatalf("%s: interval fold [%v, %v], the concatenation's [%v, %v]", how, iv.lo, iv.hi, refIv.lo, refIv.hi)
				}
				iv.release()
			}
		}
		mem.SetPooling(true)
		ref.release()
		refIv.release()
		one.Release()
		for _, s := range segs {
			s.set.Release()
		}
	}
}
