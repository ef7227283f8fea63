package plan

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/ar"
	"repro/internal/bat"
	"repro/internal/bitpack"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/par"
)

// ---- The reference oracle: the recursive, fully materializing tree-walkers
// the compiled program replaced. One n-length slice per node, constants
// broadcast, every aggregate a pass of its own.

func refEval(e Expr, n int, vals map[ColRef][]int64) []int64 {
	out := make([]int64, n)
	switch e := e.(type) {
	case colExpr:
		copy(out, vals[e.ref])
	case constExpr:
		for i := range out {
			out[i] = int64(e)
		}
	case binExpr:
		av, bv := refEval(e.a, n, vals), refEval(e.b, n, vals)
		for i := range out {
			switch e.op {
			case opAdd:
				out[i] = av[i] + bv[i]
			case opSub:
				out[i] = av[i] - bv[i]
			case opMulScaled:
				out[i] = av[i] * bv[i] / e.scale
			}
		}
	case caseExpr:
		cv, tv, ev := refEval(e.cond, n, vals), refEval(e.then, n, vals), refEval(e.els, n, vals)
		for i := range out {
			if cv[i] >= e.lo && cv[i] <= e.hi {
				out[i] = tv[i]
			} else {
				out[i] = ev[i]
			}
		}
	}
	return out
}

func refBounds(e Expr, n int, vals map[ColRef][]ar.Interval) []ar.Interval {
	out := make([]ar.Interval, n)
	switch e := e.(type) {
	case colExpr:
		copy(out, vals[e.ref])
	case constExpr:
		for i := range out {
			out[i] = ar.Exact(int64(e))
		}
	case binExpr:
		av, bv := refBounds(e.a, n, vals), refBounds(e.b, n, vals)
		for i := range out {
			switch e.op {
			case opAdd:
				out[i] = av[i].Add(bv[i])
			case opSub:
				out[i] = av[i].Sub(bv[i])
			case opMulScaled:
				out[i] = av[i].MulScaled(bv[i], e.scale)
			}
		}
	case caseExpr:
		cv, tv, ev := refBounds(e.cond, n, vals), refBounds(e.then, n, vals), refBounds(e.els, n, vals)
		for i := range out {
			switch {
			case cv[i].Lo >= e.lo && cv[i].Hi <= e.hi:
				out[i] = tv[i]
			case cv[i].Hi < e.lo || cv[i].Lo > e.hi:
				out[i] = ev[i]
			default:
				out[i] = ar.Interval{Lo: min(tv[i].Lo, ev[i].Lo), Hi: max(tv[i].Hi, ev[i].Hi)}
			}
		}
	}
	return out
}

// refFold is the reference aggregate pass: vals folded per group, from the
// fold's identity.
func refFold(kind foldKind, groups int, ids []uint32, vals []int64) []int64 {
	out := make([]int64, groups)
	fill(out, kind.identity())
	for i, v := range vals {
		g := 0
		if ids != nil {
			g = int(ids[i])
		}
		out[g] = kind.combine(out[g], v)
	}
	return out
}

// magnitude bounds |e| over columns within ±colMax, so the containment
// checks can leave out trees whose int64 arithmetic wraps.
func magnitude(e Expr, colMax float64) float64 {
	switch e := e.(type) {
	case colExpr:
		return colMax
	case constExpr:
		return math.Abs(float64(e))
	case binExpr:
		a, b := magnitude(e.a, colMax), magnitude(e.b, colMax)
		if e.op == opMulScaled {
			return a * b // the division only shrinks it; the product must fit
		}
		return a + b
	case caseExpr:
		return max(magnitude(e.then, colMax), magnitude(e.els, colMax))
	}
	panic("unknown node")
}

// ---- Random inputs.

var exprTestCols = []ColRef{{Name: "a"}, {Name: "b"}, {Name: "c", Dim: "d"}, {Name: "e"}}

// randExpr draws a tree of depth <= depth over the first ncols columns. pool
// collects every sub-tree drawn so far and is drawn from again, so equal
// sub-trees recur within and across the aggregates of one statement.
func randExpr(rng *rand.Rand, depth, ncols int, pool *[]Expr) Expr {
	if len(*pool) > 0 && rng.Intn(4) == 0 {
		return (*pool)[rng.Intn(len(*pool))]
	}
	var e Expr
	switch op := rng.Intn(7); {
	case depth == 0 || op == 0:
		ref := exprTestCols[rng.Intn(ncols)]
		e = colExpr{ref}
	case op == 1:
		e = Const([]int64{0, 1, -1, 100, -7, 12345}[rng.Intn(6)])
	case op == 2:
		e = Add(randExpr(rng, depth-1, ncols, pool), randExpr(rng, depth-1, ncols, pool))
	case op == 3:
		e = Sub(randExpr(rng, depth-1, ncols, pool), randExpr(rng, depth-1, ncols, pool))
	case op <= 5:
		scale := []int64{1, 100, 7, -3}[rng.Intn(4)]
		e = MulScaled(randExpr(rng, depth-1, ncols, pool), randExpr(rng, depth-1, ncols, pool), scale)
	default:
		lo := rng.Int63n(2000) - 1000
		e = CaseRange(randExpr(rng, depth-1, ncols, pool), lo, lo+rng.Int63n(1500),
			randExpr(rng, depth-1, ncols, pool), randExpr(rng, depth-1, ncols, pool))
	}
	*pool = append(*pool, e)
	return e
}

// exprInput is one random statement over one random table: the aggregates,
// per column the approximation codes with their decomposition, the exact
// values they approximate, and the intervals the oracle reads. The n rows
// are the candidates a scan of a longer table left (cands, still carrying
// its survivor mask), and every column also exists as that table's packed
// approximation: the same fold, bound the third way.
type exprInput struct {
	aggs   []AggSpec
	n      int
	codes  map[ColRef]*colBind
	packed map[ColRef]*bitpack.Array
	cands  *ar.Candidates
	exact  map[ColRef][]int64
	ivs    map[ColRef][]ar.Interval
	ids    []uint32 // nil: ungrouped
	groups int
	mask   []uint64 // nil: every row certain
}

// randSurvivors draws the table behind n candidates: which of its rows
// survived — granule words that are full, lack one row, lack a few, are
// dense, sparse or empty, in random order, the last granule short — and the
// candidate set a scan for exactly those rows leaves.
func randSurvivors(t testing.TB, rng *rand.Rand, n int) *ar.Candidates {
	sel := make([]int64, 0, 2*n+64)
	for left := n; left > 0 || len(sel) == 0; {
		word := ^uint64(0)
		switch rng.Intn(6) {
		case 1:
			word &^= 1 << rng.Intn(64)
		case 2:
			for k := 2 + rng.Intn(6); k > 0; k-- {
				word &^= 1 << rng.Intn(64)
			}
		case 3:
			word = rng.Uint64() | rng.Uint64()
		case 4:
			word = rng.Uint64() & rng.Uint64() & rng.Uint64()
		case 5:
			word = 0
		}
		for b := 0; b < 64; b++ {
			row := int64(word >> b & 1)
			if left == 0 {
				row = 0
			}
			left -= int(row)
			sel = append(sel, row)
		}
	}
	sel = sel[:len(sel)-rng.Intn(64)]
	for left := n - int(sumOf(sel)); left > 0; left-- {
		sel = append(sel, 1) // the cut took survivors with it
	}
	col, err := bwd.Decompose(bat.NewDense(sel, bat.Width32), 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	cands := ar.SelectApprox(nil, col, col.Relax(1, 1))
	if cands.Len() != n {
		t.Fatalf("the survivor fixture holds %d candidates, want %d", cands.Len(), n)
	}
	return cands
}

func sumOf(vals []int64) (sum int64) {
	for _, v := range vals {
		sum += v
	}
	return sum
}

func randInput(t testing.TB, rng *rand.Rand, n, depth int, grouped, masked bool) *exprInput {
	in := &exprInput{n: n, groups: 1, codes: map[ColRef]*colBind{}, packed: map[ColRef]*bitpack.Array{},
		exact: map[ColRef][]int64{}, ivs: map[ColRef][]ar.Interval{}, cands: randSurvivors(t, rng, n)}
	ids := in.cands.IDs()
	rows := 0
	if n > 0 {
		rows = int(slices.Max(ids)) + 1
	}
	ncols := 1 + rng.Intn(len(exprTestCols))
	var pool []Expr
	for k := 0; k < 1+rng.Intn(6); k++ {
		a := AggSpec{Name: fmt.Sprint("agg", k), Func: AggFunc(rng.Intn(5))}
		if a.Func != Count || rng.Intn(2) == 0 {
			a.Expr = randExpr(rng, depth, ncols, &pool)
		}
		in.aggs = append(in.aggs, a)
	}
	for _, ref := range exprTestCols[:ncols] {
		b := &colBind{base: rng.Int63n(3000) - 2000, shift: uint(rng.Intn(3) * rng.Intn(5))}
		b.err = int64(1)<<b.shift - 1
		// The column as the table packs it, at a width that decodes
		// through every path (one word, a straddling value, a whole word);
		// the codes stay small enough for the oracle's arithmetic.
		width := []uint{1, 6, 9, 24, 63, 64}[rng.Intn(6)]
		table := make([]uint64, rows)
		for r := range table {
			table[r] = uint64(rng.Intn(400)) & bitpack.Mask(width)
		}
		in.packed[ref] = bitpack.Pack(width, table)
		b.codes = make([]uint64, n)
		exact, ivs := make([]int64, n), make([]ar.Interval, n)
		for i := range b.codes {
			b.codes[i] = table[ids[i]]
			lo := b.base + int64(b.codes[i]<<b.shift)
			ivs[i] = ar.Interval{Lo: lo, Hi: lo + b.err}
			exact[i] = lo + rng.Int63n(b.err+1)
		}
		in.codes[ref], in.exact[ref], in.ivs[ref] = b, exact, ivs
	}
	if grouped {
		in.groups = 1 + rng.Intn(9)
		in.ids = make([]uint32, n)
		for i := range in.ids {
			in.ids[i] = uint32(rng.Intn(in.groups))
		}
	}
	if masked {
		in.mask = make([]uint64, (n+63)/64)
		for i := 0; i < n; i++ {
			if rng.Intn(3) > 0 {
				in.mask[i/64] |= 1 << (uint(i) % 64)
			}
		}
	}
	return in
}

func (in *exprInput) certain(i int) bool {
	return in.mask == nil || in.mask[i/64]>>(uint(i)%64)&1 == 1
}

// check folds the compiled program over the input under pp — exact values,
// then intervals — and compares every accumulator and every aggregate with
// the oracle; then the same intervals, and the low side alone, with every
// column bound packed and read through the candidates' mask, which must fill
// the accumulators the code lists filled.
func (in *exprInput) check(t *testing.T, pp par.P, label string) {
	t.Helper()
	pg := compileAggs(in.aggs)

	acc := pg.newAcc(in.groups, false)
	exact := pg.bindVals(in.exact, in.n)
	exact.ids = in.ids
	pg.fold(pp, &acc, exact)
	counts := refFold(foldSum, in.groups, in.ids, fill(make([]int64, in.n), 1))
	for k, a := range in.aggs {
		var want []int64
		if a.Func != Count {
			kind := pg.slots[pg.slotOf[k]].kind
			want = refFold(kind, in.groups, in.ids, refEval(a.Expr, in.n, in.exact))
		}
		for g := 0; g < in.groups; g++ {
			w := counts[g]
			switch {
			case w == 0: // the empty ungrouped input
			case a.Func == Avg:
				w = want[g] / counts[g]
			case a.Func != Count:
				w = want[g]
			}
			if got := pg.value(&acc, k, g); got != w {
				t.Fatalf("%s: %s(%v) group %d = %d, oracle %d", label, a.Func, a.Expr, g, got, w)
			}
		}
	}
	acc.release()

	cols := make([]colBind, len(pg.cols))
	for i, ref := range pg.cols {
		cols[i] = *in.codes[ref]
	}
	acc = pg.newAcc(in.groups, true)
	pg.fold(pp, &acc, rows{cols: cols, n: in.n, ids: in.ids, certain: in.mask})
	if !slices.Equal(acc.cnt, counts) {
		t.Fatalf("%s: interval fold counted %v, oracle %v", label, acc.cnt, counts)
	}
	for k, a := range in.aggs {
		if a.Func == Count {
			continue
		}
		s := pg.slotOf[k]
		kind := pg.slots[s].kind
		ivs := refBounds(a.Expr, in.n, in.ivs)
		los, his := make([]int64, in.n), make([]int64, in.n)
		for i, iv := range ivs {
			switch {
			case in.certain(i):
			case kind == foldSum:
				iv.Lo, iv.Hi = min(iv.Lo, 0), max(iv.Hi, 0) // a false positive contributes nothing
			case kind == foldMax:
				iv.Lo = kind.identity() // and proves nothing about the extreme
			default:
				iv.Hi = kind.identity()
			}
			los[i], his[i] = iv.Lo, iv.Hi
		}
		wantLo, wantHi := refFold(kind, in.groups, in.ids, los), refFold(kind, in.groups, in.ids, his)
		gotLo, gotHi := acc.lo[s*in.groups:(s+1)*in.groups], acc.hi[s*in.groups:(s+1)*in.groups]
		if !slices.Equal(gotLo, wantLo) || !slices.Equal(gotHi, wantHi) {
			t.Fatalf("%s: %s(%v) bounds [%v, %v], oracle [%v, %v]", label, a.Func, a.Expr, gotLo, gotHi, wantLo, wantHi)
		}
		if magnitude(a.Expr, 1<<17) > 1<<60 {
			continue // the tree may wrap; containment means nothing then
		}
		// Exact is inside interval: row by row, and — for the fold over any
		// set between the certain rows and all rows — in aggregate.
		exact := refEval(a.Expr, in.n, in.exact)
		for i, v := range exact {
			if !ivs[i].Contains(v) {
				t.Fatalf("%s: %v row %d = %d outside its interval %v", label, a.Expr, i, v, ivs[i])
			}
			if !in.certain(i) && i%2 == 0 {
				exact[i] = kind.identity() // this false positive was refined away
			}
		}
		for g, v := range refFold(kind, in.groups, in.ids, exact) {
			if counts[g] > 0 && (v < gotLo[g] || v > gotHi[g]) {
				t.Fatalf("%s: %s(%v) group %d = %d outside [%d, %d]", label, a.Func, a.Expr, g, v, gotLo[g], gotHi[g])
			}
		}
	}

	byMask := rows{cols: make([]colBind, len(cols)), n: in.n, ids: in.ids, certain: in.mask, by: in.cands}
	for i, ref := range pg.cols {
		byMask.cols[i] = *in.codes[ref]
		byMask.cols[i].codes, byMask.cols[i].packed = nil, in.packed[ref]
	}
	for _, interval := range []bool{true, false} {
		got := pg.newAcc(in.groups, interval)
		pg.fold(pp, &got, byMask)
		if !slices.Equal(got.cnt, acc.cnt) || !slices.Equal(got.lo, acc.lo) || interval && !slices.Equal(got.hi, acc.hi) {
			t.Fatalf("%s: the fold by mask (interval %v) counted %v and folded [%v, %v], the fold by code list %v and [%v, %v]",
				label, interval, got.cnt, got.lo, got.hi, acc.cnt, acc.lo, acc.hi)
		}
		got.release()
	}
	acc.release()
}

// TestExprProgramMatchesReference is the compiled program's property test:
// for random statements, every exact aggregate and every interval
// accumulator equals the tree-walking oracle's — at the block edges, across
// worker counts and morsel sizes, grouped and not, masked and not — and,
// for every one of them, by code list and by packed column + survivor mask
// (widths 1 to 64; full, holed, dense, sparse and empty granules, a short
// last one; one work-group and several).
func TestExprProgramMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	sizes := []int{0, 1, exprBlock - 1, exprBlock, exprBlock + 1, 3*exprBlock + 7, 100_000} // the last spans three device work-groups
	for _, n := range sizes {
		trials := 12
		if n > 10*exprBlock {
			trials = 3
		}
		for trial := 0; trial < trials; trial++ {
			in := randInput(t, rng, n, 1+rng.Intn(5), trial%2 == 1, trial%3 > 0)
			for _, workers := range []int{1, 2, 4} {
				for _, morsel := range []int{0, 100, exprBlock, 4 * exprBlock} {
					if n > 10*exprBlock && morsel == 100 && workers > 1 {
						continue
					}
					pp := par.P{Threads: 4, Workers: workers, Chunk: morsel}
					in.check(t, pp, fmt.Sprintf("n=%d trial=%d workers=%d morsel=%d", n, trial, workers, morsel))
				}
			}
		}
	}
}

// Equal sub-trees and equal folds exist once: Q1's eight aggregates over
// four columns are nine registers and five accumulators.
func TestExprProgramShares(t *testing.T) {
	discPrice := MulScaled(Col("l_extendedprice"), Sub(Const(100), Col("l_discount")), 100)
	charge := MulScaled(discPrice, Add(Const(100), Col("l_tax")), 100)
	pg := compileAggs([]AggSpec{
		{Func: Sum, Expr: Col("l_quantity")},
		{Func: Sum, Expr: Col("l_extendedprice")},
		{Func: Sum, Expr: discPrice},
		{Func: Sum, Expr: charge},
		{Func: Avg, Expr: Col("l_quantity")},
		{Func: Avg, Expr: Col("l_extendedprice")},
		{Func: Avg, Expr: Col("l_discount")},
		{Func: Count},
	})
	if len(pg.cols) != 4 || len(pg.code) != 9 || len(pg.slots) != 5 {
		t.Fatalf("Q1 compiled to %d columns, %d registers, %d accumulators; want 4, 9, 5", len(pg.cols), len(pg.code), len(pg.slots))
	}
	if !slices.Equal(pg.slotOf, []int{0, 1, 2, 3, 0, 1, 4, -1}) {
		t.Fatalf("aggregate slots %v", pg.slotOf)
	}
	// Counts alone compile to no code at all.
	if pg := compileAggs([]AggSpec{{Func: Count}, {Func: Count, Expr: Col("x")}}); len(pg.code)+len(pg.slots) != 0 {
		t.Fatalf("counts compiled to %d registers, %d accumulators", len(pg.code), len(pg.slots))
	}
}

// The interval product divides only its least and greatest corner product.
// That equals ar.Interval.MulScaled — which divides all four corners — for
// every sign combination of the operands and either sign of the scale.
func TestExprIntervalMulSigns(t *testing.T) {
	ends := []ar.Interval{{Lo: 3, Hi: 9}, {Lo: -9, Hi: -3}, {Lo: -4, Hi: 7}, {Lo: 0, Hi: 5}, {Lo: -5, Hi: 0}, {Lo: 6, Hi: 6}, {Lo: -1, Hi: 1 << 40}}
	for _, a := range ends {
		for _, b := range ends {
			for _, scale := range []int64{1, 2, 7, 100, -1, -3} {
				ins := instr{op: opMulScaled, a: 0, b: 1, k: scale}
				lo := [][]int64{{a.Lo}, {b.Lo}}
				hi := [][]int64{{a.Hi}, {b.Hi}}
				var gotLo, gotHi [1]int64
				evalInterval(&ins, lo, hi, gotLo[:], gotHi[:])
				if want := a.MulScaled(b, scale); gotLo[0] != want.Lo || gotHi[0] != want.Hi {
					t.Errorf("%v * %v / %d = [%d,%d], want %v", a, b, scale, gotLo[0], gotHi[0], want)
				}
			}
		}
	}
}

// TestAggregateAllocsIndependentOfN: a Q1-shaped aggregation — bounds and
// exact, 2 group keys pre-grouped on the device and refined, the 8
// aggregates — allocates the same objects at n and 4n: registers and
// accumulators are blocks from the arena, and so are the group-id vectors,
// the only things on the path as long as the input.
func TestAggregateAllocsIndependentOfN(t *testing.T) {
	discPrice := MulScaled(Col("price"), Sub(Const(100), Col("disc")), 100)
	aggs := []AggSpec{
		{Func: Sum, Expr: Col("qty")}, {Func: Sum, Expr: Col("price")}, {Func: Sum, Expr: discPrice},
		{Func: Sum, Expr: MulScaled(discPrice, Add(Const(100), Col("tax")), 100)},
		{Func: Avg, Expr: Col("qty")}, {Func: Avg, Expr: Col("price")}, {Func: Avg, Expr: Col("disc")},
		{Func: Count},
	}
	pg := compileAggs(aggs)
	pp := par.P{Threads: 2, Workers: 2}
	measure := func(n int) (objects, bytes float64) {
		rng := rand.New(rand.NewSource(3))
		ctx := &exprCtx{n: n, vals: map[ColRef][]int64{}}
		cols := make([]colBind, len(pg.cols))
		for i, ref := range pg.cols {
			vals, codes := make([]int64, n), make([]uint64, n)
			for r := range vals {
				codes[r] = uint64(rng.Intn(1000))
				vals[r] = int64(codes[r])<<2 + 1
			}
			ctx.vals[ref] = vals
			cols[i] = colBind{codes: codes, shift: 2, err: 3}
		}
		flag, status := make([]int64, n), make([]int64, n)
		for r := range flag {
			flag[r], status[r] = int64(rng.Intn(3)), int64(rng.Intn(2))
		}
		var keyCols []*bwd.Column
		for _, vals := range [][]int64{flag, status} {
			col, err := bwd.Decompose(bat.NewDense(vals, bat.Width32), 32, nil)
			if err != nil {
				t.Fatal(err)
			}
			keyCols = append(keyCols, col)
		}
		cands := ar.SelectApprox(nil, keyCols[0], bwd.ApproxRange{Full: true})
		mask := make([]uint64, (n+63)/64)
		for i := range mask {
			mask[i] = rng.Uint64()
		}
		run := func() {
			acc := pg.newAcc(1, true)
			pg.fold(pp, &acc, rows{cols: cols, n: n, certain: mask})
			acc.release()
			pre := ar.GroupApprox(nil, keyCols, cands)
			grouping, keys, err := ar.GroupRefine(pp, nil, pre, cands)
			if err != nil || grouping.NGroups != 6 {
				t.Fatalf("grouping: %d groups, %v", grouping.NGroups, err)
			}
			aggregateRows(nil, pp, pg, ctx, nil, grouping, keys, true)
			mem.U32.Put(grouping.IDs)
			pre.Release()
		}
		// AllocsPerRun measures on one P: warm the arena on that one (a
		// buffer parked in another P's private pool slot is out of reach).
		// And a collection empties the pools, after which the next n-length
		// request would count as an allocation of the path: none meanwhile.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		for i := 0; i < 3; i++ {
			run()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		objects = testing.AllocsPerRun(10, run)
		runtime.ReadMemStats(&after)
		return objects, float64(after.TotalAlloc-before.TotalAlloc) / 11 // AllocsPerRun warms up with one more run
	}
	// Both sizes span several device work-groups and morsels, so both pay
	// the same fixed fan-out.
	smallObj, smallBytes := measure(70_000)
	bigObj, bigBytes := measure(280_000)
	if mem.RaceEnabled {
		t.Skipf("%.0f vs %.0f objects under -race (sync.Pool drops Puts); strict guard runs in normal builds", smallObj, bigObj)
	}
	if smallObj != bigObj || bigBytes-smallBytes > 64<<10 {
		t.Fatalf("aggregation allocates %.0f objects / %.0f B at n, %.0f / %.0f B at 4n: something on the path grows with the input",
			smallObj, smallBytes, bigObj, bigBytes)
	}
}

// An average's bounds must hold when the sum is negative: dividing the low
// sum bound by the larger count pulls it toward zero, above the true
// average. Western longitudes (negative fixed-point values) under a range
// predicate whose boundary buckets hold false positives: the exact avg, sum
// and count lie inside their phase-A intervals for every range.
func TestApproxAvgBoundsNegativeSums(t *testing.T) {
	c := NewCatalog(device.PaperSystem())
	rng := rand.New(rand.NewSource(5))
	const n = 4000
	k, lon := make([]int64, n), make([]int64, n)
	for i := range k {
		k[i] = int64(rng.Intn(1024))
		lon[i] = -int64(rng.Intn(200_000)) - 1
	}
	tbl := NewTable("west")
	for name, vals := range map[string][]int64{"k": k, "lon": lon} {
		if err := tbl.AddColumn(name, bat.NewDense(vals, bat.Width32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	for col, bits := range map[string]uint{"k": 6, "lon": 10} {
		if _, err := c.Decompose("west", col, bits); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 60; trial++ {
		lo := int64(rng.Intn(1024))
		q := Query{
			Table:   "west",
			Filters: []Filter{{Col: "k", Lo: lo, Hi: lo + int64(rng.Intn(120))}},
			Aggs: []AggSpec{
				{Name: "avg", Func: Avg, Expr: Col("lon")},
				{Name: "sum", Func: Sum, Expr: Col("lon")},
				{Name: "n", Func: Count},
			},
		}
		res, err := c.ExecAR(context.Background(), q, ExecOpts{})
		if err != nil {
			t.Fatal(err)
		}
		for i, iv := range res.Approx.Aggs {
			if v := res.Rows[0].Vals[i]; !iv.Contains(v) {
				t.Fatalf("k in [%d,%d]: exact %s = %d outside its phase-A bounds %v (count %v, sum %v)",
					q.Filters[0].Lo, q.Filters[0].Hi, q.Aggs[i].Name, v, iv, res.Approx.Count, res.Approx.Aggs[1])
			}
		}
	}
}
