package plan

import (
	"context"
	"fmt"
	"maps"
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
// per column its binding as phase A's fold by mask reads it — the table's
// decomposition, codes and residuals, through a key for the dimension column
// — the exact values by table row code and residual make, the codes the
// candidates read, the exact values they approximate, and the intervals the
// oracle reads. The n rows are the
// candidates a scan of a longer table left (cands, still carrying its
// survivor mask; rows lists them; sel is the table's survivor column, 1 at a
// candidate's row that certainly qualifies and 2 at one that may not, and
// selCol its decomposition). Masked, some candidates are uncertain, and the
// scans for each of the two values split cands as ar.Candidates.Split does:
// sure and unsure, each in cands' candidate order restricted to its rows.
type exprInput struct {
	aggs   []AggSpec
	n      int
	binds  map[ColRef]colBind
	tails  map[ColRef][]int64
	codes  map[ColRef][]uint64
	cands  *ar.Candidates
	sel    []int64
	selCol *bwd.Column
	rows   []bat.OID
	exact  map[ColRef][]int64
	ivs    map[ColRef][]ar.Interval
	ids    []uint32 // nil: ungrouped
	groups int
	// The group key, a column whose value at a candidate's row is key(id)
	// for the candidate's id and at a dropped row one no candidate holds:
	// its values by row, the same decomposed with residual bits, and packed
	// resident, the codes its values.
	keyTails             []int64
	keyRefined, keyCodes *bwd.Column
	keyBase, keySpread   int64
	sure                 *ar.Candidates // nil: every candidate certain
	unsure               *ar.Candidates
}

// randSurvivors draws the table behind n candidates: which of its rows
// survived — granule words that are full, lack one row, lack a few, are
// dense, sparse or empty, in random order, the last granule short — and the
// candidate set a scan for exactly those rows leaves, the survivor column
// it scanned (1 at a surviving row; masked, 2 at a third of them or at nine
// in ten, the uncertain ones, so that either set's blocks may be dense) and
// its decomposition. A fold reads the mask
// in blocks of exprBlock rows, and each block draws its words from all six
// kinds, from the four dense ones only or from the two sparse ones: blocks
// on both sides of denseFold.
func randSurvivors(t testing.TB, rng *rand.Rand, n int, masked bool) (*ar.Candidates, []int64, *bwd.Column) {
	sel := make([]int64, 0, 2*n+64)
	kinds := func() int { return rng.Intn(6) }
	for left := n; left > 0 || len(sel) == 0; {
		if len(sel)%exprBlock == 0 {
			kinds = [](func() int){
				func() int { return rng.Intn(6) },
				func() int { return rng.Intn(4) },
				func() int { return 4 + rng.Intn(2) },
			}[rng.Intn(3)]
		}
		word := ^uint64(0)
		switch kinds() {
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
	share := []float64{1.0 / 3, 0.9}[rng.Intn(2)] // of the survivors, uncertain
	for r := 0; masked && r < len(sel); r++ {
		if sel[r] == 1 && rng.Float64() < share {
			sel[r] = 2
		}
	}
	col, err := bwd.Decompose(sel, bat.Width32, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	cands := ar.SelectApprox(col, col.Relax(1, 2))
	if cands.Len() != n {
		t.Fatalf("the survivor fixture holds %d candidates, want %d", cands.Len(), n)
	}
	return cands, sel, col
}

func sumOf(vals []int64) (sum int64) {
	for _, v := range vals {
		sum += v
	}
	return sum
}

func randInput(t testing.TB, rng *rand.Rand, n, depth int, grouped, masked bool) *exprInput {
	in := &exprInput{n: n, groups: 1, binds: map[ColRef]colBind{}, tails: map[ColRef][]int64{},
		codes: map[ColRef][]uint64{}, exact: map[ColRef][]int64{}, ivs: map[ColRef][]ar.Interval{}}
	in.cands, in.sel, in.selCol = randSurvivors(t, rng, n, masked)
	in.rows = in.cands.IDs()
	scanned := len(in.sel)
	survived := make([]bool, scanned)
	for _, id := range in.rows {
		survived[id] = true
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
		dec := bwd.Decomposition{Base: rng.Int63n(3000) - 2000, ResBits: uint(rng.Intn(3) * rng.Intn(5))}
		b := colBind{col: &bwd.Column{Dec: dec}, err: dec.Err()}
		// The column as its table packs it, at a width that decodes through
		// every path (one word, a straddling value, a whole word); the codes
		// stay small enough for the oracle's arithmetic.
		width := []uint{1, 6, 9, 24, 63, 64}[rng.Intn(6)]
		at := func(row int) int { return row }
		table := make([]uint64, scanned)
		if ref.IsDim() {
			// The dimension's column, read through a key: a surviving row's key
			// joins a random dimension row, a dropped row's has no partner — were
			// it read, it would address no code.
			dimRows := 1 + rng.Intn(300)
			key := &bwd.Key{Tails: make([]int64, scanned), Base: rng.Int63n(1000), Len: dimRows}
			for r := range key.Tails {
				key.Tails[r] = key.Base + rng.Int63n(int64(dimRows))
				if !survived[r] {
					key.Tails[r] = []int64{key.Base - 1, key.Base + int64(dimRows)}[rng.Intn(2)]
				}
			}
			b.key, table = key, make([]uint64, dimRows)
			at = func(row int) int { pos, _ := key.At(row); return pos }
		}
		res, tails := make([]uint64, len(table)), make([]int64, len(table))
		for r := range table {
			table[r] = uint64(rng.Intn(400)) & bitpack.Mask(width)
			if !ref.IsDim() && !survived[r] {
				// A dropped row holds the column's largest or smallest code:
				// were it folded, it would move every sum, extreme and count.
				table[r] = bitpack.Mask(width) * uint64(rng.Intn(2))
			}
			res[r] = uint64(rng.Int63n(b.err + 1))
			tails[r] = dec.Base + int64(table[r]<<dec.ResBits|res[r])
		}
		b.col.Approx = bitpack.Pack(width, table)
		if dec.ResBits > 0 {
			b.col.Residual = bitpack.Pack(dec.ResBits, res)
		}
		codes, exact, ivs := make([]uint64, n), make([]int64, n), make([]ar.Interval, n)
		for i, id := range in.rows {
			codes[i] = table[at(int(id))]
			lo := dec.Base + int64(codes[i]<<dec.ResBits)
			ivs[i] = ar.Interval{Lo: lo, Hi: lo + b.err}
			exact[i] = tails[at(int(id))]
		}
		in.binds[ref], in.tails[ref], in.codes[ref], in.exact[ref], in.ivs[ref] = b, tails, codes, exact, ivs
	}
	if grouped {
		// Both sides of interleaveGroups, counted with a fold's sink and without.
		in.groups = []int{1, 4, interleaveGroups - 1, interleaveGroups, interleaveGroups + 1, 300, 1 + rng.Intn(9)}[rng.Intn(7)]
		in.ids = make([]uint32, n)
		for i := range in.ids {
			in.ids[i] = uint32(rng.Intn(in.groups))
		}
		// A spread past ar.DirectBits keys the fold through its hash table.
		in.keyBase, in.keySpread = rng.Int63n(1000)-500, []int64{1, 4099}[rng.Intn(2)]
		offs := make([]uint64, scanned)
		for r := range offs {
			offs[r] = uint64(in.groups) * uint64(in.keySpread) // no candidate's key
		}
		for i, id := range in.rows {
			offs[id] = uint64(in.ids[i]) * uint64(in.keySpread)
		}
		in.keyTails = make([]int64, scanned)
		for r, off := range offs {
			in.keyTails[r] = in.keyBase + int64(off)
		}
		const bits = 21
		res := uint(3 * rng.Intn(2))
		codes, resid := make([]uint64, scanned), make([]uint64, scanned)
		for r, off := range offs {
			codes[r], resid[r] = off>>res, off&bitpack.Mask(res)
		}
		in.keyRefined = &bwd.Column{Dec: bwd.Decomposition{Base: in.keyBase, TotalBits: bits, ApproxBits: bits - res, ResBits: res},
			Approx: bitpack.Pack(bits-res, codes), Residual: bitpack.Pack(res, resid)}
		in.keyCodes = &bwd.Column{Dec: bwd.Decomposition{Base: in.keyBase, TotalBits: bits, ApproxBits: bits}, Approx: bitpack.Pack(bits, offs)}
	}
	if masked {
		in.sure = ar.SelectApprox(in.selCol, in.selCol.Relax(1, 1))
		in.unsure = ar.SelectApprox(in.selCol, in.selCol.Relax(2, 2))
	}
	return in
}

// certain reports whether candidate i certainly qualifies.
func (in *exprInput) certain(i int) bool {
	return in.sel[in.rows[i]] == 1
}

// splitInputs is the ungrouped fold's input over the candidates: one by
// cands' mask, or — masked — the certain and the uncertain set.
func (in *exprInput) splitInputs(cols []colBind) []rows {
	if in.sure == nil {
		return []rows{{cols: cols, by: in.cands}}
	}
	return []rows{{cols: cols, by: in.sure}, {cols: cols, uncertain: true, by: in.unsure}}
}

// byID lays the groups of a grouped fold over candidates whose ids, in
// candidate order, are ids out in id order, after checking that the fold
// numbered them as a serial pass over the candidates meets them: its keys, in
// number order, are key(id) of the ids in order of first appearance.
func (in *exprInput) byID(t *testing.T, pg *program, acc *aggAcc, keys [][]int64, ids []uint32, what string) aggAcc {
	t.Helper()
	var firsts []uint32
	seen := map[uint32]bool{}
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			firsts = append(firsts, id)
		}
	}
	if len(keys) != 1 || len(keys[0]) != len(firsts) || acc.groups != len(firsts) {
		t.Fatalf("%s: %d groups, a serial pass meets %d", what, acc.groups, len(firsts))
	}
	out := pg.newAcc(in.groups, false)
	for g, id := range firsts {
		if want := in.keyBase + int64(id)*in.keySpread; keys[0][g] != want {
			t.Fatalf("%s: group %d has key %d, a serial pass numbers %d there", what, g, keys[0][g], want)
		}
		out.cnt[id] = acc.cnt[g]
		for s := range pg.slots {
			out.lo[s*in.groups+int(id)] = acc.lo[s*acc.groups+g]
		}
	}
	return out
}

// check folds the compiled program over the input under pp — exact values
// by the mask of a host set over the candidates' rows, every column bound to
// its values by row, and by the mask of a device set a refinement narrowed,
// every column bound to code and residual; then intervals and the low side
// alone with every column bound packed and read through the candidates' mask
// — a dimension column always through its key — and holds every accumulator
// and every aggregate to the oracle; then the exact leg's fold — codes that
// are the values, no uncertain candidate — by mask. The exact folds take whole
// blocks and sink where no column is read through a key.
func (in *exprInput) check(t *testing.T, pp par.P, label string) {
	t.Helper()
	pg := compileAggs(in.aggs)
	counts := refFold(foldSum, 1, nil, fill(make([]int64, in.n), 1))
	// oracle holds every aggregate of an exact fold into acc to the
	// tree-walker over n rows of vals, grouped by ids.
	oracle := func(what string, acc *aggAcc, n int, ids []uint32, vals map[ColRef][]int64) {
		t.Helper()
		counts := refFold(foldSum, in.groups, ids, fill(make([]int64, n), 1))
		for k, a := range in.aggs {
			var want []int64
			if a.Func != Count {
				kind := pg.slots[pg.slotOf[k]].kind
				want = refFold(kind, in.groups, ids, refEval(a.Expr, n, vals))
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
				if got := pg.value(acc, k, g); got != w {
					t.Fatalf("%s, %s: %s(%v) group %d = %d, oracle %d", label, what, a.Func, a.Expr, g, got, w)
				}
			}
		}
	}
	// exactBy folds the program over the candidates set holds, every column
	// bound to its values by row, or (refined) to code and residual, and
	// holds it to the oracle over the same candidates, in set's order.
	index := make(map[bat.OID]int, in.n)
	for i, id := range in.rows {
		index[id] = i
	}
	exactBy := func(what string, set *ar.Candidates, refined bool) {
		t.Helper()
		seg := segment{set: set, binds: map[ColRef]colBind{}}
		for ref, b := range in.binds {
			if b.err = 0; !refined {
				b = colBind{tails: in.tails[ref], key: b.key}
			}
			seg.binds[ref] = b
		}
		seg.binds[ColRef{Name: "grp"}] = colBind{tails: in.keyTails}
		if refined {
			seg.binds[ColRef{Name: "grp"}] = colBind{col: in.keyRefined}
		}
		vals, ids := map[ColRef][]int64{}, []uint32(nil)
		for _, id := range set.IDs() {
			i := index[id]
			for ref, exact := range in.exact {
				vals[ref] = append(vals[ref], exact[i])
			}
			if in.ids != nil {
				ids = append(ids, in.ids[i])
			}
		}
		if in.ids == nil {
			acc := pg.newAcc(1, false)
			segments{seg}.fold(pp, pg, &acc)
			oracle(what, &acc, set.Len(), nil, vals)
			acc.release()
			return
		}
		var acc aggAcc
		keys := segments{seg}.fold(pp, pg, &acc, "grp")
		got := in.byID(t, pg, &acc, keys, ids, what)
		oracle(what, &got, set.Len(), ids, vals)
		got.release()
		acc.release()
	}

	host, err := ar.SelectExact(pp, len(in.sel), bwd.Exactly(nil, in.sel, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	exactBy("values by a host set's mask", host, false)
	host.Release()
	// The refinement keeps every candidate of a block of rows, most of them
	// or a few, so the narrowed set holds dense blocks and sparse ones.
	refined := ar.SelectApprox(in.selCol, in.selCol.Relax(1, 2))
	rng := rand.New(rand.NewSource(int64(in.n)))
	keep, mode := make([]int64, len(in.sel)), 0
	for r := range keep {
		if r%exprBlock == 0 {
			mode = rng.Intn(3)
		}
		if mode == 0 || mode == 1 && rng.Intn(16) > 0 || mode == 2 && rng.Intn(16) == 0 {
			keep[r] = 1
		}
	}
	if err := refined.Narrow(pp, bwd.Exactly(nil, keep, 1, 1)); err != nil {
		t.Fatal(err)
	}
	exactBy("code and residual by a refined set's mask", refined, true)
	refined.Release()

	cols := make([]colBind, len(pg.cols))
	for i, ref := range pg.cols {
		cols[i] = in.binds[ref]
	}
	byMask := in.splitInputs(cols)
	for _, interval := range []bool{true, false} {
		acc := pg.newAcc(1, interval)
		pg.fold(pp, &acc, nil, byMask...)
		if !slices.Equal(acc.cnt, counts) {
			t.Fatalf("%s: interval fold (interval %v) counted %v, oracle %v", label, interval, acc.cnt, counts)
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
			wantLo, wantHi := refFold(kind, 1, nil, los), refFold(kind, 1, nil, his)
			gotLo := acc.lo[s : s+1]
			if !interval {
				if !slices.Equal(gotLo, wantLo) {
					t.Fatalf("%s: %s(%v) low side alone %v, oracle %v", label, a.Func, a.Expr, gotLo, wantLo)
				}
				continue
			}
			gotHi := acc.hi[s : s+1]
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
			for g, v := range refFold(kind, 1, nil, exact) {
				if counts[g] > 0 && (v < gotLo[g] || v > gotHi[g]) {
					t.Fatalf("%s: %s(%v) group %d = %d outside [%d, %d]", label, a.Func, a.Expr, g, v, gotLo[g], gotHi[g])
				}
			}
		}
		acc.release()
	}

	resident := map[ColRef][]int64{}
	packed := segment{set: in.cands, binds: map[ColRef]colBind{{Name: "grp"}: {col: in.keyCodes}}}
	for _, ref := range pg.cols {
		b := in.binds[ref]
		packed.binds[ref] = colBind{col: &bwd.Column{Dec: bwd.Decomposition{Base: b.col.Dec.Base}, Approx: b.col.Approx}, key: b.key}
		vals := make([]int64, in.n)
		for k, code := range in.codes[ref] {
			vals[k] = b.col.Dec.Base + int64(code)
		}
		resident[ref] = vals
	}
	if in.ids != nil {
		var acc aggAcc
		keys := segments{packed}.fold(pp, pg, &acc, "grp")
		got := in.byID(t, pg, &acc, keys, in.ids, "exact leg by mask")
		oracle("exact leg by mask", &got, in.n, in.ids, resident)
		got.release()
		acc.release()
		return
	}
	for _, interval := range []bool{false, true} {
		acc := pg.newAcc(1, interval)
		pg.fold(pp, &acc, nil, pg.bind(packed))
		oracle(fmt.Sprintf("exact leg by mask (interval %v)", interval), &acc, in.n, nil, resident)
		if interval && !slices.Equal(acc.hi, acc.lo) {
			t.Fatalf("%s: the exact leg's fold by mask bounds [%v, %v], want points", label, acc.lo, acc.hi)
		}
		acc.release()
	}
}

// TestExprProgramMatchesReference is the compiled program's property test:
// for random statements, every exact aggregate and every interval
// accumulator equals the tree-walking oracle's — at the block edges, across
// worker counts and morsel sizes, grouped and not (1 to 300 groups, both
// sides of interleaveGroups), masked and not — a masked input split into its
// certain and its uncertain candidates, folded apart — every column read by a
// survivor mask (widths 1 to 64; full, holed, dense, sparse and empty
// granules, a short last one; blocks on both sides of denseFold; one
// work-group and several), a dimension column through a key whose dropped
// rows have no partner: exact tails by a host set's mask, code and residual
// by the mask of a set a refinement narrowed, codes as intervals, and the
// exact leg's codes — the exact folds' dense blocks sinking dropped rows
// that hold the extreme values unless a column is read through a key.
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

// TestAggregateAllocsIndependentOfN: a Q1-shaped aggregation — bounds over
// the certain and the uncertain candidates a residual filter's split leaves,
// and exact, 2 group keys pre-grouped on the device, the 8 aggregates folded
// per key — packed codes, then values — over a segment whose columns are
// bound to values by row and to code and residual — allocates the same
// objects at n and 4n: registers, accumulators and key tables are blocks from
// the arena, and nothing on the path is as long as the input.
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
		cols := make([]colBind, len(pg.cols))
		binds := map[ColRef]colBind{}
		ones := make([]uint64, n)
		for r := range ones {
			ones[r] = 1
		}
		res := bitpack.Pack(2, ones)
		for i, ref := range pg.cols {
			vals, codes := make([]int64, n), make([]uint64, n)
			for r := range vals {
				codes[r] = uint64(rng.Intn(1000))
				vals[r] = int64(codes[r])<<2 + 1
			}
			col := &bwd.Column{Dec: bwd.Decomposition{ResBits: 2}, Approx: bitpack.Pack(10, codes), Residual: res}
			cols[i] = colBind{col: col, err: 3}
			binds[ref] = colBind{tails: vals}
			if i%2 == 1 {
				binds[ref] = colBind{col: col}
			}
		}
		flag, status := make([]int64, n), make([]int64, n)
		for r := range flag {
			flag[r], status[r] = int64(rng.Intn(3)), int64(rng.Intn(2))
		}
		var keyCols []*bwd.Column
		for _, vals := range [][]int64{flag, status} {
			col, err := bwd.Decompose(vals, bat.Width32, 32, nil)
			if err != nil {
				t.Fatal(err)
			}
			keyCols = append(keyCols, col)
		}
		cands := ar.SelectApprox(keyCols[0], bwd.ApproxRange{Full: true})
		filterVals := make([]int64, n)
		for r := range filterVals {
			filterVals[r] = int64(rng.Intn(1024))
		}
		filter, err := bwd.Decompose(filterVals, bat.Width32, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			filtered := ar.SelectApprox(filter, filter.Relax(100, 300))
			sure, unsure := filtered.Split()
			acc := pg.newAcc(1, true)
			pg.fold(pp, &acc, nil, rows{cols: cols, by: sure}, rows{cols: cols, uncertain: true, by: unsure})
			acc.release()
			filtered.Release()
			ar.GroupApprox(keyCols, cands)
			// Grouped by the packed codes through the direct table, and by the
			// values through the hash table.
			for _, keyed := range []map[ColRef]colBind{
				{{Name: "flag"}: {col: keyCols[0]}, {Name: "status"}: {col: keyCols[1]}},
				{{Name: "flag"}: {tails: flag}, {Name: "status"}: {tails: status}},
			} {
				maps.Copy(keyed, binds)
				segs := segments{{set: cands, binds: keyed}}
				var acc aggAcc
				keys := segs.fold(pp, pg, &acc, "flag", "status")
				if acc.groups != 6 {
					t.Fatalf("grouping: %d groups", acc.groups)
				}
				aggregateRows(pg, &acc, keys, true)
				acc.release()
			}
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
		if err := tbl.AddColumn(name, vals, bat.Width32); err != nil {
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
