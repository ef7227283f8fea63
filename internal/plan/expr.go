// The compiled form of a statement's aggregate expressions: the paper's
// "fused, statically expanded loop" (§V-C) on the host. The aggregates of
// one statement compile once into one flat register program; every place
// that needs their values — the phase-A bounds (approxAnswer), an exact
// leg's one aggregation (exactFold), the exact aggregation of the shared
// tail (aggregateRows) and a classic leg's degenerate phase-A answer
// (exactAnswer) — folds that program over its rows a block at a time,
// straight into the accumulators. No intermediate is ever as long as the
// input: a worker holds one block of each register.
package plan

import (
	"math"
	"slices"
	"unsafe"

	"repro/internal/ar"
	"repro/internal/bitpack"
	"repro/internal/bwd"
	"repro/internal/mem"
	"repro/internal/par"
)

// exprBlock is how many rows the evaluators process at a time: small enough
// that a block of every register of a TPC-H-sized program stays in the L1/L2
// cache between the operator that writes it and the one that reads it,
// large enough to amortize the per-operator dispatch. It is a property of
// the loop, not a setting.
const exprBlock = 1024

// opcode is the operator of one program register — and of a binExpr node,
// which names its operator the same way.
type opcode uint8

const (
	opCol opcode = iota
	opConst
	opAdd
	opSub
	opMulScaled
	opCaseRange
)

// instr defines one register. Its operands are registers defined earlier,
// so two instrs are equal exactly when the sub-trees they compute are
// structurally equal — which is how the compiler shares them.
type instr struct {
	op      opcode
	a, b, c int   // operand registers; opCaseRange: condition, then, else
	k       int64 // opConst: the value; opMulScaled: the scale
	lo, hi  int64 // opCaseRange: then where lo <= a <= hi
	col     int   // opCol: index into program.cols
}

// foldKind is how an accumulator combines the values of its register.
type foldKind uint8

const (
	foldSum foldKind = iota
	foldMin
	foldMax
)

// identity is the value a fold starts from.
func (k foldKind) identity() int64 {
	switch k {
	case foldMin:
		return math.MaxInt64
	case foldMax:
		return math.MinInt64
	}
	return 0
}

func (k foldKind) combine(a, b int64) int64 {
	switch k {
	case foldMin:
		return min(a, b)
	case foldMax:
		return max(a, b)
	}
	return a + b
}

// slot is one accumulator: a fold over one register. Aggregates that need
// the same fold of the same register (sum(x) and avg(x)) share a slot.
type slot struct {
	kind foldKind
	reg  int
}

// program is the compiled form of a statement's aggregates. Register r is
// computed by code[r]; a scalar register holds one value for the whole
// input (a constant, or an operator over constants) and is never widened to
// a vector. Row counts are accumulated beside the slots, once, for count
// and avg. A program is immutable once compiled and shared by every leg of
// its statement.
type program struct {
	aggs   []AggSpec
	cols   []ColRef // the distinct columns the expressions read
	code   []instr
	scalar []bool
	slots  []slot
	slotOf []int // per aggregate; -1 for count
}

// compileAggs compiles the aggregates of one statement (already shape
// checked: every aggregate but count has an expression). A statement of
// counts compiles to a program without code.
func compileAggs(aggs []AggSpec) *program {
	pg := &program{aggs: aggs, slotOf: make([]int, len(aggs))}
	for k, a := range aggs {
		if a.Func == Count {
			pg.slotOf[k] = -1
			continue
		}
		want := slot{kind: foldSum, reg: a.Expr.compile(pg)}
		switch a.Func {
		case Min:
			want.kind = foldMin
		case Max:
			want.kind = foldMax
		}
		if pg.slotOf[k] = slices.Index(pg.slots, want); pg.slotOf[k] < 0 {
			pg.slotOf[k] = len(pg.slots)
			pg.slots = append(pg.slots, want)
		}
	}
	return pg
}

// emit returns the register that computes ins, reusing the register of an
// equal instruction. Programs are a handful of instructions long, so the
// search is a scan.
func (pg *program) emit(ins instr) int {
	if r := slices.Index(pg.code, ins); r >= 0 {
		return r
	}
	scalar := ins.op == opConst
	if ins.op > opConst {
		scalar = pg.scalar[ins.a] && pg.scalar[ins.b] && (ins.op != opCaseRange || pg.scalar[ins.c])
	}
	pg.code = append(pg.code, ins)
	pg.scalar = append(pg.scalar, scalar)
	return len(pg.code) - 1
}

func (e colExpr) compile(pg *program) int {
	at := slices.Index(pg.cols, e.ref)
	if at < 0 {
		at = len(pg.cols)
		pg.cols = append(pg.cols, e.ref)
	}
	return pg.emit(instr{op: opCol, col: at})
}

func (e constExpr) compile(pg *program) int {
	return pg.emit(instr{op: opConst, k: int64(e)})
}

func (e binExpr) compile(pg *program) int {
	a := e.a.compile(pg)
	b := e.b.compile(pg)
	return pg.emit(instr{op: e.op, a: a, b: b, k: e.scale})
}

func (e caseExpr) compile(pg *program) int {
	cond := e.cond.compile(pg)
	then := e.then.compile(pg)
	els := e.els.compile(pg)
	return pg.emit(instr{op: opCaseRange, a: cond, b: then, c: els, lo: e.lo, hi: e.hi})
}

// colBind binds one program column for a fold, one of three ways: to its
// exact values (vals); to the approximation codes of its projection, listed
// in candidate order (codes); or to the packed approximation itself
// (packed), read through the survivor mask of the candidate set the fold
// walks (rows.by), a block of granules at a time. From a code a row's
// interval is [base + code<<shift, that + err].
type colBind struct {
	vals   []int64
	codes  []uint64
	packed *bitpack.Array
	base   int64
	shift  uint
	err    int64
}

// rows is the input of one fold: n rows of the bound columns; ids, when set,
// each row's group; certain, when set, the bitmask of rows that certainly
// qualify — a row outside it may turn out a false positive, so it adds to a
// sum only what moves the bound outward and to a minimum's or maximum's
// inner bound nothing. by is set when a column is bound
// packed: the rows are then by's candidates, in candidate order, and the
// fold reaches them through its mask.
type rows struct {
	cols    []colBind
	n       int
	ids     []uint32
	certain []uint64
	by      *ar.Candidates
}

// bindVals binds the program's columns to n rows of exact values.
func (pg *program) bindVals(vals map[ColRef][]int64, n int) rows {
	in := rows{cols: make([]colBind, len(pg.cols)), n: n}
	for i, ref := range pg.cols {
		in.cols[i].vals = vals[ref]
	}
	return in
}

// bindCodes binds the program's columns to the approximate projections over
// cands: packed for a projection that is still only cands' mask, the code
// list otherwise (a dimension column gathered through a join, a set a
// position-addressed operator thinned).
func (pg *program) bindCodes(cands *ar.Candidates, projections map[ColRef]*ar.Projection) rows {
	in := rows{cols: make([]colBind, len(pg.cols)), n: cands.Len()}
	for i, ref := range pg.cols {
		p := projections[ref]
		dec := p.Col.Dec
		in.cols[i] = colBind{base: dec.Base, shift: dec.ResBits, err: dec.Err()}
		if p.ByMask() {
			in.cols[i].packed, in.by = p.Col.Approx, cands
		} else {
			in.cols[i].codes = p.Codes()
		}
	}
	return in
}

// aggAcc is the accumulator state of one aggregation: rows per group, and
// per slot and group the folded low bound — the exact value, when the fold
// ran over exact values only — and, for interval accumulation, the high
// bound. Slots start at their fold's identity, so partial states of
// disjoint row ranges merge by folding them into each other; int64 sums,
// minima and maxima do not depend on the order.
type aggAcc struct {
	groups int
	cnt    []int64
	lo, hi []int64 // [slot*groups+group]; hi is nil for exact accumulation
	buf    []int64 // the arena buffer behind the three
}

func (pg *program) newAcc(groups int, interval bool) aggAcc {
	w := groups * len(pg.slots)
	size := groups + w
	if interval {
		size += w
	}
	buf := mem.I64.GetN(size)
	acc := aggAcc{groups: groups, cnt: buf[:groups], lo: buf[groups : groups+w], buf: buf}
	if interval {
		acc.hi = buf[groups+w:]
	}
	clear(acc.cnt)
	for s, sl := range pg.slots {
		fill(acc.lo[s*groups:(s+1)*groups], sl.kind.identity())
		if interval {
			fill(acc.hi[s*groups:(s+1)*groups], sl.kind.identity())
		}
	}
	return acc
}

func (acc *aggAcc) release() { mem.I64.Put(acc.buf) }

// merge folds the partial state o into acc, element by element.
func (pg *program) merge(acc, o *aggAcc) {
	for g, n := range o.cnt {
		acc.cnt[g] += n
	}
	for i := range o.lo {
		kind := pg.slots[i/acc.groups].kind
		acc.lo[i] = kind.combine(acc.lo[i], o.lo[i])
		if acc.hi != nil {
			acc.hi[i] = kind.combine(acc.hi[i], o.hi[i])
		}
	}
}

// value is aggregate k's exact result for group g. An empty input has the
// single group 0 with no rows; every aggregate over it is 0.
func (pg *program) value(acc *aggAcc, k, g int) int64 {
	cnt := acc.cnt[g]
	switch {
	case cnt == 0:
		return 0
	case pg.aggs[k].Func == Count:
		return cnt
	}
	v := acc.lo[pg.slotOf[k]*acc.groups+g]
	if pg.aggs[k].Func == Avg {
		v /= cnt
	}
	return v
}

// answer is the degenerate phase-A answer an exact accumulation holds: the
// ungrouped aggregates read off its groups — the sum of the group sums, the
// least of the minima, the rows counted — each as a one-point interval (zero
// over no rows, which the combiner skips).
func (pg *program) answer(acc *aggAcc) ApproxAnswer {
	var cnt int64
	for _, n := range acc.cnt {
		cnt += n
	}
	out := ApproxAnswer{Count: ar.Exact(cnt), Aggs: make([]ar.Interval, len(pg.aggs))}
	for k, a := range pg.aggs {
		switch {
		case cnt == 0:
		case a.Func == Count:
			out.Aggs[k] = out.Count
		default:
			s := pg.slotOf[k]
			kind := pg.slots[s].kind
			v := kind.identity()
			for _, x := range acc.lo[s*acc.groups : (s+1)*acc.groups] {
				v = kind.combine(v, x)
			}
			if a.Func == Avg {
				v /= cnt
			}
			out.Aggs[k] = ar.Exact(v)
		}
	}
	return out
}

// bounds is the interval that aggregate k — a sum, min or max — folded to
// over the whole (ungrouped) input; the zero interval over no rows.
func (pg *program) bounds(acc *aggAcc, k int) ar.Interval {
	if acc.cnt[0] == 0 {
		return ar.Interval{}
	}
	s := pg.slotOf[k] * acc.groups
	return ar.Interval{Lo: acc.lo[s], Hi: acc.hi[s]}
}

// frame is the register file of one worker block. lo[r] holds register r's
// values for the rows being evaluated — one value if the register is
// scalar — and hi[r] their upper bounds; for an exact register the two are
// the same slice.
type frame struct {
	s      *mem.Scratch
	lo, hi [][]int64
}

// fold evaluates the program over the rows in and folds every slot into acc.
// The rows split into the P's worker blocks — of positions, or of in.by's
// work-groups, whose slots in candidate order keep ids and certain aligned —
// each folding into its own partial state, merged in block order.
func (pg *program) fold(pp par.P, acc *aggAcc, in rows) {
	units := in.n
	switch {
	case in.n == 0:
		return
	case len(pg.slots) == 0 && in.ids == nil:
		acc.cnt[0] += int64(in.n)
		return
	case in.by != nil:
		units = in.by.WorkGroups()
		pp.Chunk = 1 // the context is polled between work-groups
	case in.n < exprBlock && pp.Chunk <= 0:
		pp.Workers = 1 // not worth a goroutine; the result is the same
	}
	nb := pp.NBlocks(units)
	// A register is exact — its interval degenerate — when every column it
	// reads is: it is then computed once and serves as both bounds.
	exact := make([]bool, len(pg.code))
	for r, ins := range pg.code {
		switch ins.op {
		case opCol:
			exact[r] = in.cols[ins.col].vals != nil || in.cols[ins.col].err == 0
		case opConst:
			exact[r] = true
		default:
			exact[r] = exact[ins.a] && exact[ins.b] && (ins.op != opCaseRange || exact[ins.c])
		}
	}
	frames := make([]frame, nb)
	parts := make([]aggAcc, nb)
	parts[0] = *acc
	for b := range frames {
		regs := make([][]int64, 2*len(pg.code))
		frames[b] = frame{s: mem.GetScratch(), lo: regs[:len(pg.code)], hi: regs[len(pg.code):]}
		if b > 0 {
			parts[b] = pg.newAcc(acc.groups, acc.hi != nil)
		}
	}
	par.RunBlocks(pp, units, func(b, ulo, uhi int) {
		f, part := &frames[b], &parts[b]
		if in.by != nil {
			in.by.Blocks(ulo, uhi, exprBlock/bwd.GranuleRows, func(g0, g1, pos, n int) {
				pg.foldBlock(f, part, in, exact, pos, pos+n, g0, g1)
			})
			return
		}
		for lo := ulo; lo < uhi; lo += exprBlock {
			pg.foldBlock(f, part, in, exact, lo, min(lo+exprBlock, uhi), 0, 0)
		}
	})
	for b := range frames {
		mem.PutScratch(frames[b].s)
		if b > 0 {
			pg.merge(acc, &parts[b])
			parts[b].release()
		}
	}
}

// asCodes views a block register as the decode target of a packed column:
// the codes land where the values they rebase to will stand. int64 and
// uint64 share size, alignment and every bit pattern.
func asCodes(reg []int64) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(reg))), len(reg))
}

// foldBlock evaluates every register over rows [lo,hi) — at most exprBlock
// of them, and for a fold by mask the survivors of granules [g0,g1) — and
// folds the slots' registers into acc.
func (pg *program) foldBlock(f *frame, acc *aggAcc, in rows, exact []bool, lo, hi, g0, g1 int) {
	n := hi - lo
	f.s.Reset()
	for r := range pg.code {
		ins := &pg.code[r]
		if ins.op == opCol {
			c := &in.cols[ins.col]
			if c.vals != nil {
				f.lo[r], f.hi[r] = c.vals[lo:hi], c.vals[lo:hi]
				continue
			}
			low := f.s.I64(n)
			var codes []uint64
			if c.packed != nil {
				codes = asCodes(low)
				in.by.Decode(c.packed, codes, g0, g1)
			} else {
				codes = c.codes[lo:hi]
			}
			for i, code := range codes {
				low[i] = c.base + int64(code<<c.shift)
			}
			f.lo[r], f.hi[r] = low, low
			if c.err != 0 {
				high := f.s.I64(n)
				for i, v := range low {
					high[i] = v + c.err
				}
				f.hi[r] = high
			}
			continue
		}
		w := n
		if pg.scalar[r] {
			w = 1
		}
		out := f.s.I64(w)
		f.lo[r], f.hi[r] = out, out
		if exact[r] {
			evalExact(ins, f.lo, out)
			continue
		}
		f.hi[r] = f.s.I64(w)
		evalInterval(ins, f.lo, f.hi, out, f.hi[r])
	}

	ids := in.ids
	if ids != nil {
		ids = ids[lo:hi]
		for _, g := range ids {
			acc.cnt[g]++
		}
	} else {
		acc.cnt[0] += int64(n)
	}
	g := acc.groups
	for s, sl := range pg.slots {
		for high, into := range [2][]int64{acc.lo, acc.hi} {
			if into == nil {
				continue // exact accumulation has no high side
			}
			vals := f.lo[sl.reg]
			if high == 1 {
				vals = f.hi[sl.reg]
			}
			if len(vals) < n {
				vals = fill(f.s.I64(n), vals[0]) // a scalar, aggregated per row
			}
			if in.certain != nil {
				switch {
				case sl.kind == foldSum:
					vals = clampUncertain(f.s.I64(n), vals, in.certain, lo, high == 1)
				case (sl.kind == foldMax) == (high == 0):
					// The inner bound of an extreme — a maximum's low side,
					// a minimum's high — rests on rows that certainly qualify.
					vals = dropUncertain(f.s.I64(n), vals, in.certain, lo, sl.kind.identity())
				}
			}
			foldInto(sl.kind, into[s*g:(s+1)*g], ids, vals)
		}
	}
}

// stride is the index mask that lets one loop read a register whether it is
// a vector (every row its own value) or a scalar (one value, len 1).
func stride(reg []int64) int {
	if len(reg) == 1 {
		return 0
	}
	return -1
}

// evalExact computes an operator over exact operands into out.
func evalExact(ins *instr, regs [][]int64, out []int64) {
	if ins.op == opConst {
		out[0] = ins.k
		return
	}
	a, b := regs[ins.a], regs[ins.b]
	ma, mb := stride(a), stride(b)
	switch ins.op {
	case opAdd:
		for i := range out {
			out[i] = a[i&ma] + b[i&mb]
		}
	case opSub:
		for i := range out {
			out[i] = a[i&ma] - b[i&mb]
		}
	case opMulScaled:
		scale := ins.k
		if scale == 1 { // the plain integer product: spare the division
			for i := range out {
				out[i] = a[i&ma] * b[i&mb]
			}
			break
		}
		for i := range out {
			out[i] = a[i&ma] * b[i&mb] / scale
		}
	case opCaseRange:
		c := regs[ins.c]
		mc := stride(c)
		for i := range out {
			if v := a[i&ma]; v >= ins.lo && v <= ins.hi {
				out[i] = b[i&mb]
			} else {
				out[i] = c[i&mc]
			}
		}
	}
}

// evalInterval computes an operator over interval operands: the
// conservative bounds of ar.Interval's arithmetic, on separate low and high
// registers.
func evalInterval(ins *instr, lo, hi [][]int64, outLo, outHi []int64) {
	alo, ahi, blo, bhi := lo[ins.a], hi[ins.a], lo[ins.b], hi[ins.b]
	ma, mb := stride(alo), stride(blo)
	switch ins.op {
	case opAdd:
		for i := range outLo {
			outLo[i] = alo[i&ma] + blo[i&mb]
			outHi[i] = ahi[i&ma] + bhi[i&mb]
		}
	case opSub:
		for i := range outLo {
			outLo[i] = alo[i&ma] - bhi[i&mb]
			outHi[i] = ahi[i&ma] - blo[i&mb]
		}
	case opMulScaled:
		// The extremes of the product lie at the corners. Dividing by the
		// scale is monotone, so the least and greatest corner product are
		// all that needs dividing — the same bounds as dividing all four.
		scale := ins.k
		for i := range outLo {
			al, ah, bl, bh := alo[i&ma], ahi[i&ma], blo[i&mb], bhi[i&mb]
			p, q, r, s := al*bl, al*bh, ah*bl, ah*bh
			least, greatest := min(p, q, r, s), max(p, q, r, s)
			if scale < 0 {
				least, greatest = greatest, least
			}
			outLo[i], outHi[i] = least/scale, greatest/scale
		}
	case opCaseRange:
		clo, chi := lo[ins.c], hi[ins.c]
		mc := stride(clo)
		for i := range outLo {
			switch {
			case alo[i&ma] >= ins.lo && ahi[i&ma] <= ins.hi: // certainly inside
				outLo[i], outHi[i] = blo[i&mb], bhi[i&mb]
			case ahi[i&ma] < ins.lo || alo[i&ma] > ins.hi: // certainly outside
				outLo[i], outHi[i] = clo[i&mc], chi[i&mc]
			default: // undecidable from the approximation: both branches
				outLo[i] = min(blo[i&mb], clo[i&mc])
				outHi[i] = max(bhi[i&mb], chi[i&mc])
			}
		}
	}
}

// clampUncertain copies vals into out, moving the value of every row whose
// certain bit is clear to zero where that widens a sum's bound: a false
// positive contributes nothing, so it can lower the high bound or raise the
// low one no further than that. base is the position of vals[0].
func clampUncertain(out, vals []int64, certain []uint64, base int, high bool) []int64 {
	for i, v := range vals {
		at := base + i
		if certain[at>>6]>>(uint(at)&63)&1 == 0 && (v < 0) == high {
			v = 0
		}
		out[i] = v
	}
	return out
}

// dropUncertain copies vals into out with the fold's identity in place of
// every row whose certain bit is clear. A false positive may hold the
// greatest (least) value among the candidates: only a row that certainly
// qualifies proves the maximum at least (the minimum at most) its own value
// (§IV-F, Fig 6). With no such row the bound stays at the identity —
// nothing is known, as the count's low end of zero says.
func dropUncertain(out, vals []int64, certain []uint64, base int, identity int64) []int64 {
	for i, v := range vals {
		at := base + i
		if certain[at>>6]>>(uint(at)&63)&1 == 0 {
			v = identity
		}
		out[i] = v
	}
	return out
}

// foldInto folds vals into acc: row i into acc[ids[i]], or — ungrouped —
// every row into acc[0].
func foldInto(kind foldKind, acc []int64, ids []uint32, vals []int64) {
	switch {
	case ids == nil:
		v := acc[0]
		switch kind {
		case foldSum:
			for _, x := range vals {
				v += x
			}
		case foldMin:
			for _, x := range vals {
				v = min(v, x)
			}
		case foldMax:
			for _, x := range vals {
				v = max(v, x)
			}
		}
		acc[0] = v
	case kind == foldSum:
		for i, x := range vals {
			acc[ids[i]] += x
		}
	case kind == foldMin:
		for i, x := range vals {
			acc[ids[i]] = min(acc[ids[i]], x)
		}
	default:
		for i, x := range vals {
			acc[ids[i]] = max(acc[ids[i]], x)
		}
	}
}

func fill(s []int64, v int64) []int64 {
	for i := range s {
		s[i] = v
	}
	return s
}
