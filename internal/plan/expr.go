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
	"math/bits"
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
// each row's group; by, when set, the candidate set whose candidates the rows
// are, in candidate order, which the fold then reaches through its mask — as
// it must when a column is bound packed; certain, when set, by's rows that
// certainly qualify, in the layout of by's mask (ar.Candidates.CertainMask) —
// a row outside it may turn out a false positive, so it adds to a sum only
// what moves the bound outward and to a minimum's or maximum's inner bound
// nothing.
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
// cands, whose mask the fold walks: packed for a projection that is still
// only cands' mask, the code list otherwise (a dimension column, gathered
// through its join's key).
func (pg *program) bindCodes(cands *ar.Candidates, projections map[ColRef]*ar.Projection) rows {
	in := rows{cols: make([]colBind, len(pg.cols)), n: cands.Len(), by: cands}
	for i, ref := range pg.cols {
		p := projections[ref]
		dec := p.Col.Dec
		in.cols[i] = colBind{base: dec.Base, shift: dec.ResBits, err: dec.Err()}
		if p.ByMask() {
			in.cols[i].packed = p.Col.Approx
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
	buf    []int64 // the arena buffer behind the three, when the state owns one
}

func (pg *program) newAcc(groups int, interval bool) aggAcc {
	buf := mem.I64.GetN(pg.accSize(groups, interval))
	acc := pg.accIn(buf, groups, interval)
	acc.buf = buf
	return acc
}

// accSize is how many int64s an accumulator state of groups groups takes.
func (pg *program) accSize(groups int, interval bool) int {
	w := groups * len(pg.slots)
	if interval {
		return groups + 2*w
	}
	return groups + w
}

// accIn lays an accumulator state out over buf, accSize long, and starts
// it; the state does not own buf.
func (pg *program) accIn(buf []int64, groups int, interval bool) aggAcc {
	w := groups * len(pg.slots)
	acc := aggAcc{groups: groups, cnt: buf[:groups], lo: buf[groups : groups+w]}
	if interval {
		acc.hi = buf[groups+w : groups+2*w]
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

// merge folds the partial state o into acc, group by group. A group of o
// past acc's last — the sink of a fold that took dense blocks whole — is
// dropped: it holds the rows the survivor mask had dropped.
func (pg *program) merge(acc, o *aggAcc) {
	g := acc.groups
	for i := range g {
		acc.cnt[i] += o.cnt[i]
	}
	for s, sl := range pg.slots {
		for i := range g {
			at, from := s*g+i, s*o.groups+i
			acc.lo[at] = sl.kind.combine(acc.lo[at], o.lo[from])
			if acc.hi != nil {
				acc.hi[at] = sl.kind.combine(acc.hi[at], o.hi[from])
			}
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

// denseFold is the survivors per granule, averaged over a block of a fold by
// mask, from which the block is folded whole: every row of its granules
// decoded straight into the registers and evaluated, the rows the mask
// dropped folded into a sink group that is never merged, instead of each
// column compacted over the holes. Compaction costs a pass per column over
// the granule's bits whatever it keeps; the sink costs the dropped rows'
// share of every register and slot, and the group ids' expansion to row
// order. Measured on the served Q1 program (four packed columns, nine
// registers, five slots, four groups) over scattered survivors, whole is
// ahead from about four fifths of the rows on. Q1's blocks hold 92–94 % of
// their rows, Q6's and Q14's 1–2 %.
const denseFold = 52

// fold evaluates the program over the rows in and folds every slot into acc.
// The rows split into the P's worker blocks — of positions, or of in.by's
// work-groups, whose slots in candidate order keep ids aligned — each
// folding into its own partial state, merged in block order. A fold by
// mask over exact packed columns with no certain mask — an exact leg's —
// takes its dense blocks whole: its partial states carry a sink group past
// acc's last, which the merge drops.
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
	sink := in.by != nil && in.certain == nil
	for _, c := range in.cols {
		sink = sink && c.packed != nil && c.err == 0
	}
	// Every block's registers come from one slice, and its partial state —
	// but for the first block of a fold without a sink, which folds into acc
	// itself — from one arena buffer.
	frames := make([]frame, nb)
	parts := make([]aggAcc, nb)
	regs := make([][]int64, 2*len(pg.code)*nb)
	groups, interval, first := acc.groups, acc.hi != nil, 0
	if sink {
		groups++
	} else {
		parts[0], first = *acc, 1
	}
	size := pg.accSize(groups, interval)
	var carved []int64
	if first < nb {
		carved = mem.I64.GetN((nb - first) * size)
	}
	need := pg.scratchNeed(in, exact, interval)
	for b := range frames {
		r := regs[2*len(pg.code)*b : 2*len(pg.code)*(b+1)]
		frames[b] = frame{s: mem.GetScratch(), lo: r[:len(pg.code)], hi: r[len(pg.code):]}
		frames[b].s.GrowI64(need)
		if b >= first {
			parts[b] = pg.accIn(carved[(b-first)*size:][:size], groups, interval)
		}
	}
	par.RunBlocks(pp, units, func(b, ulo, uhi int) {
		f, part := &frames[b], &parts[b]
		if in.by != nil {
			in.by.Blocks(ulo, uhi, exprBlock/bwd.GranuleRows, func(g0, g1, pos, n int) {
				pg.foldBlock(f, part, in, exact, pos, pos+n, g0, g1, sink && n >= denseFold*(g1-g0))
			})
			return
		}
		for lo := ulo; lo < uhi; lo += exprBlock {
			pg.foldBlock(f, part, in, exact, lo, min(lo+exprBlock, uhi), 0, 0, false)
		}
	})
	for b := range frames {
		mem.PutScratch(frames[b].s)
		if sink || b > 0 {
			pg.merge(acc, &parts[b])
		}
	}
	mem.I64.Put(carved)
}

// scratchNeed bounds the int64s foldBlock carves for one block: a register
// row per column read packed or by code (two with an error bound), per
// computed register (two for an interval one, a value for a scalar one), per
// slot side a scalar is filled out to or the certain mask rewrites, and the
// block's certain bits. fold sizes every frame's scratch for it at once, so a
// fresh one — sync.Pool drops a pooled scratch now and then — is one array,
// not the five a doubling growth through Q1's nine registers allocates.
func (pg *program) scratchNeed(in rows, exact []bool, interval bool) int {
	n := exprBlock
	if in.by == nil {
		n = min(n, in.n)
	}
	need := 0
	for r, ins := range pg.code {
		if ins.op == opCol {
			if c := &in.cols[ins.col]; c.vals == nil {
				need += n
				if c.err != 0 {
					need += n
				}
			}
			continue
		}
		w := n
		if pg.scalar[r] {
			w = 1
		}
		need += w
		if !exact[r] {
			need += w
		}
	}
	sides := 1
	if interval {
		sides = 2
	}
	for _, sl := range pg.slots {
		if pg.scalar[sl.reg] {
			need += sides * n
		}
		if in.certain != nil {
			need += sides * n
		}
	}
	if in.certain != nil {
		need += (n + 63) / 64
	}
	return need
}

// asCodes views a block register as the decode target of a packed column:
// the codes land where the values they rebase to will stand. int64 and
// uint64 share size, alignment and every bit pattern.
func asCodes(reg []int64) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(reg))), len(reg))
}

// foldBlock evaluates every register over rows [lo,hi) — at most exprBlock
// of them, and for a fold by mask the survivors of granules [g0,g1) — and
// folds the slots' registers into acc. Whole, the block is every row of
// those granules instead: each packed column decoded granule by granule
// straight into its register, and a row the mask dropped folded into acc's
// last group, the sink.
func (pg *program) foldBlock(f *frame, acc *aggAcc, in rows, exact []bool, lo, hi, g0, g1 int, whole bool) {
	n := hi - lo
	var mask, certain []uint64
	if whole {
		mask, n = in.by.Granules(g0, g1)
	}
	f.s.Reset()
	if in.certain != nil {
		survivors, _ := in.by.Granules(g0, g1)
		certain = compactBits(asCodes(f.s.I64((n+63)/64)), survivors, in.certain[g0:g1])
	}
	for r := range pg.code {
		ins := &pg.code[r]
		if ins.op == opCol {
			c := &in.cols[ins.col]
			if c.vals != nil {
				f.lo[r], f.hi[r] = c.vals[lo:hi], c.vals[lo:hi]
				continue
			}
			var low []int64
			var codes []uint64
			switch {
			case whole:
				// Room for whole granules: the scan's last may be short.
				room := f.s.I64(len(mask) * bwd.GranuleRows)
				for g := range mask {
					c.packed.Unpack64((*[bwd.GranuleRows]uint64)(asCodes(room[g*bwd.GranuleRows:])), (g0+g)*bwd.GranuleRows)
				}
				low = room[:n]
				codes = asCodes(low)
			case c.packed != nil:
				low = f.s.I64(n)
				codes = asCodes(low)
				in.by.Decode(c.packed, codes, g0, g1)
			default:
				low = f.s.I64(n)
				codes = c.codes[lo:hi]
			}
			if c.shift == 0 { // resident: the code is the offset
				for i, code := range codes {
					low[i] = c.base + int64(code)
				}
			} else {
				for i, code := range codes {
					low[i] = c.base + int64(code<<c.shift)
				}
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
	switch { // ungrouped, a whole block without holes needs no ids
	case whole && ids != nil:
		ids = sinkIDs(f.s.U32(n), ids[lo:hi], mask, uint32(acc.groups-1))
	case whole && hi-lo < n:
		ids = sinkIDs(f.s.U32(n), nil, mask, uint32(acc.groups-1))
	case ids != nil:
		ids = ids[lo:hi]
	}
	if ids != nil {
		countInto(acc.cnt, ids)
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
			if certain != nil {
				switch {
				case sl.kind == foldSum:
					vals = clampUncertain(f.s.I64(n), vals, certain, high == 1)
				case (sl.kind == foldMax) == (high == 0):
					// The inner bound of an extreme — a maximum's low side,
					// a minimum's high — rests on rows that certainly qualify.
					vals = dropUncertain(f.s.I64(n), vals, certain, sl.kind.identity())
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

// compactBits writes the bits of certain that stand at the survivors of mask
// — certain is a narrowing of mask, word for word — into out, one after the
// other in row order, which is the block's candidate order, and returns out.
func compactBits(out, mask, certain []uint64) []uint64 {
	clear(out)
	k := uint(0)
	for g, word := range mask {
		for w, c := word, certain[g]; w != 0; w &= w - 1 {
			out[k>>6] |= (c >> uint(bits.TrailingZeros64(w)) & 1) << (k & 63)
			k++
		}
	}
	return out
}

// clampUncertain copies vals into out, moving the value of every row whose
// certain bit is clear to zero where that widens a sum's bound: a false
// positive contributes nothing, so it can lower the high bound or raise the
// low one no further than that.
func clampUncertain(out, vals []int64, certain []uint64, high bool) []int64 {
	for i, v := range vals {
		if certain[i>>6]>>(uint(i)&63)&1 == 0 && (v < 0) == high {
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
func dropUncertain(out, vals []int64, certain []uint64, identity int64) []int64 {
	for i, v := range vals {
		if certain[i>>6]>>(uint(i)&63)&1 == 0 {
			v = identity
		}
		out[i] = v
	}
	return out
}

// sinkIDs writes the group of every row of a block taken whole — granules
// whose survivor words are mask — into out, in row order: a survivor's from
// ids, the groups of the block's survivors in candidate order (which is row
// order within a block), or group 0 when ids is nil; a row whose bit is clear
// gets sink. The survivors between two holes are consecutive in ids, so they
// are copied as a run.
func sinkIDs(out, ids []uint32, mask []uint64, sink uint32) []uint32 {
	k := 0
	for g, word := range mask {
		rows := out[g*bwd.GranuleRows : min((g+1)*bwd.GranuleRows, len(out))]
		holes := ^word & (^uint64(0) >> (bwd.GranuleRows - len(rows)))
		if ids == nil {
			clear(rows)
			for ; holes != 0; holes &= holes - 1 {
				rows[bits.TrailingZeros64(holes)] = sink
			}
			continue
		}
		at := 0
		for ; holes != 0; holes &= holes - 1 {
			hole := bits.TrailingZeros64(holes)
			k += copy(rows[at:hole], ids[k:])
			rows[hole] = sink
			at = hole + 1
		}
		k += copy(rows[at:], ids[k:])
	}
	return out
}

// interleaveGroups is the most groups whose sums and row counts fold into
// interleaved partials. Neighbouring rows mostly share a group when there
// are few — Q1 has four, and TPC-H rows cluster — so a grouped sum would wait
// at every row on its own previous store to the same accumulator; four
// partials, row i into partial i%4, are four independent chains, merged once
// per block. Past a few groups neighbours rarely collide and the partials'
// zeroing and merge would cost more than they save.
const interleaveGroups = 16

// countInto adds one to cnt[ids[i]] for every row.
func countInto(cnt []int64, ids []uint32) {
	if len(cnt) > interleaveGroups {
		for _, g := range ids {
			cnt[g]++
		}
		return
	}
	var p [4][interleaveGroups]int64
	i := 0
	for ; i+4 <= len(ids); i += 4 {
		p[0][ids[i]%interleaveGroups]++
		p[1][ids[i+1]%interleaveGroups]++
		p[2][ids[i+2]%interleaveGroups]++
		p[3][ids[i+3]%interleaveGroups]++
	}
	for ; i < len(ids); i++ {
		p[0][ids[i]%interleaveGroups]++
	}
	for g := range cnt {
		cnt[g] += p[0][g] + p[1][g] + p[2][g] + p[3][g]
	}
}

// sumInto adds vals[i] to acc[ids[i]] for every row, through interleaved
// partials when acc has at most interleaveGroups groups.
func sumInto(acc []int64, ids []uint32, vals []int64) {
	if len(acc) > interleaveGroups {
		for i, x := range vals {
			acc[ids[i]] += x
		}
		return
	}
	var p [4][interleaveGroups]int64
	ids = ids[:len(vals)]
	i := 0
	for ; i+4 <= len(vals); i += 4 {
		p[0][ids[i]%interleaveGroups] += vals[i]
		p[1][ids[i+1]%interleaveGroups] += vals[i+1]
		p[2][ids[i+2]%interleaveGroups] += vals[i+2]
		p[3][ids[i+3]%interleaveGroups] += vals[i+3]
	}
	for ; i < len(vals); i++ {
		p[0][ids[i]%interleaveGroups] += vals[i]
	}
	for g := range acc {
		acc[g] += p[0][g] + p[1][g] + p[2][g] + p[3][g]
	}
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
		sumInto(acc, ids, vals)
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
