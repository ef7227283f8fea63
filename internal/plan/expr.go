// The compiled form of a statement's aggregate expressions: the paper's
// "fused, statically expanded loop" (§V-C) on the host. The aggregates of
// one statement compile once into one flat register program; every place
// that needs their values — the phase-A bounds (approxAnswer, a classic leg's
// degenerate ones too), an exact leg's one aggregation and the exact
// aggregation of the shared tail, grouped or not, which reads the group key
// beside the columns and numbers the groups itself (segments.fold) —
// folds that program over its rows a block at a time, straight into the
// accumulators. No intermediate is ever as long as the input: a worker holds
// one block of each register.
package plan

import (
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"repro/internal/ar"
	"repro/internal/bitpack"
	"repro/internal/bulk"
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

// colBind binds one program column for a fold, read by the mask of the
// candidate set the fold walks (rows.by) — at the position key joins, for a
// dimension column — one of two ways: to the delta's exact values by row
// (tails), or to a stored column (col). With an error bound err, a row's
// code makes its interval [base + code<<ResBits, that + err], as phase A
// reads it; with err 0 — no residual bit, no device bit, or a refined
// candidate set — its code and residual make its exact value, as phase R, an
// exact leg and the classic scan read it.
type colBind struct {
	tails []int64
	col   *bwd.Column
	key   *bwd.Key
	err   int64
}

// read writes the values — with an error bound, the low bounds — of by's
// survivors in granules [g0,g1) into the front of out, in candidate order,
// and returns how many there are; all of out is its to scribble on.
func (c *colBind) read(by *ar.Candidates, out []int64, g0, g1 int) int {
	if c.col == nil {
		return by.Values(c.tails, c.key, out, g0, g1)
	}
	// The codes of one plane, decoded in place: exact where that plane holds
	// the values whole (bwd.Column.Whole).
	plane, shift := c.col.Whole(), uint(0)
	switch {
	case c.err != 0:
		plane, shift = c.col.Approx, c.col.Dec.ResBits
	case plane == nil:
		return by.Rebuild(c.col, c.key, out, g0, g1)
	}
	n := by.Decode(plane, c.key, asCodes(out), g0, g1)
	base := c.col.Dec.Base
	for i, code := range asCodes(out[:n]) {
		out[i] = base + int64(code<<shift)
	}
	return n
}

// whole reads the exact values of all n rows from granule g0 on, dropped ones
// too: tails in place, a stored column's code and residual granule by
// granule into room (bwd.Column.Decode).
func (c *colBind) whole(room []int64, g0, n int) []int64 {
	if c.col == nil {
		return c.tails[g0*bwd.GranuleRows:][:n]
	}
	return c.col.Decode(room[:n], g0*bwd.GranuleRows)
}

// rows is the input of one fold: the candidates of by, reached through its
// mask in candidate order, and the bound columns; keys, for a grouped fold,
// the group key's columns, bound like them. uncertain says every candidate
// may turn out a false positive (ar.Candidates.Split), so each adds to a sum
// only what moves the bound outward and to a minimum's or maximum's inner
// bound nothing.
type rows struct {
	cols      []colBind
	keys      []colBind
	uncertain bool
	by        *ar.Candidates
}

// segment is a survivor set and the binding of every column the tail reads
// from it. A scan ends in its base segment, then its delta's; a scatter's
// segments are its legs', leg after leg: the statement's row order.
type segment struct {
	set   *ar.Candidates
	binds map[ColRef]colBind
}

type segments []segment

// bind binds the program's columns, and the key columns by names, to the
// segment's.
func (pg *program) bind(s segment, by ...string) rows {
	in := rows{cols: make([]colBind, len(pg.cols)), keys: make([]colBind, len(by)), by: s.set}
	for i, ref := range pg.cols {
		in.cols[i] = s.binds[ref]
	}
	for k, name := range by {
		in.keys[k] = s.binds[ColRef{Name: name}]
	}
	return in
}

// rows counts the segments' candidates.
func (ss segments) rows() int {
	n := 0
	for _, s := range ss {
		n += s.set.Len()
	}
	return n
}

// fold folds the program over every segment in one fold: into acc,
// ungrouped, or — grouped by the columns by names — into a state it lays out
// over the groups in acc, numbered in the order the segments' candidates, one
// segment after the other, first meet their keys; it returns each key
// column's value per group.
func (ss segments) fold(pp par.P, pg *program, acc *aggAcc, by ...string) [][]int64 {
	var buf [2]rows // a leg's base and delta, on the stack
	ins := buf[:0]
	for _, s := range ss {
		ins = append(ins, pg.bind(s, by...))
	}
	if len(by) == 0 {
		pg.fold(pp, acc, nil, ins...)
		return nil
	}
	key := newGroupKey(ins)
	pg.fold(pp, acc, key, ins...)
	return key.vals
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

// merge folds the partial state o into acc: o's group i into acc's group
// gid[i]-1 — a grouped fold's, whose partial states are indexed by a block's
// own key numbers — or into group i when gid is nil. A group of o past acc's
// last, or past gid's, or that gid maps to 0 — the sink of a fold that took
// dense blocks whole — is dropped: it holds the rows the survivor mask had
// dropped. So is a group that holds no row: every slot of it is its fold's
// identity.
func (pg *program) merge(acc, o *aggAcc, gid []uint32) {
	groups := acc.groups
	if gid != nil {
		groups = len(gid)
	}
	for i := range groups {
		if o.cnt[i] == 0 || gid != nil && gid[i] == 0 {
			continue
		}
		g := i
		if gid != nil {
			g = int(gid[i]) - 1
		}
		acc.cnt[g] += o.cnt[i]
		for s, sl := range pg.slots {
			at, from := s*acc.groups+g, s*o.groups+i
			acc.lo[at] = sl.kind.combine(acc.lo[at], o.lo[from])
			if acc.hi != nil {
				acc.hi[at] = sl.kind.combine(acc.hi[at], o.hi[from])
			}
		}
	}
}

// grow lays the exact state acc out over at least groups groups, its groups
// kept where they were and the new ones started.
func (pg *program) grow(acc *aggAcc, groups int) {
	old := *acc
	*acc = pg.newAcc(max(groups, 2*old.groups), false)
	copy(acc.cnt, old.cnt)
	for s := range pg.slots {
		copy(acc.lo[s*acc.groups:], old.lo[s*old.groups:(s+1)*old.groups])
	}
	old.release()
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

// fold evaluates the program over the rows of every input and folds every
// slot into acc. The inputs' work-groups, one input after the other and each
// input's in candidate order (ar.Candidates.Order), split into the P's worker
// blocks, each block folding into its own partial state, merged in block
// order — which is candidate order. An input of exact columns — an exact
// leg's, a refined or classic one's, a delta's, phase A's certain or
// uncertain candidates over resident columns — has its dense blocks taken
// whole: the partial states then carry a sink group past acc's last, which
// the merge drops. A column read through a key rules that out: a row the mask
// dropped may hold a key with no partner, which addresses no value.
//
// A grouped fold (key set) accumulates each row by its key (groupKey) and
// lays acc, which the caller passes empty, out over the groups.
func (pg *program) fold(pp par.P, acc *aggAcc, key *groupKey, ins ...rows) {
	units, n, sink, uncertain := 0, 0, false, false
	for i := range ins {
		units += ins[i].by.WorkGroups()
		n += ins[i].by.Len()
		sink = sink || ins[i].sinks()
		uncertain = uncertain || ins[i].uncertain
	}
	switch {
	case key != nil:
	case n == 0:
		return
	case len(pg.slots) == 0:
		acc.cnt[0] += int64(n)
		return
	}
	pp.Chunk = 1 // the context is polled between work-groups
	nb := pp.NBlocks(units)
	// A register is exact — its interval degenerate — when every column it
	// reads is, in every input: it is then computed once and serves as both
	// bounds.
	exact := make([]bool, len(pg.code))
	for r, op := range pg.code {
		switch op.op {
		case opCol:
			exact[r] = true
			for i := range ins {
				exact[r] = exact[r] && ins[i].cols[op.col].err == 0
			}
		case opConst:
			exact[r] = true
		default:
			exact[r] = exact[op.a] && exact[op.b] && (op.op != opCaseRange || exact[op.c])
		}
	}
	// Every block's registers come from one slice, and its partial state —
	// but for the first block of an ungrouped fold without a sink, which
	// folds into acc itself — from one arena buffer, or from the key.
	frames := make([]frame, nb)
	parts := make([]aggAcc, nb)
	regs := make([][]int64, 2*len(pg.code)*nb)
	groups, interval, first := acc.groups, acc.hi != nil, 0
	switch {
	case key != nil:
		first = nb
		key.start(pg, parts)
	case sink:
		groups++
	default:
		parts[0], first = *acc, 1
	}
	size := pg.accSize(groups, interval)
	var carved []int64
	if first < nb {
		carved = mem.I64.GetN((nb - first) * size)
	}
	need := pg.scratchNeed(exact, interval, uncertain, key)
	for b := range frames {
		r := regs[2*len(pg.code)*b : 2*len(pg.code)*(b+1)]
		frames[b] = frame{s: mem.GetScratch(), lo: r[:len(pg.code)], hi: r[len(pg.code):]}
		frames[b].s.GrowI64(need)
		if b >= first {
			parts[b] = pg.accIn(carved[(b-first)*size:][:size], groups, interval)
		}
	}
	// The workers read one input by value, or a copy of several: the
	// caller's list of inputs stays on its stack.
	one, more := ins[0], []rows(nil)
	if len(ins) > 1 {
		more = append(more, ins...)
	}
	par.RunBlocks(pp, units, func(b, u, _ int) { // one work-group at a time
		in := one
		for i := 0; more != nil; i++ {
			if in = more[i]; u < in.by.WorkGroups() {
				break
			}
			u -= in.by.WorkGroups()
		}
		u = in.by.Order()[u]
		var kb *keyBlock
		if key != nil {
			kb = &key.blocks[b]
		}
		// Runs of sparse granules join into one block while their survivors
		// fit its registers: a block costs its registers' setup whatever it
		// holds.
		sinks := in.sinks()
		g0, g1, pos, n := 0, 0, 0, 0
		flush := func() {
			if n > 0 {
				pg.foldBlock(&frames[b], &parts[b], key, kb, in, exact, pos, pos+n, g0, g1, false)
				n = 0
			}
		}
		in.by.Blocks(u, u+1, exprBlock/bwd.GranuleRows, func(h0, h1, at, k int) {
			if whole := sinks && k >= denseFold*(h1-h0); whole || n+k > exprBlock {
				flush()
				if whole {
					pg.foldBlock(&frames[b], &parts[b], key, kb, in, exact, at, at+k, h0, h1, true)
					return
				}
			}
			if n == 0 {
				g0, pos = h0, at
			}
			g1, n = h1, n+k
		})
		flush()
	})
	if key != nil {
		*acc = key.merge(pg, parts)
	}
	for b := range frames {
		mem.PutScratch(frames[b].s)
		if b >= first {
			pg.merge(acc, &parts[b], nil)
		}
	}
	mem.I64.Put(carved)
}

// sinks reports whether a fold may take the input's dense blocks whole: every
// column exact and read where its rows lie (a key column is).
func (in *rows) sinks() bool {
	for _, c := range in.cols {
		if c.key != nil || c.err != 0 {
			return false
		}
	}
	return true
}

// scratchNeed bounds the int64s foldBlock carves for one block: a row per
// register (two for an interval one, a value for a scalar one), and per slot
// side a scalar is filled out to or an uncertain input's sum clamps. fold
// sizes every frame's scratch for it at once, so a fresh one — sync.Pool
// drops a pooled scratch now and then — is one array, not the five a
// doubling growth through Q1's nine registers allocates.
func (pg *program) scratchNeed(exact []bool, interval, uncertain bool, key *groupKey) int {
	n := exprBlock
	need := 0
	for r := range pg.code {
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
		if uncertain && sl.kind == foldSum {
			need += sides * n
		}
	}
	if key != nil {
		need += len(key.cols) * n // the key columns' values (groupKey.ids)
	}
	return need
}

// asCodes views a block register as the decode target of a packed column:
// the codes land where the values they rebase to will stand. int64 and
// uint64 share size, alignment and every bit pattern.
func asCodes(reg []int64) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(reg))), len(reg))
}

// foldBlock evaluates every register over candidates [lo,hi) — at most
// exprBlock of them, the survivors of granules [g0,g1) — and folds the slots'
// registers into acc. Whole, the block is every row of those granules
// instead: each column read in place or decoded granule by granule straight
// into its register, and a row the mask dropped folded into acc's last group,
// the sink. A grouped fold's rows fold into the entry their key numbers in
// the block's partial state (groupKey.ids).
func (pg *program) foldBlock(f *frame, acc *aggAcc, key *groupKey, kb *keyBlock, in rows, exact []bool, lo, hi, g0, g1 int, whole bool) {
	n := hi - lo
	var mask []uint64
	if whole {
		mask, n = in.by.Granules(g0, g1)
	}
	f.s.Reset()
	for r := range pg.code {
		ins := &pg.code[r]
		if ins.op == opCol {
			c := &in.cols[ins.col]
			var low []int64
			if whole {
				low = c.whole(f.s.I64(len(mask)*bwd.GranuleRows), g0, n)
			} else {
				low = f.s.I64(n)
				c.read(in.by, low, g0, g1)
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

	var ids []uint32
	switch {
	case key != nil:
		ids = key.ids(pg, kb, acc, f.s, f.s.U32(n), &in, mask, g0, g1, whole)
	case whole && hi-lo < n: // ungrouped, a whole block without holes needs no ids
		ids = f.s.U32(n)
		clear(ids)
		holesTo(ids, mask, uint32(acc.groups-1))
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
			switch {
			case !in.uncertain:
			case sl.kind == foldSum:
				vals = clampUncertain(f.s.I64(len(vals)), vals, high == 1)
			case (sl.kind == foldMax) == (high == 0):
				// The inner bound of an extreme — a maximum's low side, a
				// minimum's high — rests on rows that certainly qualify.
				continue
			}
			if len(vals) < n {
				vals = fill(f.s.I64(n), vals[0]) // a scalar, aggregated per row
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

// clampUncertain writes vals into out moved toward zero where that widens a
// sum's bound — the high bound's negatives and the low bound's positives
// become zero — and returns out: a false positive contributes nothing, so it
// can lower the high bound or raise the low one no further than that.
func clampUncertain(out, vals []int64, high bool) []int64 {
	if high {
		for i, v := range vals {
			out[i] = max(v, 0)
		}
		return out
	}
	for i, v := range vals {
		out[i] = min(v, 0)
	}
	return out
}

// holesTo sets the entry of every row of a block taken whole — granules whose
// survivor words are mask — that the mask dropped to sink.
func holesTo(out []uint32, mask []uint64, sink uint32) {
	for g, word := range mask {
		rows := out[g*bwd.GranuleRows : min((g+1)*bwd.GranuleRows, len(out))]
		for holes := ^word & (^uint64(0) >> (bwd.GranuleRows - len(rows))); holes != 0; holes &= holes - 1 {
			rows[bits.TrailingZeros64(holes)] = sink
		}
	}
}

// keyForm is how a grouped fold keys its rows: by the key columns' parts
// packed into at most ar.DirectBits bits, the key its entry's index in a
// block's partial state (keyDirect); packed into one word (keyWord); or by
// their values, a word each (keyTuple) — a key that mixes decompositions
// (legs, delta rows, columns with no device bits) or is wider than a word. A block
// numbers a word or a tuple by its hash table (bulk.KeyTable).
type keyForm uint8

const (
	keyDirect keyForm = iota
	keyWord
	keyTuple
)

// groupKey is the group key a grouped fold reads beside the columns and
// numbers itself (segments.fold). Packed, a row's key is every key column's
// part — its value less the column's base, its code where the column is
// device resident — the leading column highest, where ar.GroupApprox places
// it; a packed key needs every input to bind each key column to one
// decomposition. Each block keys its rows in the order they first appear in
// it: a direct key into the entry it indexes, the last the sink, and its walk
// (keyWalk) lists it; a hashed one into its number plus one, entry 0 the
// sink. The blocks' keys are then numbered in block order (merge), which is
// candidate order, and vals holds each key column's value per group.
type groupKey struct {
	form   keyForm
	w      int       // the words of a hashed key
	cols   []colBind // the first input's key columns: a packed key's decompositions
	bits   uint      // the packed key's width
	blocks []keyBlock
	// buf, a direct key's, holds the numbering's table (1<<bits entries) and
	// every block's walk list (as many each); parts the blocks' states.
	buf   []uint32
	parts []int64
	vals  [][]int64
}

// keyBlock is one block's keying state.
type keyBlock struct {
	walk  keyWalk
	table bulk.KeyTable
}

// newGroupKey chooses how a grouped fold over ins keys its rows.
func newGroupKey(ins []rows) *groupKey {
	cols := ins[0].keys
	k := &groupKey{form: keyTuple, w: len(cols), cols: cols}
	for c, kc := range cols {
		for _, in := range ins {
			if o := in.keys[c].col; o == nil || o.Approx == nil || o.Dec != kc.col.Dec {
				return k
			}
		}
		k.bits += partBits(kc.col.Dec)
	}
	switch {
	case k.bits <= ar.DirectBits:
		k.form = keyDirect
	case k.bits <= 64:
		k.form, k.w = keyWord, 1
	}
	return k
}

// start lays each block's partial state out — a direct key's over all its
// entries, a hashed key's over a few, which grow with its table — and starts
// every walk and table empty: a cancelled fold numbers only what it walked.
func (k *groupKey) start(pg *program, parts []aggAcc) {
	k.blocks = make([]keyBlock, len(parts))
	if k.form != keyDirect {
		for b := range parts {
			k.blocks[b].table.Reset(k.w)
			parts[b] = pg.newAcc(64, false)
		}
		return
	}
	size := 1 << k.bits
	k.buf = mem.U32.GetN((len(parts) + 1) * size)
	per := pg.accSize(size+1, false)
	k.parts = mem.I64.GetN(len(parts) * per)
	for b := range parts {
		k.blocks[b].walk.start(k.buf[(b+1)*size:][:size], size)
		parts[b] = pg.accIn(k.parts[b*per:][:per], size+1, false)
	}
}

// ids writes into out the entry in the block's partial state acc of every
// row of a block — whole, of the granules whose survivor words are mask, a
// dropped row's the sink; otherwise by's survivors in granules [g0,g1) — and
// grows a hashed key's acc to hold the keys the block numbered.
func (k *groupKey) ids(pg *program, kb *keyBlock, acc *aggAcc, s *mem.Scratch, out []uint32, in *rows, mask []uint64, g0, g1 int, whole bool) []uint32 {
	n, w := len(out), k.w
	keys := k.pack(in, s, n, g0, g1, whole)
	if k.form == keyDirect {
		present := emitKeys(out, keys)
		if whole {
			holesTo(out, mask, uint32(acc.groups-1))
		}
		kb.walk.meet(out, present)
		return out
	}
	// A hashed key numbers survivors alone; whole, a dropped row's entry is 0.
	if whole {
		clear(out)
	}
	for g := 0; g*bwd.GranuleRows < n; g++ {
		word := ^uint64(0) >> (bwd.GranuleRows - min(bwd.GranuleRows, n-g*bwd.GranuleRows))
		if whole {
			word = mask[g]
		}
		for ; word != 0; word &= word - 1 {
			if i := g*bwd.GranuleRows + bits.TrailingZeros64(word); w == 1 {
				out[i] = kb.table.Word(keys[i]) + 1
			} else {
				out[i] = kb.table.Tuple(keys[i*w:][:w]) + 1
			}
		}
	}
	if need := kb.table.Len() + 1; need > acc.groups {
		pg.grow(acc, need)
	}
	return out
}

// values reads the values of n rows of a block, as foldBlock reads a column:
// whole, every row of the granules from g0 on; otherwise by's survivors in
// granules [g0,g1).
func (c *colBind) values(by *ar.Candidates, s *mem.Scratch, n, g0, g1 int, whole bool) []int64 {
	if whole {
		return c.whole(s.I64((n+bwd.GranuleRows-1)/bwd.GranuleRows*bwd.GranuleRows), g0, n)
	}
	out := s.I64(n)
	c.read(by, out, g0, g1)
	return out
}

// pack writes the key of n rows of a block (ids) into scratch and returns
// it: a tuple key's words row after row (one column's values in place), or a
// packed key per row, a resident column's part its code, decoded, another's
// its value less its base.
func (k *groupKey) pack(in *rows, s *mem.Scratch, n, g0, g1 int, whole bool) []uint64 {
	if k.form == keyTuple && k.w == 1 {
		return asCodes(in.keys[0].values(in.by, s, n, g0, g1, whole))
	} else if k.form == keyTuple {
		keys := s.U64(n * k.w)
		for c := range in.keys {
			for i, v := range in.keys[c].values(in.by, s, n, g0, g1, whole) {
				keys[i*k.w+c] = uint64(v)
			}
		}
		return keys
	}
	room := (n + bwd.GranuleRows - 1) / bwd.GranuleRows * bwd.GranuleRows
	keys, part := s.U64(room), s.U64(room)
	for c := range in.keys {
		kc := &in.keys[c]
		into := part
		if c == 0 {
			into = keys
		}
		switch {
		case kc.col.Dec.ResBits > 0:
			for i, v := range kc.values(in.by, s, n, g0, g1, whole) {
				into[i] = uint64(v - kc.col.Dec.Base)
			}
		case whole:
			for at := 0; at < n; at += bwd.GranuleRows {
				kc.col.Approx.Unpack64((*[bwd.GranuleRows]uint64)(into[at:]), g0*bwd.GranuleRows+at, 0)
			}
		default:
			in.by.Decode(kc.col.Approx, nil, into, g0, g1)
		}
		if c > 0 {
			width := partBits(kc.col.Dec) & 63
			for i, p := range part[:n] {
				keys[i] = keys[i]<<width | p
			}
		}
	}
	return keys[:n]
}

// merge numbers the blocks' keys in block order — a key takes the next number
// where it first appears — and merges every block's partial state into the
// fold's through that numbering, fills vals and releases the blocks' state.
func (k *groupKey) merge(pg *program, parts []aggAcc) aggAcc {
	var global bulk.KeyTable // a hashed key's numbering
	w, groups, gids := k.w, 0, k.buf
	if k.form == keyDirect {
		gids = k.buf[:1<<k.bits] // each key's group plus one, 0 unseen
		clear(gids)
		for b := range k.blocks {
			for _, key := range k.blocks[b].walk.list[:k.blocks[b].walk.n] {
				if gids[key] == 0 {
					groups++
					gids[key] = uint32(groups)
				}
			}
		}
	} else {
		global.Reset(w)
		defer global.Release()
		total := 0
		for b := range k.blocks {
			total += k.blocks[b].table.Len() + 1
		}
		gids = mem.U32.GetN(total)
		defer mem.U32.Put(gids)
		at := 0
		for b := range k.blocks { // a block's entry l+1 holds its number l, entry 0 its sink
			keys, gid := k.blocks[b].table.Keys(), gids[at:][:k.blocks[b].table.Len()+1]
			gid[0], at = 0, at+len(gid)
			for l := range len(gid) - 1 {
				gid[l+1] = global.Tuple(keys[l*w:][:w]) + 1
			}
		}
		groups = global.Len()
	}
	acc := pg.newAcc(groups, false)
	at := 0
	for b := range k.blocks {
		gid := gids
		if t := &k.blocks[b].table; k.form != keyDirect {
			gid, at = gids[at:][:t.Len()+1], at+t.Len()+1
			defer t.Release()
			defer parts[b].release()
		}
		pg.merge(&acc, &parts[b], gid)
	}
	k.vals = make([][]int64, len(k.cols))
	cells := make([]int64, groups*len(k.cols))
	for c := range k.vals {
		k.vals[c] = cells[c*groups : (c+1)*groups : (c+1)*groups]
	}
	switch keys := global.Keys(); k.form {
	case keyDirect:
		for key, g := range gids {
			if g != 0 {
				k.unpack(int(g)-1, uint64(key))
			}
		}
		mem.I64.Put(k.parts)
		mem.U32.Put(k.buf)
	case keyWord:
		for g, key := range keys {
			k.unpack(g, key)
		}
	default:
		for g := range groups {
			for c := range k.vals {
				k.vals[c][g] = int64(keys[g*w+c])
			}
		}
	}
	return acc
}

// mergeFolds merges the states of several folds into one, in their order: the
// fold of their inputs' union, one after the other, is the merge of their
// folds (TestKeyedFoldMergeLaw). keys[i] is each key column's value per group
// of parts[i], nil for an ungrouped fold, whose one group is every part's. The
// parts' groups are numbered by key value where they first appear, part after
// part, as merge numbers its blocks' one level down, and each part is merged
// through its numbering; it returns each key column's value per merged group.
func (pg *program) mergeFolds(parts []aggAcc, keys [][][]int64) (aggAcc, [][]int64) {
	w, total := len(keys[0]), 0
	for i := range parts {
		total += parts[i].groups
	}
	var numbering bulk.KeyTable
	numbering.Reset(max(w, 1))
	defer numbering.Release()
	gids := mem.U32.GetN(total) // each part's groups' merged group plus one, part after part
	defer mem.U32.Put(gids)
	key := make([]uint64, max(w, 1)) // ungrouped, the one key 0
	at := 0
	for i := range parts {
		for g := range parts[i].groups {
			for c := range keys[i] {
				key[c] = uint64(keys[i][c][g])
			}
			gids[at] = numbering.Tuple(key) + 1
			at++
		}
	}
	groups := numbering.Len()
	acc := pg.newAcc(groups, false)
	at = 0
	for i := range parts {
		pg.merge(&acc, &parts[i], gids[at:][:parts[i].groups])
		at += parts[i].groups
	}
	vals, cells := make([][]int64, w), make([]int64, groups*w)
	for c := range vals {
		vals[c] = cells[c*groups : (c+1)*groups : (c+1)*groups]
		for g := range groups {
			vals[c][g] = int64(numbering.Keys()[g*w+c])
		}
	}
	return acc, vals
}

// unpack sets group g's value of every key column from its packed key.
func (k *groupKey) unpack(g int, key uint64) {
	shift := k.bits
	for c, kc := range k.cols {
		shift -= partBits(kc.col.Dec)
		k.vals[c][g] = kc.col.Dec.Base + int64(key>>shift&bitpack.Mask(partBits(kc.col.Dec)))
	}
}

// partBits is the width of a key column's part in a packed key.
func partBits(d bwd.Decomposition) uint { return d.ApproxBits + d.ResBits }

// emitKeys writes the keys into out and returns which of them, below 64, it
// wrote: bit key of the mask for each.
func emitKeys(out []uint32, keys []uint64) (present uint64) {
	for i, key := range keys[:len(out)] {
		out[i] = uint32(key)
		present |= 1 << (key & 63) // only a key of at most 6 bits reads it
	}
	return present
}

// keyWalk is a fold block's first-appearance walk of a direct key: one bit
// per key the block has met — the sink's set from the start, so that a
// dropped row never lists — and the keys it met, in that order.
type keyWalk struct {
	seen [1<<ar.DirectBits/64 + 1]uint64
	list []uint32
	n    int
}

// start readies the walk over list for a key of size entries.
func (w *keyWalk) start(list []uint32, size int) {
	clear(w.seen[:size/64+1])
	w.seen[size/64] |= 1 << (size % 64)
	w.list, w.n = list, 0
}

// meet lists the keys the block meets for the first time in keys, in their
// order. A key of at most 6 bits is first tested as a whole run: present, the
// run's presence mask (emitKeys) — a dropped row's key in it too, which can
// only send a run to the walk that needed none — says whether any is new,
// and a run that brings nothing new skips the walk.
func (w *keyWalk) meet(keys []uint32, present uint64) {
	if len(w.list) <= 64 && present&^w.seen[0] == 0 {
		return
	}
	for _, key := range keys {
		if bit := uint64(1) << (key % 64); w.seen[key/64]&bit == 0 {
			w.seen[key/64] |= bit
			w.list[w.n] = key
			w.n++
		}
	}
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
