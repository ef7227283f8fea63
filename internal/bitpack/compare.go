package bitpack

import (
	"fmt"
	"math/bits"
)

// Range is a code range compiled for the compare of one width (InRange64):
// below 32 bits, the range in that width's lane arithmetic, spread over the
// w words that a granule of 64 w-bit codes fills. The zero value holds none;
// Compile fills it. It has a fixed size, so a scan keeps it on its stack.
type Range struct {
	ready        bool
	width        uint
	codeLo, span uint64 // as compiled; 32 bits and more compare with them code by code
	// fill is the answer when no code needs a look — 0 when the range holds
	// no code of the width, every bit when it holds them all — and lanes is
	// set when the codes do.
	fill  uint64
	lanes bool
	// Word k of a granule is compared with word k of lo and of max − span
	// spread over every lane, their top bits cleared (sub, add); the top bit
	// of lo and of max − span, the same in every lane, is in every bit of
	// loTop and addTop. t is the width's table.
	loTop, addTop uint64
	t             *laneTable
	words         [31]struct{ sub, add uint64 }
}

// Compile compiles the codes c with c − codeLo ≤ span modulo 2^64 for the
// compare of an array of the given width (InRange64). A range already
// compiled with the same arguments is kept as it is, so a walk compiles it
// where it first compares a granule and then only checks it.
func (r *Range) Compile(width uint, codeLo, span uint64) {
	if r.ready && r.width == width && r.codeLo == codeLo && r.span == span {
		return
	}
	r.ready, r.width, r.codeLo, r.span, r.fill = true, width, codeLo, span, 0
	max := Mask(width)
	lo, sp, ok := laneRange(codeLo, span, max)
	if r.lanes = ok && sp != max; !r.lanes || width >= 32 {
		if ok && sp == max {
			r.fill = ^uint64(0)
		}
		return
	}
	add := max - sp // d ≤ sp exactly when d + (max−sp) carries out of no lane
	r.t = &laneTables[width]
	r.loTop, r.addTop = -(lo >> (width - 1)), -(add >> (width - 1))
	rot := uint(0) // 64k mod width: where word k starts in its lane
	for k, l := range r.t.words {
		// A lane cut by the word's start leaves its upper bits here; when
		// none is (rot 0), the shift by 0 repeats lane 0 and OR keeps it.
		r.words[k].sub = (lo*l.ones | lo>>rot) &^ l.high
		r.words[k].add = (add*l.ones | add>>rot) &^ l.high
		rot = (rot + 64) % width
	}
}

// InRange64 returns which of the values at positions [lo, min(lo+64, Len()))
// have a code in the range r, compiled for the array's width: the codes c
// with c − codeLo ≤ span, the difference taken modulo 2^64 — codes in
// [codeLo, codeLo+span], one unsigned compare testing both ends — as a word
// whose bit i is the value at lo+i; lo must be a multiple of 64 and bits past
// Len() are zero. It is the compare of a granule scan: the codes are tested
// where they lie, in the backing words, and none is written out.
//
// Below 32 bits a granule's 64 codes, which fill exactly w words, are
// compared all at once (SWAR), each code a lane of its own: a lane-wise
// subtraction and a lane-wise carry test leave one result bit per lane, its
// top bit. Where lanes straddle words the two run over the w words as
// multiword arithmetic — a borrow chain and a carry chain — which is exact
// because every lane's top bit is set before the subtraction and cleared
// before the addition, so no borrow or carry leaves a lane. A word's top bits
// are an arithmetic progression; at 8 bits and more one multiply per word
// gathers them into the result, below that a few shifts do, since the lanes
// outnumber the width. A short last granule runs the same over its words
// padded with zeros. From 32 bits on a word holds two codes or fewer, and the
// lanes cost more per word than a plain compare per code: 32 and 64 bits are
// compared code by code where they lie, the widths between decoded into a
// block on the stack by the width's kernel (Unpack64) and compared there.
func (a *Array) InRange64(lo int, r *Range) uint64 {
	if lo < 0 || lo > a.n || lo&63 != 0 {
		panic(fmt.Sprintf("bitpack: block start %d not a multiple of 64 in [0,%d]", lo, a.n))
	}
	if !r.ready || r.width != a.width {
		panic(fmt.Sprintf("bitpack: range compiled for width %d (%t), array is %d", r.width, r.ready, a.width))
	}
	n := min(64, a.n-lo)
	if n == 0 {
		return 0
	}
	live := ^uint64(0) >> uint(64-n)
	width, codeLo, span := int(a.width), r.codeLo, r.span
	switch {
	case !r.lanes:
		return r.fill & live
	case width == 64:
		var out uint64
		for i, c := range a.words[lo : lo+n] {
			out |= in(c, codeLo, span) << uint(i)
		}
		return out
	case width == 32:
		var out uint64
		for i, x := range a.words[lo/2 : lo/2+(n+1)/2] {
			out |= (in(x&0xFFFFFFFF, codeLo, span) | in(x>>32, codeLo, span)<<1) << (2 * uint(i) & 63)
		}
		return out & live
	case width > 32:
		var codes [64]uint64
		a.Unpack64(&codes, lo, 0)
		var out uint64
		for i, c := range codes[:n] {
			out |= in(c, codeLo, span) << uint(i)
		}
		return out
	case n < 64:
		var pad [31]uint64
		copy(pad[:], a.words[lo>>6*width:])
		return inLanes(pad[:width], r) & live
	}
	return inLanes(a.words[lo>>6*width:][:width], r)
}

// inLanes is InRange64 over the w words of one granule of a width below 32.
func inLanes(words []uint64, r *Range) uint64 {
	if 64%len(words) == 0 {
		return inAligned(words, r)
	}
	var out, borrow, carry uint64
	loTop, addTop := r.loTop, r.addTop
	rw, tw := r.words[:len(words)], r.t.words[:len(words)]
	if r.t.steps != nil { // 3, 5, 6 and 7 bits
		for k := range rw {
			l := &tw[k]
			var y uint64
			y, borrow, carry = pass(words[k], l.high, rw[k].sub, rw[k].add, loTop, addTop, borrow, carry)
			y >>= l.shift & 63
			for _, st := range r.t.steps {
				y = (y | y>>st.shift) & st.keep
			}
			out |= y << (l.at & 63)
		}
		return out
	}
	for k := range rw {
		l := &tw[k]
		var y uint64
		y, borrow, carry = pass(words[k], l.high, rw[k].sub, rw[k].add, loTop, addTop, borrow, carry)
		out |= y * l.mul >> (l.shift & 63) << (l.at & 63)
	}
	return out
}

// inAligned is inLanes at 1, 2, 4, 8 and 16 bits, where no lane straddles a
// word: every word is word 0, and nothing chains.
func inAligned(words []uint64, r *Range) uint64 {
	l, steps := &r.t.words[0], r.t.steps
	high, sub, add, loTop, addTop := l.high, r.words[0].sub, r.words[0].add, r.loTop, r.addTop
	shift, per := uint(l.shift)&63, uint(64/len(words))
	var out uint64
	at := uint(0)
	if steps == nil { // 1, 8 and 16 bits
		mul := l.mul
		for _, x := range words {
			y, _, _ := pass(x, high, sub, add, loTop, addTop, 0, 0)
			out |= y * mul >> shift << (at & 63)
			at += per
		}
		return out
	}
	for _, x := range words {
		y, _, _ := pass(x, high, sub, add, loTop, addTop, 0, 0)
		y >>= shift
		for _, st := range steps {
			y = (y | y>>st.shift) & st.keep
		}
		out |= y << (at & 63)
		at += per
	}
	return out
}

// pass is the lane arithmetic over word x of a granule, its lanes' top bits
// high and the range compiled into sub, add, loTop and addTop: it returns
// the top bit of every lane whose top bit x holds and whose code is in the
// range, and the borrow and carry into the next word.
func pass(x, high, sub, add, loTop, addTop, borrow, carry uint64) (y, b, cy uint64) {
	d, b := bits.Sub64(x|high, sub, borrow) // c − lo, lane by lane, modulo 2^w
	d ^= high &^ (x ^ loTop)
	s, cy := bits.Add64(d&^high, add, carry)        // the carry into each lane's top bit
	return high &^ (d&addTop | (d|addTop)&s), b, cy // and none out of it
}

// gatherStep halves the number of groups of result bits in a word: every
// group is joined by the one above it, shifted down shift bits, and keep
// clears what is left between the merged groups.
type gatherStep struct {
	shift uint
	keep  uint64
}

// laneTable is what the width alone decides about a granule's words, built
// once per width: the words and, below 8 bits, the steps of their gather.
type laneTable struct {
	words []laneWord
	steps []gatherStep
}

// laneWord is word k of a granule: a 1 at each lane start in it (ones) and
// at each lane top bit in it (high) — m bits, at p, p+w, … — and how those
// reach the result: at 8 bits and more, the multiply by mul moves top bit j
// to bit 64−m+j, each partial product on a bit of its own (m ≤ w), so
// nothing carries, and shift brings them down from there; below 8 bits mul
// is 1, shift brings the top bits to the bottom and the steps close the gaps
// between them (at 1 bit there are none). at is the index of the word's
// first lane, where they go.
type laneWord struct {
	ones, high, mul uint64
	shift, at       uint8
}

// laneTables is indexed by the width, 1 to 31.
var laneTables = func() (t [32]laneTable) {
	for w := uint(1); w < 32; w++ {
		words := make([]laneWord, w)
		for i := range uint(64) {
			start, top := i*w, i*w+w-1
			words[start>>6].ones |= 1 << (start & 63)
			words[top>>6].high |= 1 << (top & 63)
		}
		for k := range words {
			c := &words[k]
			p, m := uint(bits.TrailingZeros64(c.high)), uint(bits.OnesCount64(c.high))
			first := (uint(k)*64 + p) / w
			c.mul, c.shift, c.at = 1, uint8(p), uint8(first)
			if w >= 8 {
				c.mul, c.shift = 0, uint8(64-m)
				for j := range m {
					c.mul |= 1 << (64 - m + j - p - j*w)
				}
			}
		}
		t[w].words = words
		// Groups of g bits, s apart, become groups of 2g bits, 2s apart.
		for g, s := uint(1), w; w < 8 && g < s && s < 64; g, s = 2*g, 2*s {
			var keep uint64
			for i := uint(0); i < 64; i += 2 * s {
				keep |= Mask(2*g) << i
			}
			t[w].steps = append(t[w].steps, gatherStep{shift: s - g, keep: keep})
		}
	}
	return t
}()

// laneRange returns the range [lo, lo+sp] of w-bit lane arithmetic — taken
// modulo 2^w, so it may wrap past the largest code max — that holds exactly
// the codes of at most max that satisfy c − codeLo ≤ span modulo 2^64; ok is
// false when there are none.
func laneRange(codeLo, span, max uint64) (lo, sp uint64, ok bool) {
	hi := codeLo + span
	switch {
	case hi >= codeLo && codeLo > max: // [codeLo, hi] lies above every code
		return 0, 0, false
	case hi >= codeLo:
		return codeLo, min(hi, max) - codeLo, true
	case codeLo > max: // wraps: [0, hi] is what is left of [codeLo, 2^64) ∪ [0, hi]
		return 0, min(hi, max), true
	}
	return codeLo, (hi - codeLo) & max, true // hi < codeLo ≤ max: wraps modulo 2^w too
}

// in is 1 when c − lo ≤ span and 0 otherwise, without a branch.
func in(c, lo, span uint64) uint64 {
	if c-lo <= span {
		return 1
	}
	return 0
}
