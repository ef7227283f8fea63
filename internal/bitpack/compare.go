package bitpack

import (
	"fmt"
	"math/bits"
)

// InRange64 returns which of the values at positions [lo, min(lo+64, Len()))
// have a code c with c − codeLo ≤ span, the difference taken modulo 2^64 —
// codes in [codeLo, codeLo+span], one unsigned compare testing both ends —
// as a word whose bit i is the value at lo+i; lo must be a multiple of 64 and
// bits past Len() are zero. It is the compare of a granule scan: the codes
// are tested where they lie, in the backing words, and none is written out.
//
// A width that divides 64 puts 64/w codes in a word, each in a lane of its
// own, and up to 16 bits the lanes are compared all at once (SWAR): a
// lane-wise subtraction and a lane-wise carry test leave one result bit per
// lane, which a multiply (8 and 16 bits) or a few shifts (1, 2 and 4) gather
// into the word. Two 32-bit codes to a word are compared one by one, which
// costs less than the lane arithmetic for two lanes. Any other width decodes
// one code at a time with the shift-carry cursor and compares it on the
// spot.
func (a *Array) InRange64(lo int, codeLo, span uint64) uint64 {
	if lo < 0 || lo > a.n || lo&63 != 0 {
		panic(fmt.Sprintf("bitpack: block start %d not a multiple of 64 in [0,%d]", lo, a.n))
	}
	n := min(64, a.n-lo)
	if n == 0 {
		return 0
	}
	live := ^uint64(0) >> uint(64-n)
	width := a.width
	switch {
	case width == 0:
		if -codeLo <= span { // every code is 0
			return live
		}
		return 0
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
	case width&(width-1) == 0: // 1, 2, 4, 8, 16
		base := lo >> 6 * int(width)
		return inRangeLanes(a.words[base:base+wordsFor(width, n)], width, codeLo, span) & live
	}
	return inRangeCarry(a.words[lo>>6*int(width):], n, width, codeLo, span)
}

// lane holds the constants of a lane width w that divides 64, computed once.
type lane struct {
	ones, high uint64 // 1 and 1<<(w−1) in every lane
	per        uint   // lanes in a word, 64/w
	// magic moves the top bit of lane i to bit 64−64/w+i when a word is
	// multiplied by it (every partial product lands on a bit of its own, so
	// nothing carries) and shift brings them down from there; magic is 0 for
	// w < 8, where the lanes outnumber the width: shift then brings every
	// top bit to the bottom of its lane and steps close the gaps.
	magic uint64
	shift uint
	steps []gatherStep
}

// gatherStep halves the number of groups of result bits in a word: every
// group is joined by the one above it, shifted down shift bits, and keep
// clears what is left between the merged groups.
type gatherStep struct {
	shift uint
	keep  uint64
}

// lanes is indexed by log2 of the width: 1, 2, 4, 8 and 16 bits.
var lanes = func() (t [5]lane) {
	magics := [5]uint64{3: 0x0002040810204081, 4: 0x0000200040008001}
	for k := range t {
		w := uint(1) << k
		l := &t[k]
		l.ones = ^uint64(0) / Mask(w)
		l.high = l.ones << (w - 1)
		l.per = 64 / w
		if l.magic = magics[k]; l.magic != 0 {
			l.shift = 64 - l.per
			continue
		}
		l.shift = w - 1
		// Groups of g bits, s apart, become groups of 2g bits, 2s apart.
		for g, s := uint(1), w; g < s && s < 64; g, s = 2*g, 2*s {
			l.steps = append(l.steps, gatherStep{shift: s - g, keep: ^uint64(0) / Mask(min(2*s, 64)) * Mask(2*g)})
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

// inRangeLanes is InRange64 over the words of one block of a lane width.
func inRangeLanes(words []uint64, width uint, codeLo, span uint64) uint64 {
	max := Mask(width)
	lo, sp, ok := laneRange(codeLo, span, max)
	switch {
	case !ok:
		return 0
	case sp == max:
		return ^uint64(0)
	}
	l := &lanes[bits.TrailingZeros(width)]
	high, per, shift := l.high, l.per&63, l.shift&63 // &63: no shift needs a guard
	sub, flip := lo*l.ones&^high, ^(lo * l.ones)
	add := (max - sp) * l.ones // d ≤ sp exactly when d + (max−sp) carries out of no lane
	var out uint64
	at := uint(0) // where the results of the next word go
	if magic := l.magic; magic != 0 {
		for _, x := range words {
			out |= lanesPass(x, high, sub, flip, add) * magic >> shift << (at & 63)
			at += per
		}
		return out
	}
	for _, x := range words {
		p := lanesPass(x, high, sub, flip, add) >> shift
		for _, s := range l.steps {
			p = (p | p>>s.shift) & s.keep
		}
		out |= p << (at & 63)
		at += per
	}
	return out
}

// lanesPass returns the top bit of every lane of x whose code c has
// c − lo ≤ sp modulo 2^w, given high (the lanes' top bits), sub (lo in every
// lane, top bits cleared), flip (NOT lo in every lane) and add (max − sp in
// every lane).
func lanesPass(x, high, sub, flip, add uint64) uint64 {
	d := ((x | high) - sub) ^ ((x ^ flip) & high) // c − lo, lane by lane, modulo 2^w
	s := d&^high + add&^high                      // the carry into each lane's top bit
	return high &^ (d&add | (d|add)&s)            // and none out of it
}

// inRangeCarry is InRange64 over the n codes of a width that straddles words,
// from the first word of the block on: shiftCarry's cursor, each code
// compared as it is cut out. A code's bit enters out at the top and moves
// down one place per code after it — shifts by constants, where setting bit
// i would be a shift by a variable.
func inRangeCarry(words []uint64, n int, width uint, codeLo, span uint64) uint64 {
	mask := Mask(width)
	cur, avail := words[0], uint(64)
	w := 0
	var out uint64
	for range n {
		var c uint64
		if avail >= width {
			c = cur & mask
			cur >>= width
			avail -= width
		} else {
			w++
			next := words[w]
			c = (cur | next<<avail) & mask
			cur = next >> (width - avail)
			avail = 64 - (width - avail)
		}
		out = out>>1 | in(c, codeLo, span)<<63
	}
	return out >> uint(64-n)
}

// in is 1 when c − lo ≤ span and 0 otherwise, without a branch.
func in(c, lo, span uint64) uint64 {
	if c-lo <= span {
		return 1
	}
	return 0
}
