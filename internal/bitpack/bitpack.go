// Package bitpack implements fixed-width bit-packed integer arrays.
//
// A bit-packed array stores n values of a fixed width (1..64 bits) densely
// in 64-bit words. It is the physical storage format for the GPU-resident
// approximations and the CPU-resident residuals of a bitwise decomposed
// column (see package bwd): an approximation with k-bit resolution occupies
// k/8 bytes per value instead of the full value width, which is what lets
// it fit into the small, fast device memory.
//
// Width 0 is supported and denotes an array of zeros that occupies no
// storage; it arises when a column is fully GPU resident (the residual is
// empty) or fully CPU resident (the approximation carries no bits).
//
// Values are read back a block of 64 at a time: such a block fills exactly
// width words, and each width 1..63 decodes it with a straight-line kernel
// of constant shifts (Unpack64; cmd/unpackgen generates the kernels into
// unpack_gen.go). Get reads one value with its checks, At one without them.
package bitpack

import "fmt"

//go:generate go run ../../cmd/unpackgen

// Array is a fixed-width bit-packed integer array. The zero value is an
// empty array of width 0.
type Array struct {
	width uint
	n     int
	words []uint64
}

// New returns an Array of n zero values of the given width in bits.
// It panics if width exceeds 64 or n is negative.
func New(width uint, n int) *Array {
	if width > 64 {
		panic(fmt.Sprintf("bitpack: width %d out of range [0,64]", width))
	}
	if n < 0 {
		panic(fmt.Sprintf("bitpack: negative length %d", n))
	}
	a := &Array{width: width, n: n}
	if width > 0 {
		a.words = make([]uint64, wordsFor(width, n))
	}
	return a
}

// Pack packs vals into a new Array of the given width. Values must fit in
// width bits; excess high bits are masked off.
func Pack(width uint, vals []uint64) *Array {
	a := New(width, len(vals))
	a.PackAt(0, vals)
	return a
}

// PackAt packs vals into positions [lo, lo+len(vals)), which must lie in the
// array and start on a word boundary — lo·width a multiple of 64, as it is at
// every multiple of 64 positions — so a decomposition can fill its planes a
// block of rows at a time. Excess high bits are masked off; the last word it
// touches is written whole, its bits past the values zero.
//
// The words are built directly with a shift-carry accumulator — one store
// per output word instead of a read-modify-write per value — so bulk
// re-decomposition (merges re-pack every merged row) runs at memory speed.
func (a *Array) PackAt(lo int, vals []uint64) {
	width := a.width
	if lo < 0 || lo+len(vals) > a.n || uint64(lo)*uint64(width)&63 != 0 {
		panic(fmt.Sprintf("bitpack: pack of %d values at %d: not a word-aligned range of [0,%d)", len(vals), lo, a.n))
	}
	if width == 0 || len(vals) == 0 {
		return
	}
	words := a.words[uint64(lo)*uint64(width)>>6:]
	if width == 64 {
		copy(words, vals)
		return
	}
	mask := Mask(width)
	var acc uint64 // bits accumulated, low-aligned
	var fill uint  // number of valid bits in acc
	w := 0
	for _, v := range vals {
		v &= mask
		acc |= v << fill
		fill += width
		if fill >= 64 {
			words[w] = acc
			w++
			fill -= 64
			// Bits of v that did not fit (width-fill..width) carry over.
			acc = v >> (width - fill)
		}
	}
	if fill > 0 {
		words[w] = acc
	}
}

func wordsFor(width uint, n int) int {
	bits := uint64(width) * uint64(n)
	return int((bits + 63) / 64)
}

// Mask returns a bit mask with the low width bits set.
func Mask(width uint) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << width) - 1
}

// Len returns the number of values in the array.
func (a *Array) Len() int { return a.n }

// Width returns the width in bits of each value.
func (a *Array) Width() uint { return a.width }

// Bytes returns the physical storage footprint of the array in bytes.
// This is the quantity charged against device capacity and bandwidth.
func (a *Array) Bytes() int64 { return int64(len(a.words)) * 8 }

// Get returns the i-th value. It panics if i is out of range.
func (a *Array) Get(i int) uint64 {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("bitpack: index %d out of range [0,%d)", i, a.n))
	}
	if a.width == 0 {
		return 0
	}
	off := uint64(i) * uint64(a.width)
	w := off >> 6
	sh := off & 63
	v := a.words[w] >> sh
	if sh+uint64(a.width) > 64 {
		v |= a.words[w+1] << (64 - sh)
	}
	return v & Mask(a.width)
}

// At is Get for a reader that knows i lies in [0, Len()) and the width is
// not 0 (there the value's last bit, off+width−1, wraps below 0 and the read
// panics): no check and no branch — the word the value starts in and the one
// it ends in, the same word when it does not straddle, whose bits below the
// start then shift out of the mask — so it inlines into a per-row loop.
func (a *Array) At(i int) uint64 {
	w := uint64(a.width)
	off := uint64(i) * w
	sh := off & 63
	return (a.words[off>>6]>>sh | a.words[(off+w-1)>>6]<<((64-sh)&63)) & (^uint64(0) >> ((64 - w) & 63))
}

// Set stores v at index i, masking v to the array width.
// It panics if i is out of range.
func (a *Array) Set(i int, v uint64) {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("bitpack: index %d out of range [0,%d)", i, a.n))
	}
	if a.width == 0 {
		return
	}
	v &= Mask(a.width)
	off := uint64(i) * uint64(a.width)
	w := off >> 6
	sh := off & 63
	a.words[w] = a.words[w]&^(Mask(a.width)<<sh) | v<<sh
	if sh+uint64(a.width) > 64 {
		rem := sh + uint64(a.width) - 64
		a.words[w+1] = a.words[w+1]&^Mask(uint(rem)) | v>>(64-sh)
	}
}

// UnpackRange appends the values at positions [lo, hi) to dst and returns
// the extended slice. It decodes a block of 64 at a time (Unpack64), whole
// blocks in place and an unaligned head or tail through a block on the
// stack: it replaces the branch-and-shift-per-element Get in scan-shaped
// loops.
func (a *Array) UnpackRange(dst []uint64, lo, hi int) []uint64 {
	if lo < 0 || hi > a.n || lo > hi {
		panic(fmt.Sprintf("bitpack: range [%d,%d) out of bounds [0,%d]", lo, hi, a.n))
	}
	n := hi - lo
	if cap(dst)-len(dst) < n {
		grown := make([]uint64, len(dst), len(dst)+n)
		copy(grown, dst)
		dst = grown
	}
	out := dst[len(dst) : len(dst)+n]
	var blk [64]uint64
	for lo < hi {
		if lo&63 == 0 && hi-lo >= 64 {
			a.Unpack64((*[64]uint64)(out), lo, 0)
			out, lo = out[64:], lo+64
			continue
		}
		at := lo &^ 63
		a.Unpack64(&blk, at, 0)
		k := copy(out, blk[lo-at:min(hi-at, 64)])
		out, lo = out[k:], lo+k
	}
	return dst[:len(dst)+n]
}

// Unpack64 decodes the values at positions [lo, min(lo+64, Len())) into dst,
// each plus base (wrapping), and returns how many it wrote; lo must be a
// multiple of 64. Such a block of 64 values is exactly width words from a
// word boundary on, and every width 1..63 has a kernel of its own that
// decodes one with constant shifts (unpack_gen.go, written by cmd/unpackgen);
// width 0 is a fill with base and 64 a copy. A short last block is decoded
// over a zero-padded copy of its words on the stack and its values copied
// out. It is the granule decode of the A&R approximate scan (base 0: the
// codes) and of the aggregate program's dense blocks, where a fully
// device-resident column's base makes each code its value. Entries of dst
// past the returned count are left untouched, and bits of the last backing
// word beyond the final value are never interpreted.
func (a *Array) Unpack64(dst *[64]uint64, lo int, base uint64) int {
	if lo < 0 || lo > a.n || lo&63 != 0 {
		panic(fmt.Sprintf("bitpack: block start %d not a multiple of 64 in [0,%d]", lo, a.n))
	}
	n, width := min(64, a.n-lo), a.width
	switch {
	case n == 0:
	case width == 0:
		for i := range dst[:n] {
			dst[i] = base
		}
	case width == 64:
		for i, w := range a.words[lo : lo+n] {
			dst[i] = w + base
		}
	case n == 64:
		unpackBlock(dst, a.words[lo>>6*int(width):], width, base)
	default:
		var pad [63]uint64
		var blk [64]uint64
		copy(pad[:width], a.words[lo>>6*int(width):])
		unpackBlock(&blk, pad[:width], width, base)
		copy(dst[:n], blk[:n])
	}
	return n
}

// Words exposes the backing 64-bit words (nil for width 0). Callers must
// not mutate them; the slice is the array's live storage. It is the raw
// representation segment persistence serializes.
func (a *Array) Words() []uint64 { return a.words }

// FromWords reconstructs an array of n values of the given width over
// previously serialized backing words. The word count must match exactly
// what an array of that shape occupies; the slice is used directly.
func FromWords(width uint, n int, words []uint64) (*Array, error) {
	if width > 64 {
		return nil, fmt.Errorf("bitpack: width %d out of range [0,64]", width)
	}
	if n < 0 {
		return nil, fmt.Errorf("bitpack: negative length %d", n)
	}
	need := 0
	if width > 0 {
		need = wordsFor(width, n)
	}
	if len(words) != need {
		return nil, fmt.Errorf("bitpack: %d backing words for width %d x %d values (need %d)", len(words), width, n, need)
	}
	a := &Array{width: width, n: n}
	if need > 0 {
		a.words = words
	}
	return a, nil
}

// Clone returns a deep copy of the array.
func (a *Array) Clone() *Array {
	c := &Array{width: a.width, n: a.n}
	if a.words != nil {
		c.words = make([]uint64, len(a.words))
		copy(c.words, a.words)
	}
	return c
}

// Equal reports whether two arrays have the same width and contents. The
// comparison is word-level: all full backing words compare directly, and
// the final partial word is masked to the bits the n values actually
// occupy (so tail garbage from deserialized words cannot flip the answer).
func (a *Array) Equal(b *Array) bool {
	if a.width != b.width || a.n != b.n {
		return false
	}
	if a.width == 0 || a.n == 0 {
		return true
	}
	bits := uint64(a.width) * uint64(a.n)
	full := int(bits >> 6)
	for i := 0; i < full; i++ {
		if a.words[i] != b.words[i] {
			return false
		}
	}
	if rem := uint(bits & 63); rem != 0 {
		if (a.words[full]^b.words[full])&Mask(rem) != 0 {
			return false
		}
	}
	return true
}
