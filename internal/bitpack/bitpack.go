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
package bitpack

import "fmt"

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
//
// The words are built directly with a shift-carry accumulator — one store
// per output word instead of a read-modify-write per value — so bulk
// re-decomposition (merges re-pack every merged row) runs at memory speed.
func Pack(width uint, vals []uint64) *Array {
	a := New(width, len(vals))
	if width == 0 || len(vals) == 0 {
		return a
	}
	if width == 64 {
		copy(a.words, vals)
		return a
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
			a.words[w] = acc
			w++
			fill -= 64
			// Bits of v that did not fit (width-fill..width) carry over.
			acc = v >> (width - fill)
		}
	}
	if fill > 0 {
		a.words[w] = acc
	}
	return a
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
// the extended slice. It decodes word-at-a-time: widths that divide 64
// (1, 2, 4, 8, 16, 32, 64) never straddle a word boundary and run as a
// branch-free shift loop per 64-bit word; other widths use a shift-carry
// loop that reads each backing word exactly once. Both replace the
// branch-and-shift-per-element Get in scan-shaped loops.
func (a *Array) UnpackRange(dst []uint64, lo, hi int) []uint64 {
	if lo < 0 || hi > a.n || lo > hi {
		panic(fmt.Sprintf("bitpack: range [%d,%d) out of bounds [0,%d]", lo, hi, a.n))
	}
	n := hi - lo
	if n == 0 {
		return dst
	}
	if cap(dst)-len(dst) < n {
		grown := make([]uint64, len(dst), len(dst)+n)
		copy(grown, dst)
		dst = grown
	}
	if a.width == 0 {
		base := len(dst)
		dst = dst[:base+n]
		clear(dst[base:])
		return dst
	}
	if a.width == 64 {
		return append(dst, a.words[lo:hi]...)
	}
	width := a.width
	mask := Mask(width)
	if 64%width == 0 {
		// Values never straddle a word: emit per-word runs.
		per := int(64 / width) // values per word
		i := lo
		// Head: finish the word lo starts in.
		if r := i % per; r != 0 {
			w := a.words[i/per]
			w >>= uint(r) * width
			for ; i < hi && i%per != 0; i++ {
				dst = append(dst, w&mask)
				w >>= width
			}
		}
		// Body: whole words.
		for ; i+per <= hi; i += per {
			w := a.words[i/per]
			for k := 0; k < per; k++ {
				dst = append(dst, w&mask)
				w >>= width
			}
		}
		// Tail.
		if i < hi {
			w := a.words[i/per]
			for ; i < hi; i++ {
				dst = append(dst, w&mask)
				w >>= width
			}
		}
		return dst
	}
	off := uint64(lo) * uint64(width)
	base := len(dst)
	dst = dst[:base+n]
	shiftCarry(dst[base:], a.words[off>>6:], uint(off&63), width)
	return dst
}

// shiftCarry decodes len(dst) values of the given width (1..63) that start
// at bit sh of words[0]: it keeps a bit cursor and reads each backing word
// once, carrying straddled low bits into the next value.
func shiftCarry(dst, words []uint64, sh, width uint) {
	mask := Mask(width)
	cur := words[0] >> sh
	avail := 64 - sh // valid low bits in cur
	w := 0
	for i := range dst {
		var v uint64
		if avail >= width {
			v = cur & mask
			cur >>= width
			avail -= width
		} else {
			w++
			next := words[w]
			v = (cur | next<<avail) & mask
			cur = next >> (width - avail)
			avail = 64 - (width - avail)
		}
		dst[i] = v
	}
}

// Unpack64 decodes the values at positions [lo, min(lo+64, Len())) into dst
// and returns how many it wrote; lo must be a multiple of 64. Such a block
// of 64 values always starts on a word boundary (64·width bits is a whole
// number of words), so the shift-carry decode starts at bit 0 of its first
// word and stores straight into the caller's stack array — the granule
// decode of the A&R approximate scan. Entries of dst past the returned count are
// left untouched, and bits of the last backing word beyond the final value
// are never interpreted.
func (a *Array) Unpack64(dst *[64]uint64, lo int) int {
	if lo < 0 || lo > a.n || lo&63 != 0 {
		panic(fmt.Sprintf("bitpack: block start %d not a multiple of 64 in [0,%d]", lo, a.n))
	}
	n := min(64, a.n-lo)
	width := a.width
	if n == 0 {
		return 0
	}
	if width == 0 {
		clear(dst[:n])
		return n
	}
	if width == 64 {
		return copy(dst[:n], a.words[lo:])
	}
	shiftCarry(dst[:n], a.words[lo/64*int(width):], 0, width)
	return n
}

// Gather writes a.Get(id) for each id in ids into dst, which must be at
// least len(ids) long. It is the positional-lookup primitive behind
// invisible joins on packed columns whose positions are an explicit list —
// candidates a refinement already thinned. (A scan's own survivors are
// projected by granule from their mask, never through here.)
func Gather[ID ~uint32](a *Array, ids []ID, dst []uint64) {
	_ = dst[:len(ids)]
	for i, id := range ids {
		dst[i] = a.Get(int(id))
	}
}

// Append appends v (masked to the array width) and returns the new length.
func (a *Array) Append(v uint64) int {
	i := a.n
	a.n++
	if a.width > 0 {
		if need := wordsFor(a.width, a.n); need > len(a.words) {
			a.words = append(a.words, make([]uint64, need-len(a.words))...)
		}
		a.Set(i, v)
	}
	return a.n
}

// AppendPacked appends every value of b (which must have the same width)
// at word level: when the append cursor is word-aligned the backing words
// are copied verbatim, otherwise each source word is split across two
// destination words with one shift-or pair — either way the per-element
// Set round-trip is gone. It panics on a width mismatch.
func (a *Array) AppendPacked(b *Array) int {
	if a.width != b.width {
		panic(fmt.Sprintf("bitpack: AppendPacked width mismatch %d != %d", a.width, b.width))
	}
	if b.n == 0 {
		return a.n
	}
	if a.width == 0 {
		a.n += b.n
		return a.n
	}
	oldN := a.n
	a.n += b.n
	if need := wordsFor(a.width, a.n); need > len(a.words) {
		a.words = append(a.words, make([]uint64, need-len(a.words))...)
	}
	off := uint64(oldN) * uint64(a.width)
	w := int(off >> 6)
	sh := uint(off & 63)
	srcWords := wordsFor(b.width, b.n)
	if sh == 0 {
		copy(a.words[w:], b.words[:srcWords])
		return a.n
	}
	// Clear any stale high bits of the partial word, then interleave.
	a.words[w] &= Mask(sh)
	srcRem := uint(uint64(b.width) * uint64(b.n) & 63)
	for i := 0; i < srcWords; i++ {
		v := b.words[i]
		if i == srcWords-1 && srcRem != 0 {
			v &= Mask(srcRem) // tolerate tail garbage in deserialized words
		}
		a.words[w+i] |= v << sh
		if w+i+1 < len(a.words) {
			a.words[w+i+1] = v >> (64 - sh)
		}
	}
	return a.n
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
