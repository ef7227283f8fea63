package bitpack

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// The word-parallel paths (Pack's shift-carry accumulator, UnpackRange's
// streaming decode, Unpack64's granule decode, InRange64's compare) must be
// bit-identical with the per-element Get/Set reference at every width 0..64
// and every alignment, including ranges that start and end mid-word.

func randomVals(rng *rand.Rand, width uint, n int) []uint64 {
	vals := make([]uint64, n)
	m := Mask(width)
	for i := range vals {
		vals[i] = rng.Uint64() & m
	}
	return vals
}

func TestPackMatchesSetLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for width := uint(0); width <= 64; width++ {
		n := 1 + rng.Intn(300)
		vals := randomVals(rng, width, n)
		fast := Pack(width, vals)
		ref := New(width, n)
		for i, v := range vals {
			ref.Set(i, v)
		}
		if !fast.Equal(ref) {
			t.Fatalf("width %d: Pack differs from Set loop", width)
		}
	}
}

// PackAt fills an array a block at a time, each block starting at a multiple
// of 64 positions and the last one short: the words must equal Pack's over
// the whole, even where a block's last word is only part full, and a range
// that does not start on a word boundary or runs past the end is refused.
func TestPackAtBlocksMatchPack(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for width := uint(0); width <= 64; width++ {
		n := 64*(1+rng.Intn(12)) + rng.Intn(64)
		vals := randomVals(rng, width, n)
		for _, block := range []int{64, 128, 64 * 5} {
			a := New(width, n)
			for lo := 0; lo < n; lo += block {
				a.PackAt(lo, vals[lo:min(lo+block, n)])
			}
			if !a.Equal(Pack(width, vals)) || !slices.Equal(a.Words(), Pack(width, vals).Words()) {
				t.Fatalf("width %d, blocks of %d: PackAt differs from Pack", width, block)
			}
		}
	}
	for _, bad := range []struct {
		width uint
		lo, n int
	}{{5, 1, 3}, {7, 32, 10}, {8, 64, 200}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("width %d: PackAt(%d, %d values) into 100 did not panic", bad.width, bad.lo, bad.n)
				}
			}()
			New(bad.width, 100).PackAt(bad.lo, make([]uint64, bad.n))
		}()
	}
}

func TestUnpackRangeMatchesGetLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for width := uint(0); width <= 64; width++ {
		n := 64 + rng.Intn(300)
		a := Pack(width, randomVals(rng, width, n))
		for trial := 0; trial < 8; trial++ {
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo+1)
			got := a.UnpackRange(nil, lo, hi)
			if len(got) != hi-lo {
				t.Fatalf("width %d [%d,%d): got %d values", width, lo, hi, len(got))
			}
			for j, v := range got {
				if want := a.Get(lo + j); v != want {
					t.Fatalf("width %d [%d,%d) pos %d: got %d want %d", width, lo, hi, j, v, want)
				}
			}
		}
	}
}

// Unpack64 decodes one 64-row block at a time into a fixed array: every
// width, every block of arrays whose length sits on and around block
// boundaries, and an array rebuilt by FromWords over backing words whose
// unused tail bits are garbage. Entries past the returned count must stay
// untouched.
func TestUnpack64MatchesGetLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for width := uint(0); width <= 64; width++ {
		for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 300} {
			a := Pack(width, randomVals(rng, width, n))
			if width > 0 && n > 0 {
				words := append([]uint64(nil), a.Words()...)
				if rem := uint(uint64(width) * uint64(n) & 63); rem != 0 {
					words[len(words)-1] |= rng.Uint64() &^ Mask(rem)
				}
				dirty, err := FromWords(width, n, words)
				if err != nil {
					t.Fatal(err)
				}
				if !dirty.Equal(a) {
					t.Fatalf("width %d n %d: tail garbage changed Equal", width, n)
				}
				a = dirty
			}
			for lo := 0; lo <= n; lo += 64 {
				const sentinel = ^uint64(0) - 12345
				var dst [64]uint64
				for i := range dst {
					dst[i] = sentinel
				}
				got := a.Unpack64(&dst, lo, 0)
				if want := min(64, n-lo); got != want {
					t.Fatalf("width %d n %d block %d: wrote %d values, want %d", width, n, lo, got, want)
				}
				for i, v := range dst {
					want := uint64(sentinel)
					if i < got {
						want = a.Get(lo + i)
					}
					if v != want {
						t.Fatalf("width %d n %d block %d pos %d: got %d want %d", width, n, lo, i, v, want)
					}
				}
			}
		}
	}
	a := Pack(5, make([]uint64, 100))
	for _, lo := range []int{-64, 1, 63, 128} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Unpack64 at %d did not panic", lo)
				}
			}()
			var dst [64]uint64
			a.Unpack64(&dst, lo, 0)
		}()
	}
}

// randomWords is an array of n values of the given width over backing words
// whose every bit is random, the unused tail of the last word included.
func randomWords(t testing.TB, rng *rand.Rand, width uint, n int) *Array {
	var words []uint64
	if width > 0 {
		words = make([]uint64, wordsFor(width, n))
	}
	for i := range words {
		words[i] = rng.Uint64()
	}
	a, err := FromWords(width, n, words)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// checkUnpack64 decodes every 64-aligned block of a — the empty one at Len
// included when Len is a multiple of 64 — plus base into a sentinel-filled
// array and holds it to Get + base, wrapping; entries past the returned count
// must stay untouched.
func checkUnpack64(t testing.TB, a *Array, base uint64) {
	t.Helper()
	const sentinel = ^uint64(0) - 4321
	for lo := 0; lo <= a.Len(); lo += 64 {
		var dst [64]uint64
		for i := range dst {
			dst[i] = sentinel
		}
		got := a.Unpack64(&dst, lo, base)
		if want := min(64, a.Len()-lo); got != want {
			t.Fatalf("width %d n %d block %d: wrote %d values, want %d", a.Width(), a.Len(), lo, got, want)
		}
		for i, v := range dst {
			want := uint64(sentinel)
			if i < got {
				want = a.Get(lo+i) + base
			}
			if v != want {
				t.Fatalf("width %d n %d block %d base %#x pos %d: got %#x want %#x", a.Width(), a.Len(), lo, base, i, v, want)
			}
		}
	}
}

// Unpack64 at every width 0..64 — the fill at 0, the copy at 64 and a
// generated kernel at every width between — for every 64-aligned
// block of arrays whose last block is every length from 1 to 64, over words
// that are random in every bit, plus no base and a random one: a column's
// base is any int64, a negative one a wrapping uint64.
func TestUnpack64MatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for width := uint(0); width <= 64; width++ {
		for short := 1; short <= 64; short++ {
			a := randomWords(t, rng, width, 2*64+short)
			checkUnpack64(t, a, 0)
			checkUnpack64(t, a, rng.Uint64())
			checkUnpack64(t, a, uint64(-rng.Int63n(1<<40)))
		}
	}
}

// checkInRange64 compiles the codes c with c − codeLo ≤ span modulo 2^64
// into r, which may hold a range compiled before — for another range or
// another width — and holds the compare kernel to Get on every 64-aligned
// block of a, the empty one at Len included: bit i of a block's word is the
// value at lo+i, and no bit is set past Len.
func checkInRange64(t testing.TB, a *Array, r *Range, codeLo, span uint64) {
	t.Helper()
	r.Compile(a.Width(), codeLo, span)
	for lo := 0; lo <= a.Len(); lo += 64 {
		var want uint64
		for i := lo; i < min(lo+64, a.Len()); i++ {
			if a.Get(i)-codeLo <= span {
				want |= 1 << uint(i-lo)
			}
		}
		if got := a.InRange64(lo, r); got != want {
			t.Fatalf("width %d n %d block %d, codes from %#x span %#x: got %#x want %#x", a.Width(), a.Len(), lo, codeLo, span, got, want)
		}
	}
}

// InRange64 at every width 0..64 — lanes within a word at 1, 2, 4, 8 and 16
// bits, lanes across words at the other widths below 32, a compare per code
// at 32 and 64 and a kernel decode between — for every 64-aligned block of
// arrays whose last block is every length from 1 to 64, over words that are
// random in every bit, the tail past the last value included. The ranges
// start at 0, inside the codes, at the largest code and above it, span
// nothing, some or everything, and wrap past 2^64; one Range is compiled
// over and over, from width to width and range to range. A Range compiled
// for another width, or never, is refused.
func TestInRange64MatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var cr Range
	for width := uint(0); width <= 64; width++ {
		top := Mask(width)
		for short := 1; short <= 64; short++ {
			a := randomWords(t, rng, width, 2*64+short)
			r := rng.Uint64() & top
			for _, c := range [][2]uint64{
				{0, 0}, {0, top / 2}, {0, ^uint64(0)},
				{r, 0}, {r, top / 64}, {r, top - r}, {r, ^uint64(0)},
				{r, ^uint64(0) - r + 1 + r/2}, // wraps: [r, 2^64) and [0, r/2]
				{top, 0}, {top, 5}, {top, ^uint64(0)},
				{top + 1, 0}, {top + 1, 7}, {top + 1, ^uint64(0) - top}, // above every code; the last wraps to [0, 0]
				{^uint64(0) - 3, 9}, // wraps to [0, 5]
				{rng.Uint64(), rng.Uint64()},
			} {
				checkInRange64(t, a, &cr, c[0], c[1])
			}
		}
	}
	a := Pack(5, make([]uint64, 100))
	cr.Compile(5, 0, 1)
	var other, never Range
	other.Compile(6, 0, 1)
	for _, c := range []struct {
		lo int
		r  *Range
	}{{-64, &cr}, {1, &cr}, {63, &cr}, {128, &cr}, {0, &other}, {0, &never}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("InRange64 at %d with a range of width %d did not panic", c.lo, c.r.width)
				}
			}()
			a.InRange64(c.lo, c.r)
		}()
	}
}

// FuzzUnpack holds the word-level decoders and the compare kernel to Get
// over arbitrary widths (every one of 0..64), lengths and backing words:
// Unpack64 on every block with no base and with the fuzzed one — any uint64,
// a negative int64 base among them, added with wrapping — and nothing written
// past the count it reports; InRange64 on every block, the last one short
// at most lengths, with one Range compiled in turn for the fuzzed code range
// as given (its low end above the width's largest code at most widths), cut
// to the width, every code and no code; and UnpackRange on one range,
// appended behind a prefix it must leave alone.
func FuzzUnpack(f *testing.F) {
	f.Add(uint8(4), uint16(130), uint16(3), uint16(70), []byte{0xa5, 0x3c, 0xff, 0x01}, uint64(5), uint64(6), uint64(0))
	f.Add(uint8(9), uint16(64), uint16(0), uint16(64), []byte{}, uint64(0), ^uint64(0), ^uint64(6))
	f.Add(uint8(64), uint16(1), uint16(0), uint16(1), []byte{0x80}, ^uint64(0), uint64(2), uint64(1)<<63)
	f.Add(uint8(16), uint16(200), uint16(1), uint16(9), []byte{0x12, 0x34, 0x56}, uint64(0x3412), uint64(0x100), uint64(1000))
	f.Add(uint8(9), uint16(100), uint16(0), uint16(0), []byte{}, uint64(0), uint64(0), uint64(0))
	f.Add(uint8(0), uint16(70), uint16(0), uint16(0), []byte{}, uint64(0), uint64(0), ^uint64(0))
	f.Add(uint8(23), uint16(157), uint16(5), uint16(40), []byte{0x9e, 0x37, 0x79, 0xb9, 0x7f, 0x4a}, uint64(0x3fffff), uint64(0x40001), uint64(7))
	f.Add(uint8(12), uint16(1000), uint16(64), uint16(300), []byte{0xc3, 0x11}, uint64(0xf00), uint64(0xff), uint64(0))
	f.Add(uint8(40), uint16(157), uint16(60), uint16(90), []byte{0x5a, 0xe1, 0x07, 0x93, 0xcc}, uint64(1)<<39, uint64(1)<<30, uint64(3))
	f.Add(uint8(63), uint16(100), uint16(1), uint16(98), []byte{0xff, 0x00, 0x81, 0x7e}, uint64(0), uint64(1)<<62, ^uint64(0))
	f.Fuzz(func(t *testing.T, w uint8, size, from, span uint16, raw []byte, codeLo, codeSpan, base uint64) {
		width, n := uint(w)%65, int(size)%2048
		var words []uint64
		if width > 0 {
			words = make([]uint64, wordsFor(width, n))
		}
		for i := range words {
			for b := 0; b < 8 && len(raw) > 0; b++ {
				words[i] |= uint64(raw[(i*8+b)%len(raw)]) << (8 * b)
			}
		}
		a, err := FromWords(width, n, words)
		if err != nil {
			t.Fatal(err)
		}
		checkUnpack64(t, a, 0)
		checkUnpack64(t, a, base)
		var r Range
		checkInRange64(t, a, &r, codeLo, codeSpan)
		checkInRange64(t, a, &r, codeLo&Mask(width), codeSpan&Mask(width))
		checkInRange64(t, a, &r, codeLo, ^uint64(0))
		checkInRange64(t, a, &r, Mask(width)+1, codeSpan%(^Mask(width)|1)) // above every code, not wrapping
		lo := int(from) % (n + 1)
		hi := lo + int(span)%(n-lo+1)
		prefix := []uint64{7, 8, 9}
		got := a.UnpackRange(append([]uint64(nil), prefix...), lo, hi)
		if len(got) != len(prefix)+hi-lo || !slices.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("width %d n %d [%d,%d): got %d values, prefix %v", width, n, lo, hi, len(got), got[:min(len(got), len(prefix))])
		}
		for i, v := range got[len(prefix):] {
			if want := a.Get(lo + i); v != want {
				t.Fatalf("width %d n %d [%d,%d) pos %d: got %#x want %#x", width, n, lo, hi, lo+i, v, want)
			}
		}
	})
}

// Unpack64 into a caller's stack block allocates nothing, a whole block or a
// short last one, at the fill, the copy and the kernels between: the kernels
// are reached through a switch, which escape analysis sees through, where a
// table of function values would move every caller's block to the heap.
func TestUnpack64DoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for _, width := range []uint{0, 1, 4, 13, 23, 40, 63, 64} {
		a := Pack(width, randomVals(rng, width, 100))
		if n := testing.AllocsPerRun(100, func() {
			var dst [64]uint64
			a.Unpack64(&dst, 0, 0)
			a.Unpack64(&dst, 64, 1)
			compareSink += int(dst[7])
		}); n != 0 {
			t.Errorf("width %d: Unpack64 into a stack block allocates %.1f/op", width, n)
		}
	}
}

// At reads what Get reads at every width 1..64 and every position, over
// words that are random in every bit, the tail past the last value included.
func TestAtMatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for width := uint(1); width <= 64; width++ {
		a := randomWords(t, rng, width, 2*64+int(width))
		for i := range a.Len() {
			if got, want := a.At(i), a.Get(i); got != want {
				t.Fatalf("width %d pos %d: At %#x, Get %#x", width, i, got, want)
			}
		}
	}
}

func TestUnpackRangeReusesDst(t *testing.T) {
	a := Pack(7, []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	buf := make([]uint64, 0, 16)
	got := a.UnpackRange(buf, 2, 9)
	if &got[0] != &buf[:1][0] {
		t.Fatal("UnpackRange allocated despite sufficient dst capacity")
	}
	if n := testing.AllocsPerRun(100, func() { a.UnpackRange(buf, 0, 10) }); n != 0 {
		t.Fatalf("UnpackRange with capacious dst allocates %.1f/op", n)
	}
}

var compareSink int

// unpackInRange is InRange64 the way a granule scan compared before it:
// Unpack64 into buf, then one branch-free compare per code, eight at a time.
func unpackInRange(a *Array, lo int, codeLo, span uint64, buf *[64]uint64) uint64 {
	a.Unpack64(buf, lo, 0)
	var word uint64
	for i := 0; i < 64; i += 8 {
		c := (*[8]uint64)(buf[i : i+8])
		word |= (in(c[0], codeLo, span) | in(c[1], codeLo, span)<<1 |
			in(c[2], codeLo, span)<<2 | in(c[3], codeLo, span)<<3 |
			in(c[4], codeLo, span)<<4 | in(c[5], codeLo, span)<<5 |
			in(c[6], codeLo, span)<<6 | in(c[7], codeLo, span)<<7) << uint(i)
	}
	return word
}

// BenchmarkInRange64 compares 1 M random codes with a 0.5 % code range a
// block of 64 at a time, at widths that divide 64 and widths whose codes
// straddle words: the kernel, with the range compiled once as a walk does,
// and beside it the loop a granule scan ran before it (unpackInRange).
func BenchmarkInRange64(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(29))
	for _, width := range []uint{4, 6, 8, 12, 13, 16, 20, 23, 24, 32} {
		a := Pack(width, randomVals(rng, width, n))
		codeLo, span := Mask(width)/2, Mask(width)/200
		b.Run(fmt.Sprintf("w%d/kernel", width), func(b *testing.B) {
			b.SetBytes(a.Bytes())
			var r Range
			r.Compile(width, codeLo, span)
			for b.Loop() {
				k := 0
				for lo := 0; lo < n; lo += 64 {
					k += bits.OnesCount64(a.InRange64(lo, &r))
				}
				compareSink = k
			}
		})
		b.Run(fmt.Sprintf("w%d/unpack", width), func(b *testing.B) {
			b.SetBytes(a.Bytes())
			var buf [64]uint64
			for b.Loop() {
				k := 0
				for lo := 0; lo < n; lo += 64 {
					k += bits.OnesCount64(unpackInRange(a, lo, codeLo, span, &buf))
				}
				compareSink = k
			}
		})
	}
}

// BenchmarkUnpack64 decodes 1 M random codes a block of 64 at a time into a
// granule's array, at the widths of the workloads' columns — Q1's keys
// (l_linestatus 1, l_returnflag 2 bits), l_discount and l_tax 4,
// l_quantity 6, l_shipdate 12, l_partkey 13, trips' lon/lat 23 — and of
// the decode's other judged lines, two above 32 bits among them.
func BenchmarkUnpack64(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(21))
	for _, width := range []uint{1, 2, 4, 6, 12, 13, 20, 23, 24, 40, 63} {
		a := Pack(width, randomVals(rng, width, n))
		b.Run(fmt.Sprintf("w%d", width), func(b *testing.B) {
			b.SetBytes(a.Bytes())
			var buf [64]uint64
			for b.Loop() {
				var sum uint64
				for lo := 0; lo < n; lo += 64 {
					a.Unpack64(&buf, lo, 0)
					sum += buf[lo>>6&63]
				}
				compareSink = int(sum)
			}
		})
	}
}

func BenchmarkUnpackRange(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	const n = 64 << 10
	a := Pack(9, randomVals(rng, 9, n))
	dst := make([]uint64, 0, n)
	b.SetBytes(n * 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.UnpackRange(dst, 0, n)
	}
}
