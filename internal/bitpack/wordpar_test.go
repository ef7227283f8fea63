package bitpack

import (
	"math/rand"
	"testing"
)

// The word-parallel paths (Pack's shift-carry accumulator, UnpackRange's
// streaming decode, AppendPacked's word splice) must be bit-identical with
// the per-element Get/Set reference at every width 0..64 and every
// alignment, including ranges that start and end mid-word.

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

func TestAppendPackedMatchesAppendLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for width := uint(0); width <= 64; width++ {
		// A non-multiple-of-64 starting bit offset forces the spliced words
		// to shift; an aligned start takes the copy fast path.
		for _, pre := range []int{0, 1 + rng.Intn(97)} {
			left := randomVals(rng, width, pre)
			right := randomVals(rng, width, 1+rng.Intn(200))

			fast := Pack(width, left)
			fast.AppendPacked(Pack(width, right))

			ref := Pack(width, left)
			for _, v := range right {
				ref.Append(v)
			}
			if !fast.Equal(ref) {
				t.Fatalf("width %d pre %d: AppendPacked differs from Append loop", width, pre)
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
				got := a.Unpack64(&dst, lo)
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
			a.Unpack64(&dst, lo)
		}()
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
