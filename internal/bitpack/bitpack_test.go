package bitpack

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMask(t *testing.T) {
	cases := []struct {
		width uint
		want  uint64
	}{
		{0, 0},
		{1, 1},
		{4, 0xF},
		{8, 0xFF},
		{32, 0xFFFFFFFF},
		{63, ^uint64(0) >> 1},
		{64, ^uint64(0)},
	}
	for _, c := range cases {
		if got := Mask(c.width); got != c.want {
			t.Errorf("Mask(%d) = %#x, want %#x", c.width, got, c.want)
		}
	}
}

func TestNewZeroed(t *testing.T) {
	a := New(13, 100)
	if a.Len() != 100 || a.Width() != 13 {
		t.Fatalf("Len/Width = %d/%d, want 100/13", a.Len(), a.Width())
	}
	for i := 0; i < a.Len(); i++ {
		if a.Get(i) != 0 {
			t.Fatalf("Get(%d) = %d, want 0", i, a.Get(i))
		}
	}
}

func TestWidthZero(t *testing.T) {
	a := New(0, 10)
	if a.Bytes() != 0 {
		t.Errorf("width-0 array occupies %d bytes, want 0", a.Bytes())
	}
	a.Set(3, 42) // must be a no-op, not a panic
	if a.Get(3) != 0 {
		t.Errorf("width-0 Get = %d, want 0", a.Get(3))
	}
	if a.Append(7) != 11 {
		t.Errorf("Append on width-0 did not grow length")
	}
}

func TestSetGetSingleWidths(t *testing.T) {
	for width := uint(1); width <= 64; width++ {
		a := New(width, 67) // odd length exercises straddling
		rng := rand.New(rand.NewSource(int64(width)))
		want := make([]uint64, a.Len())
		for i := range want {
			want[i] = rng.Uint64() & Mask(width)
			a.Set(i, want[i])
		}
		for i := range want {
			if got := a.Get(i); got != want[i] {
				t.Fatalf("width %d: Get(%d) = %#x, want %#x", width, i, got, want[i])
			}
		}
	}
}

func TestSetMasksExcessBits(t *testing.T) {
	a := New(4, 3)
	a.Set(1, 0x1234)
	if got := a.Get(1); got != 0x4 {
		t.Errorf("Get(1) = %#x, want 0x4 (masked)", got)
	}
	if got := a.Get(0); got != 0 {
		t.Errorf("Set spilled into neighbour: Get(0) = %#x", got)
	}
	if got := a.Get(2); got != 0 {
		t.Errorf("Set spilled into neighbour: Get(2) = %#x", got)
	}
}

func TestSetDoesNotClobberNeighbours(t *testing.T) {
	for width := uint(1); width <= 64; width++ {
		a := New(width, 10)
		for i := 0; i < 10; i++ {
			a.Set(i, Mask(width))
		}
		a.Set(5, 0)
		for i := 0; i < 10; i++ {
			want := Mask(width)
			if i == 5 {
				want = 0
			}
			if got := a.Get(i); got != want {
				t.Fatalf("width %d: Get(%d) = %#x, want %#x", width, i, got, want)
			}
		}
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	f := func(raw []uint64, w uint8) bool {
		width := uint(w%64) + 1
		vals := make([]uint64, len(raw))
		for i, v := range raw {
			vals[i] = v & Mask(width)
		}
		a := Pack(width, vals)
		got := a.UnpackRange(nil, 0, a.Len())
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAppendGrows(t *testing.T) {
	a := New(7, 0)
	for i := 0; i < 1000; i++ {
		a.Append(uint64(i) & Mask(7))
	}
	if a.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", a.Len())
	}
	for i := 0; i < 1000; i++ {
		if got := a.Get(i); got != uint64(i)&Mask(7) {
			t.Fatalf("Get(%d) = %d, want %d", i, got, uint64(i)&Mask(7))
		}
	}
}

func TestGather(t *testing.T) {
	a := Pack(9, []uint64{10, 20, 30, 40, 50})
	ids := []uint32{4, 0, 2}
	dst := make([]uint64, len(ids))
	Gather(a, ids, dst)
	want := []uint64{50, 10, 30}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("Gather[%d] = %d, want %d", i, dst[i], want[i])
		}
	}
}

// Gather is Get(id) for every id, at every width, for isolated ids and for
// stretches of consecutive ones of every length up to a few dozen, in any
// order.
func TestGatherRunsMatchGet(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n = 5000
	for width := uint(0); width <= 64; width++ {
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64() & Mask(width)
		}
		a := Pack(width, vals)
		var ids []uint32
		for len(ids) < 3000 {
			at := rng.Intn(n)
			for k := 0; k < 1+rng.Intn(24) && at+k < n; k++ {
				ids = append(ids, uint32(at+k))
			}
		}
		dst := make([]uint64, len(ids))
		Gather(a, ids, dst)
		for i, id := range ids {
			if dst[i] != vals[id] {
				t.Fatalf("width %d: Gather[%d] (id %d) = %d, want %d", width, i, id, dst[i], vals[id])
			}
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	a := Pack(8, []uint64{1, 2, 3})
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal to original")
	}
	b.Set(0, 99)
	if a.Get(0) != 1 {
		t.Error("mutating clone changed original")
	}
	if a.Equal(b) {
		t.Error("Equal true after divergence")
	}
}

func TestEqualWidthMismatch(t *testing.T) {
	a := Pack(8, []uint64{1})
	b := Pack(9, []uint64{1})
	if a.Equal(b) {
		t.Error("arrays of different widths reported equal")
	}
}

func TestBytes(t *testing.T) {
	a := New(13, 100) // 1300 bits -> 21 words -> 168 bytes
	if a.Bytes() != 168 {
		t.Errorf("Bytes = %d, want 168", a.Bytes())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	a := New(8, 4)
	for _, idx := range []int{-1, 4, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d) did not panic", idx)
				}
			}()
			a.Get(idx)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%d) did not panic", idx)
				}
			}()
			a.Set(idx, 0)
		}()
	}
}

func TestNewPanicsOnBadArgs(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New(65, 1) did not panic")
			}
		}()
		New(65, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New(8, -1) did not panic")
			}
		}()
		New(8, -1)
	}()
}

func BenchmarkGet(b *testing.B) {
	a := New(24, 1<<16)
	for i := 0; i < a.Len(); i++ {
		a.Set(i, uint64(i))
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += a.Get(i & (1<<16 - 1))
	}
	_ = sink
}

func BenchmarkPack(b *testing.B) {
	vals := make([]uint64, 1<<16)
	for i := range vals {
		vals[i] = uint64(i)
	}
	b.SetBytes(int64(len(vals) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pack(24, vals)
	}
}
