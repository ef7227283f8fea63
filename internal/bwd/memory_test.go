package bwd

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/bat"
	"repro/internal/mem"
)

// Decompose holds nothing a column long beside the planes it returns: it
// splits and packs a block of rows at a time. With the arena off, every
// buffer it takes is a fresh allocation, so one call's allocated bytes must
// stay under its planes, its summaries and two blocks of code scratch — and a
// re-decomposition's under a third block, the values it decodes into — with no
// term of 8 B per row. A column with no device bits packs its residual
// through one block and computes no summary, so it stays under its plane and
// one block, and a re-decomposition under a second.
func TestDecomposeHoldsNoColumnScratch(t *testing.T) {
	defer mem.SetPooling(mem.SetPooling(false))
	const n = 1 << 21
	rng := rand.New(rand.NewSource(21))
	vals := make([]int64, n)
	for i, at := 0, int64(0); i < n; i++ {
		if i%200 == 0 {
			at = rng.Int63n(1 << 30)
		}
		at += rng.Int63n(64) - 32
		vals[i] = at
	}
	const block = BlockRows * 8
	for _, bits := range []uint{12, 40, 0} { // residual bits, none, and no device bits
		var c, r *Column
		var err error
		blocks := uint64(2)
		if bits == 0 {
			blocks = 1
		}
		dec := allocated(func() { c, err = Decompose(vals, bat.Width32, bits, nil) })
		if err != nil {
			t.Fatal(err)
		}
		if want := heldBytes(c) + blocks*block + slack; dec > want {
			t.Errorf("%d bits: Decompose allocated %d B, over planes + summaries + %d blocks (%d B)", bits, dec, blocks, want)
		}
		if bits == 0 && (c.Approx != nil || c.hist != nil || c.splits != nil || c.parts != nil) {
			t.Errorf("no device bits: the column holds an approximation or summaries")
		}
		redec := allocated(func() { r, err = c.Redecompose(bits, nil) })
		if err != nil {
			t.Fatal(err)
		}
		if want := heldBytes(r) + (blocks+1)*block + slack; redec > want {
			t.Errorf("%d bits: Redecompose allocated %d B, over planes + summaries + %d blocks (%d B)", bits, redec, blocks+1, want)
		}
		t.Logf("%d bits (%d residual): the column holds %d B; Decompose allocated %d B, Redecompose %d B", bits, c.Dec.ResBits, heldBytes(c), dec, redec)
	}
}

// slack covers what one call allocates besides its planes, summaries and
// scratch: the column's own record, closures, and the rounding of each
// large allocation up to whole pages.
const slack = 128 << 10

// allocated returns the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// heldBytes is what a column holds: its two planes and its summaries — the
// histogram, the granule records and the part index.
func heldBytes(c *Column) uint64 {
	held := uint64(c.GPUBytes()+c.CPUBytes()) + uint64(cap(c.hist))*8 + uint64(cap(c.splits))*uint64(unsafe.Sizeof(Split{}))
	if x := c.parts; x != nil {
		held += uint64(cap(x.mins)+cap(x.maxs))*8 + uint64(cap(x.starts)+cap(x.gran)+cap(x.wide))*4 + uint64(cap(x.part))
	}
	return held
}
