package par

import (
	"context"
	"errors"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

// loopForms are the entry points that run on the one morsel claim loop;
// each adapter reports every morsel it was handed to visit.
var loopForms = []struct {
	name string
	run  func(t *testing.T, p P, n int, visit func(lo, hi int)) error
}{
	{"For", func(t *testing.T, p P, n int, visit func(lo, hi int)) error {
		return p.For(n, visit)
	}},
	{"ForScratch", func(t *testing.T, p P, n int, visit func(lo, hi int)) error {
		return p.ForScratch(n, func(_ *mem.Scratch, lo, hi int) { visit(lo, hi) })
	}},
	{"ForCounted", func(t *testing.T, p P, n int, visit func(lo, hi int)) error {
		counts, total, err := ForCounted(p, n, func(_ *mem.Scratch, ci, lo, hi int) int {
			if ci != lo/p.ChunkSize() {
				t.Errorf("morsel index %d does not match its range [%d,%d)", ci, lo, hi)
			}
			visit(lo, hi)
			return hi - lo
		})
		if err == nil {
			if total != max(n, 0) {
				t.Errorf("total = %d, want %d", total, max(n, 0))
			}
			mem.Ints.Put(counts)
		}
		return err
	}},
}

func TestParallelLoopForms(t *testing.T) {
	cases := []struct {
		name           string
		n, chunk, work int
	}{
		{"empty", 0, 16, 4},
		{"negative", -5, 16, 4},
		{"below one chunk", 7, 16, 4},
		{"exact multiple", 64, 16, 4},
		{"ragged tail", 1003, 16, 8},
		{"more workers than chunks", 40, 16, 32},
		{"serial", 1003, 16, 1},
		{"default chunk", DefaultChunk + 3, 0, 3},
	}
	for _, form := range loopForms {
		for _, tc := range cases {
			t.Run(form.name+"/"+tc.name, func(t *testing.T) {
				p := P{Workers: tc.work, Chunk: tc.chunk}
				seen := make([]int32, max(tc.n, 0))
				var morsels atomic.Int32
				err := form.run(t, p, tc.n, func(lo, hi int) {
					morsels.Add(1)
					if lo%p.ChunkSize() != 0 || hi-lo > p.ChunkSize() {
						t.Errorf("morsel [%d,%d) is not chunk-aligned", lo, hi)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&seen[i], 1)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("index %d visited %d times", i, c)
					}
				}
				if tc.n <= 0 && morsels.Load() != 0 {
					t.Error("fn called for an empty range")
				}
			})
		}
		t.Run(form.name+"/cancelled before", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			for _, workers := range []int{1, 4} {
				err := form.run(t, P{Workers: workers, Chunk: 10, Ctx: ctx}, 1000, func(lo, hi int) {
					t.Errorf("workers=%d: morsel [%d,%d) ran under a cancelled context", workers, lo, hi)
				})
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
				}
			}
		})
		t.Run(form.name+"/cancelled during", func(t *testing.T) {
			for _, workers := range []int{1, 2} {
				ctx, cancel := context.WithCancel(context.Background())
				var ran atomic.Int32
				err := form.run(t, P{Workers: workers, Chunk: 10, Ctx: ctx}, 10000, func(lo, hi int) {
					if ran.Add(1) == 3 {
						cancel()
					}
				})
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
				}
				// A serial run stops at the very next claim; a parallel one
				// within the morsels in flight — never the whole pass.
				if got := int(ran.Load()); (workers == 1 && got != 3) || got >= 1000 {
					t.Fatalf("workers=%d: ran %d morsels, cancelled in the 3rd; latency not morsel-bounded", workers, got)
				}
			}
		})
	}
}

func TestForSingleWorkerSequential(t *testing.T) {
	var order []int
	P{Workers: 1, Chunk: 3}.For(10, func(lo, hi int) {
		order = append(order, lo)
	})
	if want := []int{0, 3, 6, 9}; !slices.Equal(order, want) {
		t.Fatalf("chunk starts = %v, want %v", order, want)
	}
}

// A worker's scratch is rewound before every morsel: a buffer carved in
// one morsel reuses the storage of the previous morsel's carve.
func TestForScratchResetsBetweenMorsels(t *testing.T) {
	var bases []*int
	err := P{Workers: 1, Chunk: 8}.ForScratch(80, func(s *mem.Scratch, lo, hi int) {
		bases = append(bases, &s.Ints(64)[0])
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bases) != 10 {
		t.Fatalf("ran %d morsels, want 10", len(bases))
	}
	for i, b := range bases {
		if b != bases[0] {
			t.Fatalf("morsel %d carved at a fresh offset: scratch was not reset", i)
		}
	}
}

// The serial branch runs the claim loop over stack state: no per-call
// allocation beyond what the kernel body itself does.
func TestParallelLoopSerialZeroAlloc(t *testing.T) {
	var sum int
	body := func(lo, hi int) { sum += hi - lo }
	sbody := func(_ *mem.Scratch, lo, hi int) { sum += hi - lo }
	p := P{Workers: 1, Chunk: 64}
	if n := testing.AllocsPerRun(50, func() {
		p.For(1000, body)
		p.ForScratch(1000, sbody)
	}); n != 0 {
		if mem.RaceEnabled {
			t.Skipf("%.2f allocs/op under -race (sync.Pool drops Puts); strict guard runs in normal builds", n)
		}
		t.Fatalf("serial morsel loop allocates %.2f/op, want 0", n)
	}
}

func TestPermuteIntoIsPermutation(t *testing.T) {
	f := func(raw uint16) bool {
		n := int(raw%2000) + 1
		seen := make([]bool, n)
		for _, v := range PermuteInto(make([]int, n)) {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPermuteIntoNotIdentityForLargeN(t *testing.T) {
	for _, n := range []int{3, 4, 10, 100, 1024} {
		if p := PermuteInto(make([]int, n)); sort.IntsAreSorted(p) {
			t.Errorf("PermuteInto(%d) is the identity", n)
		}
	}
}

func TestParallelPBlocksPartitionExactly(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 1000, 4097} {
		for _, w := range []int{1, 2, 3, 8, 50} {
			p := P{Workers: w}
			blocks := p.Blocks(n)
			if n == 0 {
				if len(blocks) != 0 {
					t.Fatalf("Blocks(0) = %v", blocks)
				}
				continue
			}
			if len(blocks) > w {
				t.Fatalf("n=%d w=%d: %d blocks exceed worker count", n, w, len(blocks))
			}
			at := 0
			for _, b := range blocks {
				if b.Lo != at || b.Hi <= b.Lo {
					t.Fatalf("n=%d w=%d: bad block %+v at %d", n, w, b, at)
				}
				at = b.Hi
			}
			if at != n {
				t.Fatalf("n=%d w=%d: blocks cover %d rows", n, w, at)
			}
		}
	}
}

func TestParallelGatherOrderedStableAcrossWorkers(t *testing.T) {
	n := 10_000
	run := func(workers, chunk int) []int {
		return GatherOrdered(P{Workers: workers, Chunk: chunk}, n, func(lo, hi int) []int {
			out := make([]int, 0, hi-lo)
			for i := lo; i < hi; i++ {
				if i%3 == 0 {
					out = append(out, i)
				}
			}
			return out
		})
	}
	want := run(1, 64)
	for _, workers := range []int{2, 4, 9} {
		for _, chunk := range []int{1, 63, 1024} {
			got := run(workers, chunk)
			if len(got) != len(want) {
				t.Fatalf("w=%d c=%d: len %d != %d", workers, chunk, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("w=%d c=%d: [%d] = %d, want %d", workers, chunk, i, got[i], want[i])
				}
			}
		}
	}
}

func TestParallelRunBlocksSequentialWithinBlock(t *testing.T) {
	n := 1000
	p := P{Workers: 4, Chunk: 16}
	blocks := p.Blocks(n)
	last := make([]int, len(blocks))
	for i := range last {
		last[i] = -1
	}
	if err := RunBlocks(p, n, func(b, lo, hi int) {
		if lo <= last[b] {
			t.Errorf("block %d ranges out of order: %d after %d", b, lo, last[b])
		}
		last[b] = lo
	}); err != nil {
		t.Fatal(err)
	}
	for b, blk := range blocks {
		if last[b] < 0 || last[b] >= blk.Hi {
			t.Fatalf("block %d never finished (last lo %d)", b, last[b])
		}
	}
}
