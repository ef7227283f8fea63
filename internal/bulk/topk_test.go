package bulk

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/par"
)

// TestTopKParMatchesSort checks the heap selection against a full sort
// with the same total order, across worker counts and morsel sizes —
// including duplicate keys, where the index tie-break decides.
func TestTopKParMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(5000)
		k := 1 + rng.Intn(n+10) // may exceed n: full-sort fallback
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(50)) // heavy ties
		}
		less := func(i, j int) bool { return vals[i] < vals[j] }
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		sort.Slice(want, func(a, b int) bool {
			if vals[want[a]] != vals[want[b]] {
				return vals[want[a]] < vals[want[b]]
			}
			return want[a] < want[b]
		})
		if k < n {
			want = want[:k]
		}
		for _, workers := range []int{1, 3, 8} {
			for _, chunk := range []int{0, 64, 777} {
				p := par.P{Threads: 1, Workers: workers, Chunk: chunk}
				got := TopK(p, n, k, less)
				if len(got) != len(want) {
					t.Fatalf("trial %d workers=%d chunk=%d: got %d indices, want %d", trial, workers, chunk, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d workers=%d chunk=%d: index %d = %d, want %d", trial, workers, chunk, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestTopKParEdgeCases covers empty input, k=0 and single elements.
func TestTopKParEdgeCases(t *testing.T) {
	less := func(i, j int) bool { return i < j }
	if got := TopK(par.P{}, 0, 5, less); got != nil {
		t.Errorf("n=0 returned %v", got)
	}
	if got := TopK(par.P{}, 5, 0, less); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
	if got := TopK(par.P{}, 1, 1, less); len(got) != 1 || got[0] != 0 {
		t.Errorf("n=1 returned %v", got)
	}
}

// BenchmarkTopK records the heap top-k kernel against the full-sort
// baseline it replaces: CI logs the two so the ratio (sort/heap) stays
// visible. The heap pass is O(n log k); the full sort O(n log n).
func BenchmarkTopK(b *testing.B) {
	const n, k = 1 << 20, 10
	vals := make([]int64, n)
	rng := rand.New(rand.NewSource(42))
	for i := range vals {
		vals[i] = rng.Int63()
	}
	less := func(i, j int) bool { return vals[i] < vals[j] }
	b.Run("heap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			TopK(par.P{Threads: 1, Workers: 1}, n, k, less)
		}
	})
	b.Run("fullsort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			idx := make([]int, n)
			for j := range idx {
				idx[j] = j
			}
			sort.Slice(idx, func(a, c int) bool {
				if vals[idx[a]] != vals[idx[c]] {
					return vals[idx[a]] < vals[idx[c]]
				}
				return idx[a] < idx[c]
			})
			_ = idx[:k]
		}
	})
}
