package shard

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/device"
	"repro/internal/store"
)

func TestSpecValidate(t *testing.T) {
	if err := (Spec{Kind: Hash, Col: "id", N: 4}).Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for _, bad := range []Spec{
		{Kind: Hash, Col: "", N: 4},
		{Kind: Hash, Col: "id", N: 0},
		{Kind: Hash, Col: "id", N: MaxPartitions + 1},
		{Kind: Kind(9), Col: "id", N: 4},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("spec %+v unexpectedly valid", bad)
		}
	}
}

func TestRouteBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, kind := range []Kind{Hash, Range} {
		for _, n := range []int{1, 2, 7, 64} {
			s := Spec{Kind: kind, Col: "v", N: n}
			for i := 0; i < 2000; i++ {
				v := rng.Int63() - rng.Int63()
				p := s.Route(v)
				if p < 0 || p >= n {
					t.Fatalf("%s n=%d: Route(%d) = %d out of range", kind, n, v, p)
				}
				if p != s.Route(v) {
					t.Fatalf("%s n=%d: Route(%d) not deterministic", kind, n, v)
				}
			}
		}
	}
}

func TestRangeRouteOrderPreserving(t *testing.T) {
	s := Spec{Kind: Range, Col: "v", N: 7}
	rng := rand.New(rand.NewSource(9))
	prev := int64(-1 << 62)
	prevPart := s.Route(prev)
	for i := 0; i < 5000; i++ {
		v := prev + rng.Int63n(1<<50)
		p := s.Route(v)
		if p < prevPart {
			t.Fatalf("range routing not monotonic: Route(%d)=%d after Route(%d)=%d", v, p, prev, prevPart)
		}
		prev, prevPart = v, p
	}
	// The full domain must cover every stripe.
	seen := make(map[int]bool)
	for i := 0; i < s.N; i++ {
		step := int64(1) << 61
		seen[s.Route(int64(-4+i)*step)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("range routing collapsed onto %d stripes", len(seen))
	}
}

func TestHashRouteSpread(t *testing.T) {
	s := Spec{Kind: Hash, Col: "v", N: 7}
	counts := make([]int, s.N)
	for v := int64(0); v < 7000; v++ {
		counts[s.Route(v)]++
	}
	for i, c := range counts {
		if c < 500 || c > 1500 {
			t.Fatalf("hash spread skewed: partition %d holds %d of 7000", i, c)
		}
	}
}

func newPartTable(t *testing.T, name string) *store.Table {
	t.Helper()
	defs := []store.ColumnDef{{Name: "id", Scale: 1, Width: bat.Width32}, {Name: "v", Scale: 1, Width: bat.Width32}}
	tab, err := store.New(name, defs, nil, device.PaperSystem())
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	return tab
}

func TestPartitionedSplit(t *testing.T) {
	spec := Spec{Kind: Hash, Col: "id", N: 3}
	parts := make([]*store.Table, spec.N)
	for i := range parts {
		parts[i] = newPartTable(t, PartName("trips", i))
	}
	p, err := NewPartitioned("trips", spec, parts)
	if err != nil {
		t.Fatalf("NewPartitioned: %v", err)
	}
	var rows [][]int64
	for i := int64(0); i < 100; i++ {
		rows = append(rows, []int64{i, i * 3})
	}
	split := p.Split(rows)
	total := 0
	for idx, group := range split {
		total += len(group)
		for _, row := range group {
			if got := p.Route(row); got != idx {
				t.Fatalf("row %v split into %d but routes to %d", row, idx, got)
			}
		}
		// Order within a partition preserves input order.
		for j := 1; j < len(group); j++ {
			if group[j][0] <= group[j-1][0] {
				t.Fatalf("partition %d reordered rows: %v after %v", idx, group[j], group[j-1])
			}
		}
	}
	if total != len(rows) {
		t.Fatalf("split dropped rows: %d of %d", total, len(rows))
	}

	if _, err := NewPartitioned("trips", Spec{Kind: Hash, Col: "missing", N: 3}, parts); err == nil {
		t.Fatalf("NewPartitioned accepted a partition column outside the schema")
	}
}

// TestRangeSlabPruneInverse proves Slab is the exact inverse of Range
// routing: a value routes to partition i if and only if it lies inside
// Slab(i). Partition pruning relies on this equivalence to skip slabs
// without ever dropping a routed row.
func TestRangeSlabPruneInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 2, 3, 6, 7, 64, MaxPartitions} {
		spec := Spec{Kind: Range, Col: "v", N: n}
		// Slabs tile the whole signed domain in order, without gaps.
		prev := int64(math.MinInt64) // expected lo of the next slab
		for i := 0; i < n; i++ {
			lo, hi, ok := spec.Slab(i)
			if !ok {
				t.Fatalf("n=%d: Slab(%d) not ok", n, i)
			}
			if lo != prev {
				t.Fatalf("n=%d: Slab(%d) starts at %d, want %d (gap or overlap)", n, i, lo, prev)
			}
			if hi < lo {
				t.Fatalf("n=%d: Slab(%d) = [%d, %d] inverted", n, i, lo, hi)
			}
			// Slab endpoints route back to their own partition.
			for _, v := range []int64{lo, hi} {
				if got := spec.Route(v); got != i {
					t.Fatalf("n=%d: Route(%d) = %d, want %d (Slab(%d) endpoint)", n, v, got, i, i)
				}
			}
			if hi < math.MaxInt64 {
				prev = hi + 1
			}
		}
		if _, _, last := spec.Slab(n - 1); !last {
			t.Fatalf("n=%d: last slab missing", n)
		}
		if lo, hi, _ := spec.Slab(n - 1); lo > math.MaxInt64 || hi != math.MaxInt64 {
			t.Fatalf("n=%d: last slab [%d, %d] does not end the domain", n, lo, hi)
		}
		// Random values: routed partition's slab contains the value.
		for k := 0; k < 2000; k++ {
			v := int64(rng.Uint64())
			i := spec.Route(v)
			lo, hi, ok := spec.Slab(i)
			if !ok || v < lo || v > hi {
				t.Fatalf("n=%d: Route(%d) = %d but Slab = [%d, %d] ok=%v", n, v, i, lo, hi, ok)
			}
		}
	}
	// Hash specs and out-of-range indices never produce slabs.
	h := Spec{Kind: Hash, Col: "v", N: 4}
	if _, _, ok := h.Slab(0); ok {
		t.Fatal("hash spec produced a slab")
	}
	r := Spec{Kind: Range, Col: "v", N: 4}
	for _, i := range []int{-1, 4} {
		if _, _, ok := r.Slab(i); ok {
			t.Fatalf("Slab(%d) ok for a 4-way spec", i)
		}
	}
}
