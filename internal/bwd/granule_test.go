package bwd_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bat"
	"repro/internal/bwd"
	"repro/internal/bwd/bwdtest"
)

// Both constructors derive the granule bounds and splits — and the bucket
// histogram — in one shared pass, so a column rebuilt from its persisted planes must
// summarise exactly like the one Decompose produced, at row counts on and
// around granule and summary-block boundaries and with or without
// residual bits.
func TestGranuleBoundsDecomposeAndRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 63, 64, 65, 1000, 64<<10 - 1, 64 << 10, 64<<10 + 1, 150_000} {
		for _, bits := range []uint{3, 11, 40} {
			vals := make([]int64, n)
			at := rng.Int63n(1 << 20)
			for i := range vals {
				if i%90 == 0 {
					at = rng.Int63n(1 << 20) // clustered runs: narrow granules
				}
				at += rng.Int63n(5) - 2
				vals[i] = at - 1<<19
			}
			col, err := bwd.Decompose(bat.NewDense(vals, bat.Width32), bits, nil)
			if err != nil {
				t.Fatal(err)
			}
			bwdtest.CheckGranules(t, "decompose", col)

			back, err := bwd.Restore(col.Dec, col.Approx.Clone(), col.Residual.Clone(), nil)
			if err != nil {
				t.Fatal(err)
			}
			bwdtest.CheckGranules(t, "restore", back)
			if !slices.Equal(back.Granules(), col.Granules()) || !slices.Equal(back.Splits(), col.Splits()) {
				t.Fatalf("n=%d bits=%d: restored granule bounds or splits differ from the decomposed column's", n, bits)
			}
			if !slices.Equal(back.BucketCounts(), col.BucketCounts()) || back.BucketShift() != col.BucketShift() ||
				back.BucketRows() != int64(n) || col.BucketRows() != int64(n) {
				t.Fatalf("n=%d bits=%d: restored histogram differs from the decomposed column's", n, bits)
			}
		}
	}
}
