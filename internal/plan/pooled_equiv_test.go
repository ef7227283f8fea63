package plan

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bwd/bwdtest"
	"repro/internal/mem"
)

// TestPooledUnpooledEquivalence is the arena-aliasing property test: with
// the morsel arena on and off, across worker counts and morsel sizes,
// every query must return byte-identical rows and a bit-identical
// simulated meter, through a random interleaving of inserts, deletes and
// merges. A kernel that releases a buffer something still references, or
// reads a recycled buffer's stale contents, diverges here.
func TestPooledUnpooledEquivalence(t *testing.T) {
	defer mem.SetPooling(mem.SetPooling(true))
	for seed := int64(1); seed <= 2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c := propCatalog(t, 4000, seed)
			rng := rand.New(rand.NewSource(seed * 31))
			opts := []ExecOpts{
				{Threads: 4},
				{Threads: 4, Workers: 4},
				{Threads: 4, Workers: 2, Morsel: 512},
			}
			for step := 0; step < 10; step++ {
				switch op := rng.Intn(10); {
				case op < 5:
					rows := make([][]int64, 1+rng.Intn(40))
					for i := range rows {
						rows[i] = []int64{int64(rng.Intn(4096)), int64(rng.Intn(4096)), int64(rng.Intn(5))}
					}
					if _, err := c.InsertRows(nil, "fact", rows); err != nil {
						t.Fatal(err)
					}
				case op < 8:
					lo := int64(rng.Intn(4096))
					if _, err := c.DeleteRows(nil, "fact", []Filter{{Col: "v", Lo: lo, Hi: lo + int64(rng.Intn(256))}}); err != nil {
						t.Fatal(err)
					}
				default:
					if _, err := c.MergeTable(nil, "fact", false); err != nil {
						t.Fatal(err)
					}
				}
				// Whatever the step did to the base — nothing, or a merge that
				// re-decomposed it — the scans below skip granules on these.
				for _, col := range []string{"v", "w", "g"} {
					d, err := c.Decomposition("fact", col)
					if err != nil {
						t.Fatal(err)
					}
					bwdtest.CheckGranules(t, fmt.Sprintf("step %d fact.%s", step, col), d)
				}
				for qi, q := range propQueries(rng) {
					var want *Result
					var wantLabel string
					for _, pooled := range []bool{true, false} {
						for oi, opt := range opts {
							mem.SetPooling(pooled)
							ar, err := c.ExecAR(context.Background(), q, opt)
							mem.SetPooling(true)
							if err != nil {
								t.Fatalf("step %d query %d pooled=%v opts=%d: %v", step, qi, pooled, oi, err)
							}
							label := fmt.Sprintf("pooled=%v opts=%d", pooled, oi)
							if want == nil {
								want, wantLabel = ar, label
								continue
							}
							if !EqualResults(ar.Rows, want.Rows) {
								t.Fatalf("step %d query %d: rows diverge between %s (%v) and %s (%v)",
									step, qi, wantLabel, want.Rows, label, ar.Rows)
							}
							if ar.Meter.GPU != want.Meter.GPU || ar.Meter.CPU != want.Meter.CPU || ar.Meter.PCI != want.Meter.PCI {
								t.Fatalf("step %d query %d: meter diverges between %s (%v) and %s (%v)",
									step, qi, wantLabel, want.Meter, label, ar.Meter)
							}
							if ar.Candidates != want.Candidates || ar.Refined != want.Refined {
								t.Fatalf("step %d query %d: candidate counts diverge between %s and %s",
									step, qi, wantLabel, label)
							}
						}
					}
					// The classic executor shares the arena-backed bulk
					// kernels; it must agree with A&R in both modes.
					for _, pooled := range []bool{true, false} {
						mem.SetPooling(pooled)
						cl, err := c.ExecClassic(context.Background(), q, ExecOpts{Threads: 4})
						mem.SetPooling(true)
						if err != nil {
							t.Fatalf("step %d query %d classic pooled=%v: %v", step, qi, pooled, err)
						}
						if !EqualResults(cl.Rows, want.Rows) {
							t.Fatalf("step %d query %d: classic pooled=%v rows %v != A&R %v",
								step, qi, pooled, cl.Rows, want.Rows)
						}
					}
				}
			}
		})
	}
}
