package plan

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/device"
	"repro/internal/shard"
	"repro/internal/store"
)

// partFactDefs is the shared fact schema of the partition property tests.
func partFactDefs() []store.ColumnDef {
	return []store.ColumnDef{
		{Name: "v", Scale: 1, Width: bat.Width32},
		{Name: "w", Scale: 1, Width: bat.Width32},
		{Name: "g", Scale: 1, Width: bat.Width32},
	}
}

// partPropRow generates one fact row (v, w, g) for the partition tests.
func partPropRow(rng *rand.Rand) []int64 {
	return []int64{int64(rng.Intn(4096)), int64(rng.Intn(4096)), int64(rng.Intn(5))}
}

// partPropCatalog builds one catalog holding "fact" with the given
// partition count (0 = plain, unpartitioned), loaded with rows and fully
// decomposed. Every catalog built from the same rows holds the same
// logical table, so executors over different partition counts must agree.
func partPropCatalog(t testing.TB, parts int, kind shard.Kind, rows [][]int64) *Catalog {
	t.Helper()
	c := NewCatalog(device.PaperSystem())
	if parts == 0 {
		if _, err := c.CreateTable("fact", partFactDefs()); err != nil {
			t.Fatal(err)
		}
	} else {
		spec := shard.Spec{Kind: kind, Col: "v", N: parts}
		if _, err := c.CreatePartitionedTable("fact", partFactDefs(), spec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.InsertRows(nil, "fact", rows); err != nil {
		t.Fatal(err)
	}
	for col, bits := range map[string]uint{"v": 8, "w": 6, "g": 3} {
		if _, err := c.Decompose("fact", col, bits); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestPropPartitionEquivalence is the scatter-gather property test: the
// same logical table partitioned 1, 2 and 7 ways (hash and range) must
// return rows byte-identical to the unpartitioned table in both executor
// modes, after every step of a random interleaving of inserts, deletes and
// merges — and each partition count must stay byte-stable with a
// bit-identical meter across a worker-count/morsel sweep (partition counts
// differ in per-kernel launch costs, so meters are only compared within a
// fixed count). The 1-partition variants are more than row-equivalent: a
// one-leg scatter runs the very code a plain table does, so its meter,
// candidate counts and phase-A answer must equal the plain table's bit for
// bit, in both modes. Run with -race: the partition scans run concurrently.
func TestPropPartitionEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed * 13))
			base := make([][]int64, 3000)
			for i := range base {
				base[i] = partPropRow(rng)
			}
			type variant struct {
				label string
				parts int
				cat   *Catalog
			}
			variants := []variant{{"plain", 0, partPropCatalog(t, 0, shard.Hash, base)}}
			for _, v := range []struct {
				kind shard.Kind
				n    int
			}{{shard.Hash, 1}, {shard.Range, 1}, {shard.Range, 2}, {shard.Hash, 7}} {
				variants = append(variants, variant{
					fmt.Sprintf("%s%d", v.kind, v.n), v.n,
					partPropCatalog(t, v.n, v.kind, base),
				})
			}
			for step := 0; step < 8; step++ {
				// One random DML op, applied to every variant identically.
				switch op := rng.Intn(10); {
				case op < 5: // insert a batch
					rows := make([][]int64, 1+rng.Intn(40))
					for i := range rows {
						rows[i] = partPropRow(rng)
					}
					for _, v := range variants {
						if _, err := v.cat.InsertRows(nil, "fact", rows); err != nil {
							t.Fatalf("step %d %s insert: %v", step, v.label, err)
						}
					}
				case op < 8: // delete a range
					lo := int64(rng.Intn(4096))
					f := Filter{Col: "v", Lo: lo, Hi: lo + int64(rng.Intn(256))}
					var want int64
					for i, v := range variants {
						n, err := v.cat.DeleteRows(nil, "fact", []Filter{f})
						if err != nil {
							t.Fatalf("step %d %s delete: %v", step, v.label, err)
						}
						if i == 0 {
							want = n
						} else if n != want {
							t.Fatalf("step %d %s: deleted %d rows, plain deleted %d", step, v.label, n, want)
						}
					}
				default: // merge every partition
					for _, v := range variants {
						if _, err := v.cat.MergeTable(nil, "fact", false); err != nil {
							t.Fatalf("step %d %s merge: %v", step, v.label, err)
						}
					}
				}
				for qi, q := range propQueries(rng) {
					serial := ExecOpts{Threads: 1, Workers: 1}
					refAR, err := variants[0].cat.ExecAR(context.Background(), q, serial)
					if err != nil {
						t.Fatalf("step %d query %d plain AR: %v", step, qi, err)
					}
					refCl, err := variants[0].cat.ExecClassic(context.Background(), q, serial)
					if err != nil {
						t.Fatalf("step %d query %d plain classic: %v", step, qi, err)
					}
					if !EqualResults(refAR.Rows, refCl.Rows) {
						t.Fatalf("step %d query %d: plain A&R %v != classic %v", step, qi, refAR.Rows, refCl.Rows)
					}
					for _, v := range variants[1:] {
						ar, err := v.cat.ExecAR(context.Background(), q, serial)
						if err != nil {
							t.Fatalf("step %d query %d %s AR: %v", step, qi, v.label, err)
						}
						cl, err := v.cat.ExecClassic(context.Background(), q, serial)
						if err != nil {
							t.Fatalf("step %d query %d %s classic: %v", step, qi, v.label, err)
						}
						if !EqualResults(ar.Rows, refAR.Rows) {
							t.Fatalf("step %d query %d %s: partitioned A&R %v != plain %v", step, qi, v.label, ar.Rows, refAR.Rows)
						}
						if !EqualResults(cl.Rows, refCl.Rows) {
							t.Fatalf("step %d query %d %s: partitioned classic %v != plain %v", step, qi, v.label, cl.Rows, refCl.Rows)
						}
						if v.parts == 1 {
							for _, pair := range []struct {
								mode      string
								got, want *Result
							}{{"A&R", ar, refAR}, {"classic", cl, refCl}} {
								// Each catalog has its own device.System, so compare the
								// charged times, not the meter structs.
								got, want := pair.got, pair.want
								gm, wm := got.Meter, want.Meter
								if gm.GPU != wm.GPU || gm.CPU != wm.CPU || gm.PCI != wm.PCI ||
									got.Candidates != want.Candidates || got.Refined != want.Refined ||
									!reflect.DeepEqual(got.Approx, want.Approx) {
									t.Fatalf("step %d query %d %s %s: one-leg scatter is not the plain execution:\nmeter %v vs %v\ncandidates %d/%d vs %d/%d\napprox %v vs %v",
										step, qi, v.label, pair.mode, got.Meter, want.Meter,
										got.Candidates, got.Refined, want.Candidates, want.Refined, got.Approx, want.Approx)
								}
							}
						}
						// The combined phase-A answer must still bound the exact count.
						exact := int64(ar.Refined)
						if ar.Approx.Count.Lo > exact || ar.Approx.Count.Hi < exact {
							t.Fatalf("step %d query %d %s: approx count %v excludes exact %d",
								step, qi, v.label, ar.Approx.Count, exact)
						}
						// Worker/morsel sweep at this fixed partition count:
						// byte-stable rows, bit-identical meter.
						opts := ExecOpts{Threads: 1, Workers: 2 + rng.Intn(6), Morsel: []int{64, 512, 0}[rng.Intn(3)]}
						arp, err := v.cat.ExecAR(context.Background(), q, opts)
						if err != nil {
							t.Fatalf("step %d query %d %s AR %+v: %v", step, qi, v.label, opts, err)
						}
						if !EqualResults(arp.Rows, ar.Rows) {
							t.Fatalf("step %d query %d %s %+v: parallel A&R %v != serial %v", step, qi, v.label, opts, arp.Rows, ar.Rows)
						}
						if *arp.Meter != *ar.Meter {
							t.Fatalf("step %d query %d %s %+v: A&R meter %v != serial %v (worker budget leaked into the cost model)",
								step, qi, v.label, opts, arp.Meter, ar.Meter)
						}
						clp, err := v.cat.ExecClassic(context.Background(), q, opts)
						if err != nil {
							t.Fatalf("step %d query %d %s classic %+v: %v", step, qi, v.label, opts, err)
						}
						if !EqualResults(clp.Rows, cl.Rows) {
							t.Fatalf("step %d query %d %s %+v: parallel classic %v != serial %v", step, qi, v.label, opts, clp.Rows, cl.Rows)
						}
						if *clp.Meter != *cl.Meter {
							t.Fatalf("step %d query %d %s %+v: classic meter %v != serial %v (worker budget leaked into the cost model)",
								step, qi, v.label, opts, clp.Meter, cl.Meter)
						}
					}
				}
			}
		})
	}
}

// TestPartitionedCatalogSurface covers the partition-aware catalog edges
// that the property test does not reach: wrapper names are rejected where a
// plain table is required, dimension-side use is refused, and \explain's
// scatter listing reports the fan-out.
func TestPartitionedCatalogSurface(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := make([][]int64, 500)
	for i := range rows {
		rows[i] = partPropRow(rng)
	}
	c := partPropCatalog(t, 3, shard.Hash, rows)

	// The wrapper is not a plain table.
	if _, err := c.Table("fact"); err == nil {
		t.Fatal("Table(wrapper) did not error")
	}
	// Partitioned tables cannot serve as dimensions: there is no dense PK
	// across partitions to index.
	if err := c.BuildFKIndex("fact", "v"); err == nil {
		t.Fatal("BuildFKIndex over a partitioned table accepted")
	}
	q := Query{
		Table:   "fact",
		Filters: []Filter{{Col: "v", Lo: 0, Hi: 2000}},
		GroupBy: []string{"g"},
		Aggs:    []AggSpec{{Name: "n", Func: Count}},
	}
	lines, err := explainQuery(c, q, ModeAR)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("empty explain")
	}
	if want := "scatter: fact over 3 partitions (partition by hash(v) partitions 3)"; lines[0] != want {
		t.Fatalf("explain header %q, want %q", lines[0], want)
	}
	seen := 0
	for _, l := range lines {
		if strings.HasPrefix(l, "  partition ") {
			seen++
		}
	}
	if seen != 3 {
		t.Fatalf("explain lists %d partition lines, want 3:\n%v", seen, lines)
	}
}
