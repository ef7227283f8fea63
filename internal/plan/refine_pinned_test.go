package plan_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/device"
	"repro/internal/plan"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/tpch"
)

// refineBill is what one statement whose refinement drops candidates cost on
// the simulated devices, with its candidate and refined counts.
type refineBill struct {
	gpu, cpu, pci       int64
	candidates, refined int
}

// TestRefineBillsWhatTheListPathBilled pins the simulated meter and the
// candidate counts of statements on the general A&R path — every one of them
// refines candidates away — to the figures recorded at 0c5a20b, where phase R
// compacted each refined subset into an id list and translucent-joined it
// back into the phase-A lists: TPC-H Q1 under the paper's space constraint
// (pre-grouped on the device), a group key with residual bits (regrouped), a
// disjunction with a residual member, a dimension filter and projection with
// residual bits read through the join's key, and a 3-partition table with
// delta rows. The devices are billed for the execution model, not for the
// host's passes (DESIGN.md §7), at every worker count and morsel size.
func TestRefineBillsWhatTheListPathBilled(t *testing.T) {
	c := plan.NewCatalog(device.PaperSystem())
	d := tpch.Generate(0.01, 1)
	if err := d.Load(c); err != nil {
		t.Fatal(err)
	}
	if err := d.DecomposeAll(c, true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decompose("part", "p_type", 4); err != nil {
		t.Fatal(err)
	}
	defs := []store.ColumnDef{{Name: "v", Scale: 1, Width: bat.Width32}, {Name: "w", Scale: 1, Width: bat.Width32}, {Name: "g", Scale: 1, Width: bat.Width32}}
	if _, err := c.CreatePartitionedTable("ev", defs, shard.Spec{Kind: shard.Hash, Col: "v", N: 3}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(28))
	rows := func(n int) [][]int64 {
		out := make([][]int64, n)
		for i := range out {
			out[i] = []int64{int64(rng.Intn(1 << 16)), int64(rng.Intn(4096)), int64(rng.Intn(6))}
		}
		return out
	}
	if _, err := c.InsertRows(nil, "ev", rows(30_000)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MergeTable(nil, "ev", false); err != nil {
		t.Fatal(err)
	}
	for col, bits := range map[string]uint{"v": 9, "w": 6, "g": 32} {
		if _, err := c.Decompose("ev", col, bits); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.InsertRows(nil, "ev", rows(500)); err != nil {
		t.Fatal(err)
	}

	q1Quarter := plan.Filter{Col: "l_shipdate", Lo: tpch.Day(1995, 1, 1), Hi: tpch.Day(1995, 3, 31)}
	for _, tc := range []struct {
		name string
		q    plan.Query
		want refineBill
	}{
		{"Q1, space constrained", tpch.Q1(90), refineBill{1573000, 4747673, 291278, 60000, 57881}},
		{"group key with residual bits", plan.Query{
			Table:   "lineitem",
			Filters: []plan.Filter{q1Quarter},
			GroupBy: []string{"l_shipdate"},
			Aggs: []plan.AggSpec{
				{Name: "n", Func: plan.Count},
				{Name: "qty", Func: plan.Sum, Expr: plan.Col("l_quantity")},
			},
		}, refineBill{611209, 177255, 59251, 6085, 2101}},
		{"disjunction with a residual member", plan.Query{
			Table:   "lineitem",
			Filters: []plan.Filter{{Col: "l_quantity", Lo: 10, Hi: 40}},
			Or:      [][]plan.Filter{{{Col: "l_shipdate", Lo: plan.NoLo, Hi: tpch.Day(1993, 6, 30)}, {Col: "l_discount", Lo: 9, Hi: plan.NoHi}}},
			Aggs: []plan.AggSpec{
				{Name: "n", Func: plan.Count},
				{Name: "rev", Func: plan.Sum, Expr: plan.MulScaled(plan.Col("l_extendedprice"), plan.Col("l_discount"), 100)},
			},
		}, refineBill{204734, 582170, 78616, 16598, 14016}},
		{"dimension filter and projection through a key", plan.Query{
			Table:   "lineitem",
			Filters: []plan.Filter{q1Quarter},
			Joins:   []plan.JoinSpec{{FKCol: "l_partkey", Dim: "part", DimPK: "p_partkey", DimFilters: []plan.Filter{{Col: "p_type", Lo: 40, Hi: 99}}}},
			GroupBy: []string{"l_returnflag"},
			Aggs: []plan.AggSpec{
				{Name: "n", Func: plan.Count},
				{Name: "kind", Func: plan.Max, Expr: plan.DimCol("part", "p_type")},
				{Name: "mix", Func: plan.Sum, Expr: plan.Add(plan.DimCol("part", "p_type"), plan.Col("l_quantity"))},
			},
		}, refineBill{352439, 124841, 86784, 3265, 871}},
		{"3 partitions with delta rows", plan.Query{
			Table:   "ev",
			Filters: []plan.Filter{{Col: "v", Lo: 1000, Hi: 40_000}},
			GroupBy: []string{"g"},
			Aggs: []plan.AggSpec{
				{Name: "n", Func: plan.Count},
				{Name: "s", Func: plan.Sum, Expr: plan.Col("w")},
				{Name: "lo", Func: plan.Min, Expr: plan.Col("v")},
			},
		}, refineBill{473833, 1313563, 213244, 18113, 18037}},
	} {
		for _, opts := range []plan.ExecOpts{{}, {Threads: 1, Workers: 4, Morsel: 1000}} {
			res, err := c.ExecAR(context.Background(), tc.q, opts)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if res.Refined >= res.Candidates {
				t.Fatalf("%s: %d candidates refine to %d: nothing was refined away", tc.name, res.Candidates, res.Refined)
			}
			got := refineBill{int64(res.Meter.GPU), int64(res.Meter.CPU), int64(res.Meter.PCI), res.Candidates, res.Refined}
			if got != tc.want {
				t.Errorf("%s (workers %d): billed %#v, the list path billed %#v", tc.name, opts.Workers, got, tc.want)
			}
		}
	}
}
