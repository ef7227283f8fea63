package plan_test

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bat"
	"repro/internal/device"
	"repro/internal/plan"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/tpch"
)

// TestApproxAnswerPinned holds the phase-A answers of statements on the
// general A&R path — each one leaves candidates whose filtered code lies in a
// boundary bucket — to the literals recorded at a6288db: TPC-H Q1 under the
// paper's space constraint; sum, min, max and avg over negative values under
// a residual filter; a range inside one bucket, which leaves no candidate
// certain; a disjunction of a resident and a residual member; a residual
// dimension filter read through the join's key; and a 4-partition table with
// delta rows, whose legs' answers combineAnswers adds up. The answers do not
// depend on the worker count or the morsel size.
func TestApproxAnswerPinned(t *testing.T) {
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
	rng := rand.New(rand.NewSource(30))
	defs := []store.ColumnDef{{Name: "k", Scale: 1, Width: bat.Width32}, {Name: "x", Scale: 1, Width: bat.Width32}, {Name: "r", Scale: 1, Width: bat.Width32}}
	signed := func(n int) [][]int64 {
		out := make([][]int64, n)
		for i := range out {
			out[i] = []int64{int64(rng.Intn(1 << 14)), int64(rng.Intn(10_001)) - 7_000, int64(rng.Intn(16))}
		}
		return out
	}
	if _, err := c.CreateTable("sg", defs); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreatePartitionedTable("ev", defs, shard.Spec{Kind: shard.Hash, Col: "k", N: 4}); err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"sg", "ev"} {
		if _, err := c.InsertRows(nil, table, signed(40_000)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.MergeTable(nil, table, false); err != nil {
			t.Fatal(err)
		}
		for col, bits := range map[string]uint{"k": 10, "x": 8, "r": 32} {
			if _, err := c.Decompose(table, col, bits); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := c.InsertRows(nil, "ev", signed(700)); err != nil {
		t.Fatal(err)
	}

	x := plan.Col("x")
	extremes := []plan.AggSpec{
		{Name: "n", Func: plan.Count},
		{Name: "s", Func: plan.Sum, Expr: x},
		{Name: "lo", Func: plan.Min, Expr: x},
		{Name: "hi", Func: plan.Max, Expr: x},
		{Name: "avg", Func: plan.Avg, Expr: x},
	}
	for _, tc := range []struct {
		name string
		q    plan.Query
		want [][2]int64 // the count's bounds, then every aggregate's
	}{
		{"Q1, space constrained", tpch.Q1(90), [][2]int64{{48473, 60000}, {1_231_276, 1_527_497}, {172_323_091_250, 213_796_080_631}, {162_824_997_839, 202_023_400_324}, {169_317_189_938, 210_077_036_935}, {20, 31}, {2_872_051, 4_410_622}, {4, 6}, {48473, 60000}}},
		{"negative values, residual filter", plan.Query{
			Table:   "sg",
			Filters: []plan.Filter{{Col: "k", Lo: 1000, Hi: 9000}},
			Aggs:    extremes,
		}, [][2]int64{{19457, 19535}, {19457, 19535}, {-39_762_856, -38_304_433}, {-7000, -6937}, {2984, 3047}, {-2043, -1960}}},
		{"one bucket", plan.Query{
			Table:   "sg",
			Filters: []plan.Filter{{Col: "k", Lo: 4099, Hi: 4101}},
			Aggs:    extremes,
		}, [][2]int64{{0, 29}, {0, 29}, {-78224, 15697}, {-6872, math.MaxInt64}, {math.MinInt64, 2855}, {-78224, 15697}}},
		{"disjunction, resident and residual member", plan.Query{
			Table: "sg",
			Or:    [][]plan.Filter{{{Col: "k", Lo: plan.NoLo, Hi: 2000}, {Col: "r", Lo: 3, Hi: 5}}},
			Aggs:  extremes,
		}, [][2]int64{{11281, 11334}, {11281, 11334}, {-22_993_072, -22_137_941}, {-7000, -6937}, {2984, 3047}, {-2038, -1953}}},
		{"dimension filter through a key", plan.Query{
			Table:   "lineitem",
			Filters: []plan.Filter{{Col: "l_quantity", Lo: 10, Hi: 40}},
			Joins:   []plan.JoinSpec{{FKCol: "l_partkey", Dim: "part", DimPK: "p_partkey", DimFilters: []plan.Filter{{Col: "p_type", Lo: 40, Hi: 99}}}},
			Aggs: []plan.AggSpec{
				{Name: "n", Func: plan.Count},
				{Name: "qty", Func: plan.Sum, Expr: plan.Col("l_quantity")},
				{Name: "price", Func: plan.Max, Expr: plan.Col("l_extendedprice")},
				{Name: "disc", Func: plan.Min, Expr: plan.Col("l_discount")},
			},
		}, [][2]int64{{12279, 19855}, {12279, 19855}, {306_636, 497_229}, {7_599_960, 7_599_960}, {1, 1}}},
		{"4 partitions with delta rows", plan.Query{
			Table:   "ev",
			Filters: []plan.Filter{{Col: "k", Lo: 3000, Hi: 12_000}},
			Aggs:    extremes,
		}, [][2]int64{{22312, 22393}, {22312, 22393}, {-45_983_129, -44_345_065}, {-7000, -6972}, {3000, 3049}, {-2133, -1929}}},
	} {
		for _, opts := range []plan.ExecOpts{{}, {Threads: 1, Workers: 4, Morsel: 1000}} {
			res, err := c.ExecAR(context.Background(), tc.q, opts)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if res.Refined >= res.Candidates {
				t.Fatalf("%s: %d candidates refine to %d: the statement is not on the general path", tc.name, res.Candidates, res.Refined)
			}
			got := [][2]int64{{res.Approx.Count.Lo, res.Approx.Count.Hi}}
			for _, iv := range res.Approx.Aggs {
				got = append(got, [2]int64{iv.Lo, iv.Hi})
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("%s (workers %d): phase A answered %v, pinned %v", tc.name, opts.Workers, got, tc.want)
			}
		}
	}
}
