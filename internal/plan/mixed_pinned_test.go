package plan

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/shard"
)

// TestMixedScatterApproxPinned holds the phase-A answers of a mixed-mode
// scatter to the literals recorded at e620e4b: a 2-way range table whose
// negative slab held no row when the table was decomposed, so that leg scans
// classic under ModeAR — from its delta, and once merged from its base — and
// owes an exact partial answer, while the other leg answers with bounds from
// its residual filters. Counts, sums, extremes and averages, filtered on
// either leg's side and on both, unfiltered and grouped; the answers do not
// depend on the worker count or the morsel size.
func TestMixedScatterApproxPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	rowsOf := func(n int, v func() int64) [][]int64 {
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = partPropRow(rng)
			rows[i][0] = v()
		}
		return rows
	}
	c := partPropCatalog(t, 2, shard.Range, rowsOf(3000, func() int64 { return int64(rng.Intn(4096)) }))
	if _, err := c.InsertRows(nil, "fact", rowsOf(400, func() int64 { return -1 - int64(rng.Intn(4096)) })); err != nil {
		t.Fatal(err)
	}
	if _, err := c.InsertRows(nil, "fact", rowsOf(150, func() int64 { return int64(rng.Intn(4096)) })); err != nil {
		t.Fatal(err)
	}
	all := func(x, y Expr) []AggSpec {
		return []AggSpec{
			{Name: "n", Func: Count},
			{Name: "s", Func: Sum, Expr: x},
			{Name: "lo", Func: Min, Expr: y},
			{Name: "hi", Func: Max, Expr: y},
			{Name: "avg", Func: Avg, Expr: x},
		}
	}
	stmts := []struct {
		name string
		q    Query
		want [2][][2]int64 // unmerged, merged: the count's bounds, then every aggregate's
	}{
		{"both legs", Query{Table: "fact", Filters: []Filter{{Col: "v", Lo: -3000, Hi: 3000}}, Aggs: all(Col("w"), Col("v"))}, [2][][2]int64{{{2586, 2602}, {2586, 2602}, {5_278_811, 5_442_557}, {-2996, -2996}, {3000, 3007}, {2010, 2175}}, {{2583, 2602}, {2583, 2602}, {5_270_383, 5_445_676}, {-2996, -2996}, {2976, 3007}, {2006, 2175}}}},
		{"residual filter on w", Query{Table: "fact", Filters: []Filter{{Col: "w", Lo: 0, Hi: 2000}}, Aggs: all(Col("v"), Col("w"))}, [2][][2]int64{{{1645, 1751}, {1645, 1751}, {2_587_340, 2_828_154}, {0, 14}, {1998, 2047}, {-2110, 2207}}, {{1642, 1755}, {1642, 1755}, {2_578_274, 2_835_233}, {0, 14}, {1998, 2047}, {-2110, 2216}}}},
		{"classic leg only", Query{Table: "fact", Filters: []Filter{{Col: "v", Lo: -2000, Hi: -100}}, Aggs: all(Add(Col("v"), Col("w")), Col("g"))}, [2][][2]int64{{{188, 188}, {188, 188}, {213_959, 213_959}, {0, 0}, {4, 4}, {1138, 1138}}, {{188, 188}, {188, 188}, {213_959, 213_959}, {0, 0}, {4, 4}, {1138, 1138}}}},
		{"unfiltered", Query{Table: "fact", Aggs: all(Col("g"), Col("v"))}, [2][][2]int64{{{3550, 3550}, {3550, 3550}, {7234, 7234}, {-4085, -4085}, {4080, 4095}, {2, 2}}, {{3550, 3550}, {3550, 3550}, {7234, 7234}, {-4085, -4085}, {4080, 4095}, {2, 2}}}},
		{"grouped", Query{Table: "fact", Filters: []Filter{{Col: "v", Lo: -500, Hi: 700}}, GroupBy: []string{"g"}, Aggs: all(Col("v"), Col("w"))}, [2][][2]int64{{{586, 606}, {586, 606}, {171_328, 187_594}, {0, 63}, {4032, 4095}, {-257, 375}}, {{585, 606}, {585, 606}, {171_199, 187_780}, {0, 63}, {4032, 4095}, {-257, 376}}}},
	}
	for mi, merged := range []bool{false, true} {
		if merged {
			if _, err := c.MergeTable(nil, "fact", false); err != nil {
				t.Fatal(err)
			}
		}
		x, err := c.Pin(mustPlan(t, c, stmts[0].q, ModeAR))
		if err != nil {
			t.Fatal(err)
		}
		if len(x.legs) != 2 || !x.legs[0].pl.classic || x.legs[1].pl.classic {
			t.Fatalf("fixture: the range table's legs are not classic, then A&R")
		}
		for _, tc := range stmts {
			for _, opts := range []ExecOpts{{}, {Threads: 2, Workers: 3, Morsel: 1024}} {
				res, err := c.execOnce(context.Background(), tc.q, opts, ModeAR)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				got := [][2]int64{{res.Approx.Count.Lo, res.Approx.Count.Hi}}
				for _, iv := range res.Approx.Aggs {
					got = append(got, [2]int64{iv.Lo, iv.Hi})
				}
				if !slices.Equal(got, tc.want[mi]) {
					t.Errorf("%s, merged %v (workers %d): phase A answered %v, pinned %v", tc.name, merged, opts.Workers, got, tc.want[mi])
				}
			}
		}
	}
}
