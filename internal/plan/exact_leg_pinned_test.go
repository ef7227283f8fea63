package plan_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/plan"
	"repro/internal/tpch"
)

// pinnedBill is what one statement cost on the simulated devices, and the
// candidates it was charged for, at commit 108308e — before any leg folded
// its aggregates in phase A.
type pinnedBill struct {
	gpu, cpu, pci time.Duration
	candidates    int
}

// TestExactLegBillsWhatTheGeneralPathBilled pins the simulated meter of the
// three TPC-H statements and of a disjunction and a filtered-dimension join,
// all over fully resident columns — exact legs — to the figures recorded at
// 108308e, where the same statements ran the interval fold, the refinement's
// pass-throughs and a second fold: the device and the CPU are billed for the
// execution model, not for the host's passes (DESIGN.md §7), at every worker
// count and morsel size.
func TestExactLegBillsWhatTheGeneralPathBilled(t *testing.T) {
	c := plan.NewCatalog(device.PaperSystem())
	d := tpch.Generate(0.01, 1)
	if err := d.Load(c); err != nil {
		t.Fatal(err)
	}
	if err := d.DecomposeAll(c, false); err != nil {
		t.Fatal(err)
	}
	q14, err := tpch.Q14(1995, 9)
	if err != nil {
		t.Fatal(err)
	}
	promo := []plan.Filter{{Col: "p_type", Lo: 75, Hi: 99}}
	for _, tc := range []struct {
		name string
		q    plan.Query
		want pinnedBill
	}{
		{"Q1", tpch.Q1(90), pinnedBill{1527614, 1277382, 276844, 57881}},
		{"Q6", tpch.Q6(1994, 6, 24), pinnedBill{202476, 11888, 47345, 1236}},
		{"Q14", q14, pinnedBill{199191, 10268, 77178, 689}},
		{"disjunction, grouped", plan.Query{
			Table:   "lineitem",
			Filters: []plan.Filter{{Col: "l_shipdate", Lo: tpch.Day(1994, 1, 1), Hi: tpch.Day(1996, 6, 30)}},
			Or:      [][]plan.Filter{{{Col: "l_discount", Lo: plan.NoLo, Hi: 2}, {Col: "l_quantity", Lo: 45, Hi: plan.NoHi}}},
			GroupBy: []string{"l_returnflag"},
			Aggs: []plan.AggSpec{
				{Name: "n", Func: plan.Count},
				{Name: "lo", Func: plan.Min, Expr: plan.Col("l_extendedprice")},
				{Name: "rev", Func: plan.Sum, Expr: plan.MulScaled(plan.Col("l_extendedprice"), plan.Col("l_discount"), 100)},
			},
		}, pinnedBill{413324, 126308, 78440, 6332}},
		{"filtered dimension join, top-1", plan.Query{
			Table:   "lineitem",
			Filters: []plan.Filter{{Col: "l_shipdate", Lo: tpch.Day(1995, 1, 1), Hi: tpch.Day(1995, 12, 31)}},
			Joins:   []plan.JoinSpec{{FKCol: "l_partkey", Dim: "part", DimPK: "p_partkey", DimFilters: promo}},
			GroupBy: []string{"l_linestatus"},
			Aggs: []plan.AggSpec{
				{Name: "n", Func: plan.Count},
				{Name: "qty", Func: plan.Avg, Expr: plan.Col("l_quantity")},
				{Name: "kind", Func: plan.Max, Expr: plan.DimCol("part", "p_type")},
			},
			OrderBy: []plan.OrderKey{{Index: 0, Desc: true}},
			Limit:   1,
		}, pinnedBill{327190, 27344, 80301, 1522}},
	} {
		if !describedExact(t, c, tc.q) {
			t.Errorf("%s: \\explain does not show an exact leg", tc.name)
		}
		for _, opts := range []plan.ExecOpts{{}, {Threads: 1, Workers: 4, Morsel: 1000}} {
			res, err := c.ExecAR(context.Background(), tc.q, opts)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			got := pinnedBill{res.Meter.GPU, res.Meter.CPU, res.Meter.PCI, res.Candidates}
			if got != tc.want {
				t.Errorf("%s (workers %d): billed %#v, the parent billed %#v", tc.name, opts.Workers, got, tc.want)
			}
		}
	}
}

// describedExact reports whether \explain of q under A&R says the leg has
// nothing to refine.
func describedExact(t *testing.T, c *plan.Catalog, q plan.Query) bool {
	t.Helper()
	pl, err := c.Plan(q, plan.ModeAR)
	if err != nil {
		t.Fatal(err)
	}
	x, err := c.Pin(pl)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Contains(strings.Join(x.Describe(), "\n"), "refine: nothing to refine")
}
