package plan_test

import (
	"context"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/plan"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/tpch"
)

// explainStar is the star schema of the join tests with dimension rows 103–109
// of dim1 and the fact rows with w ≤ 300 deleted, and — withDelta — one fact
// row inserted after the load, so the fact table has a delta segment.
func explainStar(t *testing.T, withDelta bool) *plan.Catalog {
	t.Helper()
	d := buildJoinChainData(t, 5000, 11)
	if _, err := d.c.DeleteRows(nil, "dim1", []plan.Filter{{Col: "id", Lo: 103, Hi: 109}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.c.DeleteRows(nil, "fact", []plan.Filter{{Col: "w", Lo: 0, Hi: 300}}); err != nil {
		t.Fatal(err)
	}
	if withDelta {
		if _, err := d.c.InsertRows(nil, "fact", [][]int64{{1200, 3500, 1, 120, 7}}); err != nil {
			t.Fatal(err)
		}
	}
	return d.c
}

// explainStarQuery has a conjunct, an OR group and two joins, one of them over
// the dimension with deleted rows, each with dimension filters.
var explainStarQuery = plan.Query{
	Table:   "fact",
	Filters: []plan.Filter{{Col: "v", Lo: 0, Hi: 3000}},
	Or:      [][]plan.Filter{{{Col: "g", Lo: 0, Hi: 1}, {Col: "w", Lo: 3000, Hi: plan.NoHi}}},
	Joins: []plan.JoinSpec{
		{FKCol: "fk1", Dim: "dim1", DimPK: "id", DimFilters: []plan.Filter{{Col: "a", Lo: 0, Hi: 80}, {Col: "r", Lo: 1, Hi: 6}}},
		{FKCol: "fk2", Dim: "dim2", DimPK: "id", DimFilters: []plan.Filter{{Col: "b", Lo: 10, Hi: 90}}},
	},
	GroupBy: []string{"g"},
	Aggs: []plan.AggSpec{
		{Name: "n", Func: plan.Count},
		{Name: "s", Func: plan.Sum, Expr: plan.DimCol("dim2", "s")},
	},
}

func describe(t *testing.T, c *plan.Catalog, q plan.Query, mode plan.Mode) string {
	t.Helper()
	pl, err := c.Plan(q, mode)
	if err != nil {
		t.Fatal(err)
	}
	x, err := c.Pin(pl)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Join(x.Describe(), "\n") + "\n"
}

// TestExplainPinned pins \explain (Pinned.Describe) byte for byte over the
// shapes its operator lines come in: a conjunct, an OR group and two joins
// over a dimension with deleted rows, in both modes, with and without a delta
// row; an exact leg; a range-partitioned table with a partition pruned and
// delta rows in the one it scans; and a scan with no filter at all.
func TestExplainPinned(t *testing.T) {
	star, starDelta := explainStar(t, false), explainStar(t, true)

	h := plan.NewCatalog(device.PaperSystem())
	d := tpch.Generate(0.002, 1)
	if err := d.Load(h); err != nil {
		t.Fatal(err)
	}
	if err := d.DecomposeAll(h, false); err != nil {
		t.Fatal(err)
	}

	parted := plan.NewCatalog(device.PaperSystem())
	defs := []store.ColumnDef{{Name: "v", Scale: 1, Width: 4}, {Name: "w", Scale: 1, Width: 4}}
	if _, err := parted.CreatePartitionedTable("ev", defs, shard.Spec{Kind: shard.Range, Col: "v", N: 2}); err != nil {
		t.Fatal(err)
	}
	rows := make([][]int64, 3000)
	for i := range rows {
		rows[i] = []int64{int64(i*7%4096) - 2048, int64(i * 13 % 1000)}
	}
	if _, err := parted.InsertRows(nil, "ev", rows); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"v", "w"} {
		if _, err := parted.Decompose("ev", col, 8); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := parted.InsertRows(nil, "ev", [][]int64{{5, 510}, {-5, 520}, {700, 530}}); err != nil {
		t.Fatal(err)
	}
	if _, err := parted.DeleteRows(nil, "ev", []plan.Filter{{Col: "w", Lo: 0, Hi: 40}}); err != nil {
		t.Fatal(err)
	}
	evQuery := plan.Query{
		Table:   "ev",
		Filters: []plan.Filter{{Col: "v", Lo: 0, Hi: 1500}, {Col: "w", Lo: 100, Hi: 600}},
		Aggs:    []plan.AggSpec{{Name: "n", Func: plan.Count}, {Name: "s", Func: plan.Sum, Expr: plan.Col("w")}},
	}
	anchored := plan.Query{
		Table:   "fact",
		GroupBy: []string{"g"},
		Aggs:    []plan.AggSpec{{Name: "n", Func: plan.Count}, {Name: "s", Func: plan.Sum, Expr: plan.Col("w")}},
	}

	for _, tc := range []struct {
		name string
		c    *plan.Catalog
		q    plan.Query
		mode plan.Mode
		want string
	}{
		{"star, ar", star, explainStarQuery, plan.ModeAR, pinnedExplainStarAR},
		{"star, classic", star, explainStarQuery, plan.ModeClassic, pinnedExplainStarClassic},
		{"star with a delta row, ar", starDelta, explainStarQuery, plan.ModeAR, pinnedExplainStarDeltaAR},
		{"star with a delta row, classic", starDelta, explainStarQuery, plan.ModeClassic, pinnedExplainStarDeltaClassic},
		{"Q1, resident", h, tpch.Q1(90), plan.ModeAR, pinnedExplainQ1},
		{"range partitions, one pruned, ar", parted, evQuery, plan.ModeAR, pinnedExplainRangeAR},
		{"range partitions, one pruned, classic", parted, evQuery, plan.ModeClassic, pinnedExplainRangeClassic},
		{"no filter, ar", star, anchored, plan.ModeAR, pinnedExplainAnchorAR},
		{"no filter, classic", star, anchored, plan.ModeClassic, pinnedExplainAnchorClassic},
	} {
		if got := describe(t, tc.c, tc.q, tc.mode); got != tc.want {
			t.Errorf("%s: \\explain reads\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
}

// TestExplainEstimatesMatchTrace holds \explain and the trace to one estimate
// per operator, in both modes, over a conjunct, an OR group and two joins, one
// of them over a dimension with deleted rows: every est= \explain prints for
// a scan operator equals the Est the operator's trace event records — in A&R
// the phase-A and the phase-R event — and where the event records -1 (a
// probe), the running estimate, which a probe does not narrow.
func TestExplainEstimatesMatchTrace(t *testing.T) {
	c := explainStar(t, false)
	estRe := regexp.MustCompile(`est=(\d+) rows\)$`)
	for _, tc := range []struct {
		mode   plan.Mode
		exec   func(context.Context, plan.Query, plan.ExecOpts) (*plan.Result, error)
		stages []string
		scans  []string // op prefixes of the phases' scan operators; a probe's text has " -> "
	}{
		{plan.ModeAR, c.ExecAR, []string{"approximate", "refine"}, []string{"bwd.uselect", "bwd.leftjoin"}},
		{plan.ModeClassic, c.ExecClassic, []string{"bulk"}, []string{"algebra.uselect", "algebra.leftjoin"}},
	} {
		var explained []int64
		for _, line := range strings.Split(describe(t, c, explainStarQuery, tc.mode), "\n") {
			if l := strings.TrimSpace(line); strings.HasPrefix(l, "filter ") || strings.HasPrefix(l, "or: ") || strings.HasPrefix(l, "join ") {
				m := estRe.FindStringSubmatch(l)
				if m == nil {
					t.Fatalf("%v: no estimate on %q", tc.mode, l)
				}
				n, _ := strconv.ParseInt(m[1], 10, 64)
				explained = append(explained, n)
			}
		}
		if len(explained) != 7 {
			t.Fatalf("%v: \\explain lists %d scan operators, want 7", tc.mode, len(explained))
		}
		res, err := tc.exec(context.Background(), explainStarQuery, plan.ExecOpts{Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, stage := range tc.stages {
			var traced []int64
			running := int64(-1)
			for _, ev := range res.Trace.Events {
				op := ev.Op.String()
				isScan := strings.HasPrefix(op, tc.scans[0]) || strings.HasPrefix(op, tc.scans[1]) && strings.Contains(op, " -> ")
				if ev.Stage != stage || !isScan {
					continue
				}
				if ev.Est >= 0 {
					running = ev.Est
				}
				traced = append(traced, running)
			}
			if !slices.Equal(traced, explained) {
				t.Errorf("%v, %s: the trace estimates %v, \\explain %v", tc.mode, stage, traced, explained)
			}
		}
	}
}
