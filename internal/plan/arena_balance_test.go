package plan

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/mem"
	"repro/internal/shard"
)

// TestStatementReturnsEveryArenaBuffer: a statement hands every arena buffer
// it takes back before it returns — its candidate sets, the pre-grouping, the
// host grouping's key columns, the accumulators and the fold's partial
// states: after a warm-up run, each statement's Gets equal its Puts. That
// holds on a plain table and a 4-way hash table, with delta rows and
// without, grouped (on the device and on the host) and ungrouped, A&R and
// classic, on a mixed-mode scatter — and for a statement cancelled at each
// stage, which returns the context's error.
func TestStatementReturnsEveryArenaBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rowsOf := func(n int, v func() int64) [][]int64 {
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = partPropRow(rng)
			rows[i][0] = v()
		}
		return rows
	}
	uniform := func() int64 { return int64(rng.Intn(4096)) }
	base, delta := rowsOf(3000, uniform), rowsOf(150, uniform)
	stmts := []Query{
		{Table: "fact", Filters: []Filter{{Col: "v", Lo: 100, Hi: 3000}},
			Aggs: []AggSpec{{Name: "n", Func: Count}, {Name: "s", Func: Sum, Expr: Col("w")}, {Name: "lo", Func: Min, Expr: Col("v")}}},
		{Table: "fact", Filters: []Filter{{Col: "v", Lo: 100, Hi: 3000}}, GroupBy: []string{"g"},
			Aggs: []AggSpec{{Name: "n", Func: Count}, {Name: "s", Func: Sum, Expr: Add(Col("w"), Col("v"))}, {Name: "hi", Func: Max, Expr: Col("v")}}},
		{Table: "fact", Filters: []Filter{{Col: "g", Lo: 1, Hi: 3}}, GroupBy: []string{"g"},
			Aggs: []AggSpec{{Name: "n", Func: Count}, {Name: "s", Func: Sum, Expr: Col("g")}}},
		{Table: "fact", Or: [][]Filter{{{Col: "v", Lo: NoLo, Hi: 500}, {Col: "w", Lo: 3500, Hi: NoHi}}}, GroupBy: []string{"w"},
			Aggs:    []AggSpec{{Name: "n", Func: Count}, {Name: "s", Func: Sum, Expr: Col("v")}},
			OrderBy: []OrderKey{{Index: 0, Desc: true}}, Limit: 5},
		{Table: "fact", Filters: []Filter{{Col: "w", Lo: 0, Hi: 2000}}, Aggs: []AggSpec{{Name: "n", Func: Count}}},
	}
	ctx := context.Background()
	// balance runs q once to warm up, then three times more, and holds the
	// arena's Gets of those three to its Puts.
	balance := func(label string, c *Catalog, q Query, mode Mode) {
		t.Helper()
		run := func() {
			if _, err := c.execOnce(ctx, q, ExecOpts{Threads: 2, Morsel: 1024}, mode); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		run()
		before := mem.Stats()
		for i := 0; i < 3; i++ {
			run()
		}
		after := mem.Stats()
		if gets, puts := after.Hits+after.Misses-before.Hits-before.Misses, after.Puts-before.Puts; gets != puts {
			t.Errorf("%s: 3 statements took %d arena buffers and returned %d", label, gets, puts)
		}
	}
	for _, parts := range []int{0, 4} {
		for _, withDelta := range []bool{false, true} {
			c := partPropCatalog(t, parts, shard.Hash, base)
			if withDelta {
				if _, err := c.InsertRows(nil, "fact", delta); err != nil {
					t.Fatal(err)
				}
			}
			for qi, q := range stmts {
				for _, mode := range []Mode{ModeAR, ModeClassic} {
					balance(fmt.Sprintf("%d partitions, delta %v, statement %d, %s", parts, withDelta, qi, modeName(mode == ModeClassic)), c, q, mode)
				}
			}
		}
	}

	// A mixed-mode scatter: a 2-way range table whose negative slab held no
	// row when the table was decomposed, so that leg scans classic under
	// ModeAR — from its delta, and once merged from its base.
	mixed := partPropCatalog(t, 2, shard.Range, base)
	if _, err := mixed.InsertRows(nil, "fact", rowsOf(400, func() int64 { return -1 - int64(rng.Intn(4096)) })); err != nil {
		t.Fatal(err)
	}
	if _, err := mixed.InsertRows(nil, "fact", delta); err != nil {
		t.Fatal(err)
	}
	for _, merged := range []bool{false, true} {
		if merged {
			if _, err := mixed.MergeTable(nil, "fact", false); err != nil {
				t.Fatal(err)
			}
		}
		x, err := mixed.Pin(mustPlan(t, mixed, stmts[2], ModeAR))
		if err != nil {
			t.Fatal(err)
		}
		if len(x.legs) != 2 || !x.legs[0].pl.classic || x.legs[1].pl.classic {
			t.Fatalf("fixture: the range table's legs are not classic, then A&R")
		}
		for qi, q := range stmts {
			balance(fmt.Sprintf("mixed scatter, merged %v, statement %d", merged, qi), mixed, q, ModeAR)
		}
	}

	// Cancelled at each stage: the statement fails with the context's error
	// and still returns every buffer.
	stages := []Stage{StageApprox, StageShip, StageDelta, StageRefine, StageAggregate, StageBulk, StageGather}
	for _, parts := range []int{0, 4} {
		c := partPropCatalog(t, parts, shard.Hash, base)
		if _, err := c.InsertRows(nil, "fact", delta); err != nil {
			t.Fatal(err)
		}
		for _, stage := range stages {
			for qi, q := range stmts[:4] {
				for _, mode := range []Mode{ModeAR, ModeClassic} {
					label := fmt.Sprintf("%d partitions, statement %d, %s, cancelled at %s", parts, qi, modeName(mode == ModeClassic), stage)
					before := mem.Stats()
					cctx, cancel := context.WithCancel(ctx)
					var reached atomic.Bool
					opts := ExecOpts{Threads: 2, Morsel: 1024, OnStage: func(s Stage) {
						if s == stage {
							reached.Store(true)
							cancel()
						}
					}}
					_, err := c.execOnce(cctx, q, opts, mode)
					cancel()
					if reached.Load() && !errors.Is(err, context.Canceled) {
						t.Fatalf("%s: err %v, want the context's", label, err)
					}
					if !reached.Load() && err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					after := mem.Stats()
					if gets, puts := after.Hits+after.Misses-before.Hits-before.Misses, after.Puts-before.Puts; gets != puts {
						t.Errorf("%s: took %d arena buffers and returned %d", label, gets, puts)
					}
				}
			}
		}
	}
}

func mustPlan(t *testing.T, c *Catalog, q Query, mode Mode) *Plan {
	t.Helper()
	pl, err := c.Plan(q, mode)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}
