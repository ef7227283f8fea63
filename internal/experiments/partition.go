package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/bat"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/shard"
	"repro/internal/store"
)

// PartitionSweep is the partition-count axis of the partition experiment.
var PartitionSweep = []int{1, 2, 4, 8}

// Partition measures scatter-gather scaling over hash partitions (ROADMAP
// item 4, extending Fig 11 past a single device's memory wall): the same
// grouped A&R aggregation runs against one logical table declared with
// 1–8 hash partitions, each partition an independent store.Table with its
// own device stream under the engine scheduler's per-device ledger.
//
// Two effects are visible. The aggregate simulated device time stays
// within a few tens of percent across counts — the scan work is
// conserved, while per-partition kernel launches, per-partition relaxed
// candidate boundaries and the host-side gather (two or more scanned legs
// never pre-group on the device; one leg is the unpartitioned execution,
// meter included) shift the split, which is exactly why results stay
// byte-identical but meters are only bit-identical at a fixed count.
// The per-stream share (aggregate / N) falls ~1/N: with one admission-
// controlled stream per partition device the scatter legs run
// concurrently, so the share is the ideal makespan on N devices — the
// way past one device's transfer budget. Every configuration is checked
// byte-identical against the unpartitioned baseline in both modes.
func Partition(opts Options) (*Figure, error) {
	scale := float64(PaperMicroN) / float64(opts.MicroN)
	sys := device.ScaledSystem(scale)

	defs := []store.ColumnDef{
		{Name: "v", Scale: 1, Width: bat.Width32},
		{Name: "g", Scale: 1, Width: bat.Width32},
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	rows := make([][]int64, opts.MicroN)
	for i := range rows {
		rows[i] = []int64{int64(rng.Intn(MicroDomain)), int64(rng.Intn(100))}
	}
	q := plan.Query{
		Table:   "fact",
		Filters: []plan.Filter{{Col: "v", Lo: 0, Hi: int64(MicroDomain)/5 - 1}},
		GroupBy: []string{"g"},
		Aggs: []plan.AggSpec{
			{Name: "n", Func: plan.Count},
			{Name: "s", Func: plan.Sum, Expr: plan.Col("v")},
		},
	}

	// build loads the same logical table with n hash partitions (0 =
	// unpartitioned baseline), fully decomposed and merged.
	build := func(n int) (*plan.Catalog, error) {
		c := plan.NewCatalog(sys)
		var err error
		if n == 0 {
			_, err = c.CreateTable("fact", defs)
		} else {
			_, err = c.CreatePartitionedTable("fact", defs, shard.Spec{Kind: shard.Hash, Col: "v", N: n})
		}
		if err != nil {
			return nil, err
		}
		if _, err := c.InsertRows(nil, "fact", rows); err != nil {
			return nil, err
		}
		for col, bits := range map[string]uint{"v": 16, "g": 7} {
			if _, err := c.Decompose("fact", col, bits); err != nil {
				return nil, err
			}
		}
		if _, err := c.MergeTable(nil, "fact", false); err != nil {
			return nil, err
		}
		return c, nil
	}

	// run executes q through an engine session forced to mode, returning
	// the result rows and the gathered meter.
	run := func(c *plan.Catalog, mode engine.Mode, want engine.Route) ([]plan.Row, *device.Meter, error) {
		eng := engine.New(c, engine.Options{})
		defer eng.Close()
		sess := eng.SessionFor(mode)
		defer sess.Close()
		res, err := sess.QueryPlan(context.Background(), q)
		if err != nil {
			return nil, nil, err
		}
		if res.Route != want {
			return nil, nil, fmt.Errorf("partition: query routed to %v, want %v", res.Route, want)
		}
		return res.Rows, res.Meter, nil
	}

	base, err := build(0)
	if err != nil {
		return nil, err
	}
	baseRows, baseAR, err := run(base, engine.ModeAR, engine.RouteAR)
	if err != nil {
		return nil, err
	}
	_, baseCl, err := run(base, engine.ModeClassic, engine.RouteClassic)
	if err != nil {
		return nil, err
	}

	arAgg := Series{Label: "A&R aggregate device time"}
	arShare := Series{Label: "A&R per-stream share"}
	clAgg := Series{Label: "Classic aggregate"}
	var bars []Bar
	for _, n := range PartitionSweep {
		c, err := build(n)
		if err != nil {
			return nil, err
		}
		arRows, arM, err := run(c, engine.ModeAR, engine.RouteAR)
		if err != nil {
			return nil, err
		}
		if !plan.EqualResults(arRows, baseRows) {
			return nil, fmt.Errorf("partition: A&R over %d partitions differs from the unpartitioned baseline", n)
		}
		clRows, clM, err := run(c, engine.ModeClassic, engine.RouteClassic)
		if err != nil {
			return nil, err
		}
		if !plan.EqualResults(clRows, baseRows) {
			return nil, fmt.Errorf("partition: classic over %d partitions differs from the unpartitioned baseline", n)
		}
		arT := arM.Total().Seconds()
		arAgg.X = append(arAgg.X, float64(n))
		arAgg.Y = append(arAgg.Y, ms(arT))
		arShare.X = append(arShare.X, float64(n))
		arShare.Y = append(arShare.Y, ms(arT/float64(n)))
		clAgg.X = append(clAgg.X, float64(n))
		clAgg.Y = append(clAgg.Y, ms(clM.Total().Seconds()))
		bars = append(bars, Bar{
			Label: fmt.Sprintf("A&R %d partition(s)", n),
			Total: arT,
			GPU:   arM.GPU.Seconds(),
			CPU:   arM.CPU.Seconds(),
			PCI:   arM.PCI.Seconds(),
		})
	}

	return &Figure{
		ID: "partition", Title: "Scatter-Gather over Hash Partitions",
		XLabel: "partitions", YLabel: "Time in ms",
		Series: []Series{arAgg, arShare, clAgg},
		Bars:   bars,
		Notes: []string{
			fmt.Sprintf("executed %d rows, system scaled x%.0f to the paper's 100M", opts.MicroN, scale),
			fmt.Sprintf("unpartitioned baseline: A&R %.3fms, classic %.3fms", ms(baseAR.Total().Seconds()), ms(baseCl.Total().Seconds())),
			"one partition is one leg and runs exactly as the unpartitioned table does; two or",
			"more legs group on the host where their partials meet, a fixed premium over the",
			"device pre-grouping; the per-stream share is the ideal makespan on N independent",
			"device streams (one admission-controlled stream per partition under the",
			"scheduler's per-device ledger)",
			"every point verified byte-identical to the unpartitioned baseline in both modes",
		},
	}, nil
}
