package experiments

import (
	"context"
	"fmt"

	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/spatial"
)

// Fig11 reproduces "A Gap in the Memory Wall" (§VI-E): two parallel query
// streams, one running classic plans on the CPU with 1–32 threads, one
// running A&R plans on the GPU. The CPU stream saturates at the memory
// wall; the GPU stream, working out of its own memory, stacks almost
// additively on top.
//
// The harness is expressed through the engine's device-aware scheduler —
// the same admission and contention layer cmd/arserve serves traffic with —
// so the figure is reproducible from the running service: the single-stream
// query times come from scheduler-routed executions, and the sweep applies
// the scheduler's own memory-wall law (engine.ClassicStretch): t concurrent
// classic queries see min(t·perThread, aggregate) memory bandwidth, and the
// combined experiment additionally deducts the host bandwidth the A&R
// stream's refinement phase and DMA transfers draw (engine.HostDraw).
func Fig11(opts Options) (*Figure, error) {
	scale := float64(PaperSpatialN) / float64(opts.SpatialN)
	sys := device.ScaledSystem(scale)
	c := plan.NewCatalog(sys)
	d := spatial.Generate(opts.SpatialN, opts.Seed)
	if err := d.Load(c); err != nil {
		return nil, err
	}
	if err := d.Decompose(c); err != nil {
		return nil, err
	}
	q := spatial.RangeCountQuery()
	eng := engine.New(c, engine.Options{})
	ctx := context.Background()

	clSess := eng.SessionFor(engine.ModeClassic)
	defer clSess.Close()
	clRes, err := clSess.QueryPlan(ctx, q)
	if err != nil {
		return nil, err
	}
	if clRes.Route != engine.RouteClassic {
		return nil, fmt.Errorf("fig11: classic query routed to %v", clRes.Route)
	}
	arSess := eng.SessionFor(engine.ModeAR)
	defer arSess.Close()
	arRes, err := arSess.QueryPlan(ctx, q)
	if err != nil {
		return nil, err
	}
	if arRes.Route != engine.RouteAR {
		return nil, fmt.Errorf("fig11: A&R query routed to %v", arRes.Route)
	}

	t1 := clRes.Meter.Total().Seconds() // classic single-thread query time
	arTotal := arRes.Meter.Total().Seconds()
	arQPS := 1 / arTotal

	// Classic stream at t threads: per-query time stretches by the
	// scheduler's memory-wall law once the wall is hit.
	classicQPS := func(t int, arDraw float64) float64 {
		return float64(t) / (t1 * engine.ClassicStretch(sys, t, arDraw))
	}

	threadSweep := []int{1, 2, 4, 8, 16, 32}
	classic := Series{Label: "Classic CPU (parallel streams)"}
	for _, t := range threadSweep {
		classic.add(float64(t), classicQPS(t, 0))
	}

	// Host-bandwidth draw of one saturated A&R stream, as the scheduler
	// charges it to concurrently running classic streams.
	hostDraw := engine.HostDraw(sys, arRes.Meter)
	cpuFrac := arRes.Meter.CPU.Seconds() / arTotal
	pciFrac := arRes.Meter.PCI.Seconds() / arTotal
	cpuWithAR := classicQPS(32, hostDraw)

	return &Figure{
		ID: "fig11", Title: "A Gap in the Memory Wall",
		XLabel: "CPU threads", YLabel: "Queries per s",
		Series: []Series{classic},
		Bars: []Bar{
			{Label: "CPU only (32 threads)", Total: classicQPS(32, 0)},
			{Label: "A&R only", Total: arQPS},
			{Label: "CPU parallel w/ A&R", Total: cpuWithAR},
			{Label: "A&R parallel w/ CPU", Total: arQPS},
			{Label: "Cumulative", Total: cpuWithAR + arQPS},
		},
		Notes: []string{
			"bars report throughput in queries/s (not seconds)",
			fmt.Sprintf("classic single-thread query: %.3fs; A&R query: %.3fs (CPU fraction %.0f%%, PCI %.0f%%)",
				t1, arTotal, cpuFrac*100, pciFrac*100),
			"paper reference: 2.3/4.3/6.7/10.9/15.9/16.2 q/s for 1..32 threads; A&R only 13.4;",
			"combined 12.6 + 13.4 = 26.0 q/s cumulative — GPU adds throughput almost additively",
		},
	}, nil
}
