// Quickstart: bitwise-decompose a column, run an approximate selection on
// the simulated GPU, refine it on the CPU, and compare against the classic
// bulk engine.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/ar"
	"repro/internal/bat"
	"repro/internal/bulk"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/par"
)

func main() {
	// One million shuffled integers, like a small version of the paper's
	// microbenchmark column.
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 1_000_000)
	for i := range vals {
		vals[i] = int64(i)
	}
	rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	column := bat.NewDense(vals, bat.Width32)

	// The simulated testbed: GTX 680 (2 GiB) + dual Xeon + PCI-E.
	sys := device.PaperSystem()

	// bwdecompose(column, 12): the major 12 bits go to the device, the
	// remaining 8 stay on the host as the residual.
	col, err := bwd.Decompose(column, 12, sys)
	if err != nil {
		log.Fatal(err)
	}
	defer col.Release()
	fmt.Printf("decomposition: %v\n", col.Dec)
	fmt.Printf("device bytes:  %d (of %d raw)\n", col.GPUBytes(), col.OriginalBytes())
	fmt.Printf("host bytes:    %d\n", col.CPUBytes())

	// SELECT ... WHERE 100000 <= v <= 150000, the A&R way.
	lo, hi := int64(100_000), int64(150_000)
	m := device.NewMeter(sys)

	// Phase A on the device: relaxed predicate over the approximation.
	cands := ar.SelectApprox(m, col, col.Relax(lo, hi))
	fmt.Printf("\napproximate phase: %d candidates (exact answer is in there)\n", cands.Len())
	approxCount := ar.CountApprox(m, cands)
	fmt.Printf("approximate count: %v (strict bounds, available before refinement)\n", approxCount)

	// Ship once across the bus, refine on the CPU.
	cands.Ship(m)
	refined, exactVals := ar.SelectRefine(par.P{}, m, col, nil, lo, hi, cands)
	fmt.Printf("refined result:    %d tuples (%d false positives eliminated)\n",
		refined.Len(), cands.Len()-refined.Len())
	fmt.Printf("simulated cost:    %v\n", m)

	// Cross-check against the classic bulk engine.
	mClassic := device.NewMeter(sys)
	want := bulk.SelectRange(par.P{}, mClassic, column, lo, hi)
	if len(want) != refined.Len() {
		log.Fatalf("MISMATCH: classic found %d, A&R found %d", len(want), refined.Len())
	}
	for i, id := range refined.IDs() {
		if vals[id] != exactVals[i] {
			log.Fatalf("MISMATCH at id %d", id)
		}
	}
	fmt.Printf("\nclassic engine agrees: %d tuples, simulated cost %v\n", len(want), mClassic)
	fmt.Printf("speed-up (simulated): %.1fx\n",
		mClassic.Total().Seconds()/m.Total().Seconds())
}
