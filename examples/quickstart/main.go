// Quickstart: bitwise-decompose a column, run an approximate selection on
// the simulated GPU, refine it on the CPU, and compare against the classic
// bulk engine.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"
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
	vals := make([]int64, 1_000_000)
	for i := range vals {
		vals[i] = int64(i)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
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

	// Phase A on the device: relaxed predicate over the approximation, and
	// the column projected over the candidates. Kernels compute, charges bill.
	cands := ar.SelectApprox(col, col.Relax(lo, hi))
	candidates := cands.Len()
	ar.ChargeSelectApprox(m, candidates, col)
	fmt.Printf("\napproximate phase: %d candidates (exact answer is in there)\n", candidates)
	fmt.Printf("approximate count: %v (strict bounds, available before refinement)\n", ar.CountApprox(cands))
	ar.ChargeCountApprox(m, candidates)
	proj := ar.ProjectApprox(col, nil, cands)
	ar.ChargeProjectApprox(m, col, candidates)

	// Ship once across the bus, refine on the CPU: the refinement narrows the
	// candidates in place, the projection rebuilds the exact values left.
	cands.ChargeShip(m)
	proj.ChargeShip(m)
	if err := ar.SelectRefine(par.P{}, col, nil, lo, hi, cands); err != nil {
		log.Fatal(err)
	}
	ar.ChargeSelectRefine(par.P{}, m, col, false, candidates, cands.Len())
	exactVals, err := ar.ProjectRefine(par.P{}, proj)
	if err != nil {
		log.Fatal(err)
	}
	proj.ChargeRefine(par.P{}.NThreads(), m)
	fmt.Printf("refined result:    %d tuples (%d false positives eliminated)\n", cands.Len(), candidates-cands.Len())
	fmt.Printf("simulated cost:    %v\n", m)

	// Cross-check against the classic engine: a selection that compares
	// every value, then the column fetched at its survivors (read by mask),
	// billed as the bulk model's select and fetch.
	mClassic := device.NewMeter(sys)
	want, err := ar.SelectExact(par.P{}, len(vals), bwd.Exactly(nil, vals, lo, hi))
	if err != nil {
		log.Fatal(err)
	}
	defer want.Release()
	bulk.ChargeSelectRange(par.P{}, mClassic, column.Width(), column.Len(), want.Len())
	wantVals := make([]int64, want.Len())
	want.Blocks(0, want.WorkGroups(), math.MaxInt32, func(g0, g1, pos, n int) {
		want.Values(vals, nil, wantVals[pos:pos+n], g0, g1)
	})
	bulk.ChargeFetch(par.P{}, mClassic, column.Width(), column.Len(), want.Len())
	if want.Len() != cands.Len() {
		log.Fatalf("MISMATCH: classic found %d, A&R found %d", want.Len(), cands.Len())
	}
	// A&R candidates come in device order: compare as a set.
	byID := make(map[bat.OID]int64, want.Len())
	for i, id := range want.IDs() {
		byID[id] = wantVals[i]
	}
	for i, id := range cands.IDs() {
		if byID[id] != exactVals[i] || vals[id] != exactVals[i] {
			log.Fatalf("MISMATCH at id %d", id)
		}
	}
	fmt.Printf("\nclassic engine agrees: %d tuples, simulated cost %v\n", want.Len(), mClassic)
	fmt.Printf("speed-up (simulated): %.1fx\n", mClassic.Total().Seconds()/m.Total().Seconds())
}
