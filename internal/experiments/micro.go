package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/ar"
	"repro/internal/bat"
	"repro/internal/bulk"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/par"
)

// The Fig 8 microbenchmarks: "100 million unique, randomly shuffled
// integers (value range 0 to 100 million)" (§VI-B). We execute opts.MicroN
// rows drawn from the full paper domain and extrapolate times by
// PaperMicroN / MicroN.

// SelectivitySweep is the qualifying-tuple percentage axis of Figs
// 8a/8b/8d/8e.
var SelectivitySweep = []float64{1, 2, 5, 10, 20, 40, 60, 80, 100}

// microData builds the benchmark column: MicroN values uniform over the
// paper's 100 M domain (a dense unique permutation at full scale).
func microData(opts Options) *bat.BAT {
	rng := rand.New(rand.NewSource(opts.Seed))
	vals := make([]int64, opts.MicroN)
	for i := range vals {
		vals[i] = int64(rng.Intn(MicroDomain))
	}
	return bat.NewDense(vals, bat.Width32)
}

func microScale(opts Options) float64 {
	return float64(PaperMicroN) / float64(opts.MicroN)
}

// selectionExperiment runs one selection micro-point on the scaled system
// and returns (approximate-only seconds, approximate+refine seconds) —
// already paper-scale because the system's rates are scaled down instead
// of the times being multiplied up (fixed launch/transfer costs stay
// fixed; see device.ScaledSystem).
func selectionExperiment(sys *device.System, col *bwd.Column, lo, hi int64, threads int) (approx, total float64) {
	m, pp := device.NewMeter(sys), par.P{Threads: threads}
	cands := ar.SelectApprox(col, col.Relax(lo, hi))
	ar.ChargeSelectApprox(m, cands.Len(), col)
	approxOnly, n := m.Total().Seconds(), cands.Len()
	cands.ChargeShip(m)
	ar.SelectRefine(pp, col, nil, lo, hi, cands)
	ar.ChargeSelectRefine(pp, m, col, false, n, cands.Len())
	return approxOnly, m.Total().Seconds()
}

// Fig8a reproduces "Selection on GPU Resident Data": all value bits live
// on the device, selectivity sweeps 1–100 %.
func Fig8a(opts Options) (*Figure, error) {
	return fig8Selection(opts, "fig8a", "Selection on GPU Resident Data", 32)
}

// Fig8b reproduces "Selection on Distributed Data (8 bit on CPU)".
func Fig8b(opts Options) (*Figure, error) {
	return fig8Selection(opts, "fig8b", "Selection on Distributed Data (8 bit on CPU)", 0)
}

// fig8Selection runs the selectivity sweep; approxBits 0 means "total-8"
// (8 residual bits on the CPU).
func fig8Selection(opts Options, id, title string, approxBits uint) (*Figure, error) {
	scale := microScale(opts)
	sys, pp := device.ScaledSystem(scale), par.P{Threads: opts.Threads}
	b := microData(opts)
	bits := approxBits
	if bits == 0 {
		probe, err := bwd.Decompose(b, 32, nil)
		if err != nil {
			return nil, err
		}
		bits = probe.Dec.TotalBits - 8
	}
	col, err := bwd.Decompose(b, bits, sys)
	if err != nil {
		return nil, err
	}
	defer col.Release()

	monet := Series{Label: "MonetDB"}
	ar2 := Series{Label: "Approximate+Refine"}
	apx := Series{Label: "Approximate"}
	stream := Series{Label: "Stream (Hypothetical)"}
	streamT := device.NewMeter(sys).StreamHypothetical(int64(opts.MicroN) * 4).Seconds()

	for _, sel := range SelectivitySweep {
		hi := int64(float64(MicroDomain)*sel/100) - 1
		m := device.NewMeter(sys)
		set, err := ar.SelectExact(pp, b.Len(), bwd.Exactly(nil, b.Tails(), 0, hi))
		if err != nil {
			return nil, err
		}
		bulk.ChargeSelectRange(pp, m, b.Width(), b.Len(), set.Len())
		monetT := m.Total().Seconds()
		set.Release()

		a, t := selectionExperiment(sys, col, 0, hi, opts.Threads)
		monet.add(sel, ms(monetT))
		ar2.add(sel, ms(t))
		apx.add(sel, ms(a))
		stream.add(sel, ms(streamT))
	}
	return &Figure{
		ID: id, Title: title,
		XLabel: "Qualifying Tuples in %", YLabel: "Time in ms",
		Series: []Series{monet, ar2, apx, stream},
		Notes: []string{
			fmt.Sprintf("executed %d rows, extrapolated x%.0f to the paper's 100M", opts.MicroN, scale),
			fmt.Sprintf("decomposition: %v", col.Dec),
		},
	}, nil
}

// Fig8c reproduces "Selection, varying Number of GPU-resident bits":
// selectivities 5 %, .05 % and .01 % swept over 10–26 device-resident bits
// (the 100 M domain uses 27 bits; the paper's axis extends to 30 where the
// curve is flat).
func Fig8c(opts Options) (*Figure, error) {
	scale := microScale(opts)
	sys := device.ScaledSystem(scale)
	b := microData(opts)
	selectivities := []float64{5, 0.05, 0.01}
	bitSweep := []float64{10, 12, 14, 16, 18, 20, 22, 24, 26}

	var series []Series
	for _, sel := range selectivities {
		series = append(series,
			Series{Label: fmt.Sprintf("Approx+Refine (%v%%)", sel)},
			Series{Label: fmt.Sprintf("Approximate (%v%%)", sel)})
	}
	stream := Series{Label: "Stream (Hypothetical)"}
	streamT := device.NewMeter(sys).StreamHypothetical(int64(opts.MicroN) * 4).Seconds()

	for _, bits := range bitSweep {
		col, err := bwd.Decompose(b, uint(bits), sys)
		if err != nil {
			return nil, err
		}
		for si, sel := range selectivities {
			hi := int64(float64(MicroDomain)*sel/100) - 1
			a, t := selectionExperiment(sys, col, 0, hi, opts.Threads)
			series[2*si].add(bits, ms(t))
			series[2*si+1].add(bits, ms(a))
		}
		stream.add(bits, ms(streamT))
		col.Release()
	}
	return &Figure{
		ID: "fig8c", Title: "Selection, varying Number of GPU-resident bits",
		XLabel: "Number of GPU-resident bits", YLabel: "Time in ms",
		Series: append(series, stream),
		Notes: []string{
			fmt.Sprintf("executed %d rows, extrapolated x%.0f", opts.MicroN, scale),
			"fewer device bits -> coarser buckets -> more false positives to refine;",
			"higher selectivities tolerate fewer bits (the paper's observation)",
		},
	}, nil
}

// Fig8d reproduces "Projection/Join on GPU Resident Data".
func Fig8d(opts Options) (*Figure, error) {
	return fig8Projection(opts, "fig8d", "Projection/Join on GPU Resident Data", 32)
}

// Fig8e reproduces "Projection/Join on Distributed Data (8 bit CPU)".
func Fig8e(opts Options) (*Figure, error) {
	return fig8Projection(opts, "fig8e", "Projection/Join on Distributed Data (8 bit CPU)", 0)
}

func fig8Projection(opts Options, id, title string, approxBits uint) (*Figure, error) {
	scale := microScale(opts)
	sys, pp := device.ScaledSystem(scale), par.P{Threads: opts.Threads}
	selCol := microData(opts)
	prjCol := func() *bat.BAT {
		rng := rand.New(rand.NewSource(opts.Seed + 1))
		vals := make([]int64, opts.MicroN)
		for i := range vals {
			vals[i] = int64(rng.Intn(MicroDomain))
		}
		return bat.NewDense(vals, bat.Width32)
	}()
	bits := approxBits
	if bits == 0 {
		probe, err := bwd.Decompose(prjCol, 32, nil)
		if err != nil {
			return nil, err
		}
		bits = probe.Dec.TotalBits - 8
	}
	dsel, err := bwd.Decompose(selCol, 32, sys)
	if err != nil {
		return nil, err
	}
	defer dsel.Release()
	dprj, err := bwd.Decompose(prjCol, bits, sys)
	if err != nil {
		return nil, err
	}
	defer dprj.Release()

	monet := Series{Label: "MonetDB"}
	ar2 := Series{Label: "Approximate+Refine"}
	apx := Series{Label: "Approximate"}
	stream := Series{Label: "Stream (Hypothetical)"}
	streamT := device.NewMeter(sys).StreamHypothetical(int64(opts.MicroN) * 4).Seconds()

	for _, sel := range SelectivitySweep {
		hi := int64(float64(MicroDomain)*sel/100) - 1
		// Candidate set prepared outside the timed region: the experiment
		// measures the projection, like the paper's per-operator breakdown.
		refined := ar.SelectApprox(dsel, dsel.Relax(0, hi))
		if err := ar.SelectRefine(pp, dsel, nil, 0, hi, refined); err != nil {
			return nil, err
		}
		set, err := ar.SelectExact(pp, selCol.Len(), bwd.Exactly(nil, selCol.Tails(), 0, hi))
		if err != nil {
			return nil, err
		}

		// The fetch: the projected column read by the set's mask, as the
		// classic executor's fold reads it, billed as the bulk model's
		// positional join.
		m := device.NewMeter(sys)
		vals, tails := mem.I64.GetN(set.Len()), prjCol.Tails()
		set.Blocks(0, set.WorkGroups(), math.MaxInt32, func(g0, g1, pos, n int) {
			set.Values(tails, nil, vals[pos:pos+n], g0, g1)
		})
		bulk.ChargeFetch(pp, m, prjCol.Width(), prjCol.Len(), set.Len())
		monetT := m.Total().Seconds()
		mem.I64.Put(vals)
		set.Release()

		m = device.NewMeter(sys)
		proj := ar.ProjectApprox(dprj, nil, refined)
		ar.ChargeProjectApprox(m, dprj, refined.Len())
		approxT := m.Total().Seconds()
		proj.ChargeShip(m)
		if _, err := ar.ProjectRefine(pp, proj); err != nil {
			return nil, err
		}
		proj.ChargeRefine(pp.NThreads(), m)
		totalT := m.Total().Seconds()
		refined.Release()

		monet.add(sel, ms(monetT))
		ar2.add(sel, ms(totalT))
		apx.add(sel, ms(approxT))
		stream.add(sel, ms(streamT))
	}
	return &Figure{
		ID: id, Title: title,
		XLabel: "Qualifying Tuples in %", YLabel: "Time in ms",
		Series: []Series{monet, ar2, apx, stream},
		Notes: []string{
			fmt.Sprintf("executed %d rows, extrapolated x%.0f", opts.MicroN, scale),
			fmt.Sprintf("projected column decomposition: %v", dprj.Dec),
		},
	}, nil
}

// Fig8f reproduces "Grouping on GPU Resident Data": group counts 10–1000.
func Fig8f(opts Options) (*Figure, error) {
	scale := microScale(opts)
	sys := device.ScaledSystem(scale)
	groupCounts := []float64{10, 30, 100, 300, 1000}

	monet := Series{Label: "MonetDB"}
	ar2 := Series{Label: "Approximate+Refine"}
	apx := Series{Label: "Approximate"}
	stream := Series{Label: "Stream (Hypothetical)"}
	streamT := device.NewMeter(sys).StreamHypothetical(int64(opts.MicroN) * 4).Seconds()

	for _, g := range groupCounts {
		rng := rand.New(rand.NewSource(opts.Seed + int64(g)))
		keys := make([]int64, opts.MicroN)
		for i := range keys {
			keys[i] = int64(rng.Intn(int(g)))
		}
		b := bat.NewDense(keys, bat.Width32)
		col, err := bwd.Decompose(b, 32, sys)
		if err != nil {
			return nil, err
		}

		m := device.NewMeter(sys)
		bulk.ChargeGroupBy(par.P{Threads: opts.Threads}, m, len(keys), 1)
		monetT := m.Total().Seconds()

		m = device.NewMeter(sys)
		cands := ar.SelectApprox(col, bwd.ApproxRange{Full: true})
		ar.ChargeSelectApprox(m, cands.Len(), col)
		grouping := ar.GroupApprox([]*bwd.Column{col}, cands)
		ar.ChargeGroupApprox(m, grouping.Cols, cands, grouping.NGroups)
		approxT := m.Total().Seconds()
		grouping.ChargeShip(m)
		cands.ChargeShip(m)
		ar.ChargeGroupRefine(par.P{Threads: opts.Threads}, m, grouping, cands.Len())
		totalT := m.Total().Seconds()

		monet.add(g, ms(monetT))
		ar2.add(g, ms(totalT))
		apx.add(g, ms(approxT))
		stream.add(g, ms(streamT))
		col.Release()
	}
	return &Figure{
		ID: "fig8f", Title: "Grouping on GPU Resident Data",
		XLabel: "Number of Groups", YLabel: "Time in ms",
		Series: []Series{monet, ar2, apx, stream},
		Notes: []string{
			fmt.Sprintf("executed %d rows, extrapolated x%.0f", opts.MicroN, scale),
			"A&R grouping improves with group count: fewer write conflicts on the grouping table (§VI-B)",
		},
	}, nil
}
