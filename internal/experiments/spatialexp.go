package experiments

import (
	"context"
	"fmt"

	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/fixed"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/spatial"
)

// Table1 reproduces Table I: the spatial range-query benchmark definition
// plus the data-volume observation of §VI-C2 (prefix compression achieves
// roughly a 25 % reduction because the coordinates span wide ranges).
type Table1Result struct {
	Schema        string
	Decomposition string
	Query         string
	Rows          int
	OriginalBytes int64
	GPUBytes      int64
	CPUBytes      int64
	Compression   float64 // fraction of data volume saved
	CountResult   int64
}

// Table1 builds the spatial benchmark and reports its setup facts.
func Table1(opts Options) (*Table1Result, error) {
	sys := device.ScaledSystem(float64(PaperSpatialN) / float64(opts.SpatialN))
	c := plan.NewCatalog(sys)
	d := spatial.Generate(opts.SpatialN, opts.Seed)
	if err := d.Load(c); err != nil {
		return nil, err
	}
	if err := d.Decompose(c); err != nil {
		return nil, err
	}
	arSess := engine.New(c, engine.Options{Threads: opts.Threads}).SessionFor(engine.ModeAR)
	defer arSess.Close()
	res, err := arSess.QueryPlan(context.Background(), spatial.RangeCountQuery())
	if err != nil {
		return nil, err
	}
	lon, _ := c.Decomposition("trips", "lon")
	lat, _ := c.Decomposition("trips", "lat")
	orig := lon.OriginalBytes() + lat.OriginalBytes()
	gpu := lon.GPUBytes() + lat.GPUBytes()
	cpu := lon.CPUBytes() + lat.CPUBytes()
	return &Table1Result{
		Schema:        "create table trips (tripid int, lon decimal(8,5), lat decimal(7,5), time int)",
		Decomposition: "select bwdecompose(lon,24), bwdecompose(lat,24) from trips",
		Query: fmt.Sprintf("select count(lon) from trips where lon between %s and %s and lat between %s and %s",
			fixed.Format(spatial.QueryLonLo, fixed.Scale5), fixed.Format(spatial.QueryLonHi, fixed.Scale5),
			fixed.Format(spatial.QueryLatLo, fixed.Scale5), fixed.Format(spatial.QueryLatHi, fixed.Scale5)),
		Rows:          d.Len(),
		OriginalBytes: orig,
		GPUBytes:      gpu,
		CPUBytes:      cpu,
		Compression:   1 - float64(gpu+cpu)/float64(orig),
		CountResult:   res.Rows[0].Vals[0],
	}, nil
}

// Render formats the Table I reproduction.
func (t *Table1Result) Render() string {
	return fmt.Sprintf(`== table1: The Spatial Range Query Benchmark ==
Schema:        %s
Decomposition: %s
Query:         %s
rows executed: %d (paper: ~250M)
data volume:   original %d B -> GPU %d B + CPU %d B (%.0f%% reduction; paper: 25%%)
query result:  count = %d
`, t.Schema, t.Decomposition, t.Query, t.Rows, t.OriginalBytes, t.GPUBytes, t.CPUBytes,
		t.Compression*100, t.CountResult)
}

// Fig9 reproduces "Performance of the Spatial Range Queries": A&R vs
// classic MonetDB vs the hypothetical streaming baseline, with the
// GPU/CPU/PCI breakdown. Paper reference: 0.134 s / 0.529 s / 0.453 s.
func Fig9(opts Options) (*Figure, error) {
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

	eng := engine.New(c, engine.Options{Threads: opts.Threads})
	ctx := context.Background()
	arSess := eng.SessionFor(engine.ModeAR)
	defer arSess.Close()
	arRes, err := arSess.QueryPlan(ctx, q)
	if err != nil {
		return nil, err
	}
	clSess := eng.SessionFor(engine.ModeClassic)
	defer clSess.Close()
	clRes, err := clSess.QueryPlan(ctx, q)
	if err != nil {
		return nil, err
	}
	stream := device.NewMeter(sys).StreamHypothetical(arRes.InputBytes).Seconds()

	fig := &Figure{
		ID: "fig9", Title: "Performance of the Spatial Range Queries",
		YLabel: "Time in s",
		Bars: []Bar{
			meterBar("A & R", arRes.Meter),
			meterBar("MonetDB", clRes.Meter),
			{Label: "Stream (Hypothetical)", Total: stream, PCI: stream},
		},
		Notes: []string{
			fmt.Sprintf("executed %d fixes, extrapolated x%.0f to the paper's 250M", opts.SpatialN, scale),
			fmt.Sprintf("exact count %d; candidates %d -> refined %d", arRes.Rows[0].Vals[0], arRes.Candidates, arRes.Refined),
			"paper reference: A&R 0.134s / MonetDB 0.529s / Stream 0.453s (A&R ~3.4x over CPU)",
		},
	}
	return fig, nil
}

// TraceSpatial executes the spatial range-count query once with
// per-operator tracing on and returns the trace — the stage breakdown
// (est-vs-actual rows, wall time, simulated meter split per operator) that
// arbench embeds in its machine-readable JSON report.
func TraceSpatial(opts Options) (*obs.Trace, error) {
	sys := device.ScaledSystem(float64(PaperSpatialN) / float64(opts.SpatialN))
	c := plan.NewCatalog(sys)
	d := spatial.Generate(opts.SpatialN, opts.Seed)
	if err := d.Load(c); err != nil {
		return nil, err
	}
	if err := d.Decompose(c); err != nil {
		return nil, err
	}
	res, err := c.ExecAR(context.Background(), spatial.RangeCountQuery(), plan.ExecOpts{Threads: opts.Threads, Trace: true})
	if err != nil {
		return nil, err
	}
	res.Trace.Query = "spatial range count (Table I benchmark query)"
	return res.Trace, nil
}

func meterBar(label string, m *device.Meter) Bar {
	return Bar{
		Label: label,
		Total: m.Total().Seconds(),
		GPU:   m.GPU.Seconds(),
		CPU:   m.CPU.Seconds(),
		PCI:   m.PCI.Seconds(),
	}
}
