// Command arbench regenerates the paper's evaluation tables and figures
// (see EXPERIMENTS.md). Each experiment executes the real operator
// implementations at a configurable data scale on the simulated device
// system and prints the same series/rows the paper reports.
//
// Usage:
//
//	arbench                          # run everything at default scale
//	arbench -experiment fig9         # one experiment
//	arbench -micro 10000000 -spatial 10000000 -sf 0.05
//	arbench -quick                   # test-suite scale (fast)
//	arbench -quick -json BENCH.json  # also write a machine-readable report
//
// With -json the run additionally writes a JSON report carrying, per
// experiment, the wall-clock latency and the full figure data (series
// points and simulated GPU/CPU/PCI meter bars), plus a per-operator stage
// trace of the spatial benchmark query (est vs actual rows and the device
// split per pipeline stage).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// report is the machine-readable benchmark record written by -json: one
// entry per experiment ran (latency + figure data, which carries the
// simulated meter split), the Table I facts, and a per-operator stage
// trace of the spatial benchmark query.
type report struct {
	Options     experiments.Options       `json:"options"`
	Experiments []reportExperiment        `json:"experiments"`
	Table1      *experiments.Table1Result `json:"table1,omitempty"`
	StageTrace  *obs.Trace                `json:"stage_trace,omitempty"`
}

type reportExperiment struct {
	ID          string              `json:"id"`
	Doc         string              `json:"doc"`
	WallSeconds float64             `json:"wall_seconds"`
	Figure      *experiments.Figure `json:"figure"`
}

var figures = []struct {
	id  string
	fn  func(experiments.Options) (*experiments.Figure, error)
	doc string
}{
	{"fig8a", experiments.Fig8a, "selection on GPU-resident data"},
	{"fig8b", experiments.Fig8b, "selection on distributed data (8 bit CPU)"},
	{"fig8c", experiments.Fig8c, "selection, varying GPU-resident bits"},
	{"fig8d", experiments.Fig8d, "projection/join on GPU-resident data"},
	{"fig8e", experiments.Fig8e, "projection/join on distributed data"},
	{"fig8f", experiments.Fig8f, "grouping on GPU-resident data"},
	{"fig9", experiments.Fig9, "spatial range queries"},
	{"fig10a", experiments.Fig10a, "TPC-H Q1"},
	{"fig10b", experiments.Fig10b, "TPC-H Q6"},
	{"fig10c", experiments.Fig10c, "TPC-H Q14"},
	{"fig11", experiments.Fig11, "memory-wall throughput"},
	{"ingest", experiments.Ingest, "insert stream + incremental BWD maintenance"},
	{"partition", experiments.Partition, "scatter-gather over hash partitions"},
}

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id (fig1, fig8a..fig8f, table1, fig9, fig10a..fig10c, fig11, ingest, partition, all)")
		microN     = flag.Int("micro", 0, "microbenchmark rows to execute (default from -quick/full presets)")
		spatialN   = flag.Int("spatial", 0, "spatial fixes to execute")
		sf         = flag.Float64("sf", 0, "TPC-H scale factor to execute")
		threads    = flag.Int("threads", 1, "CPU threads for refinement/classic plans")
		seed       = flag.Int64("seed", 7, "data generator seed")
		quick      = flag.Bool("quick", false, "use the fast test-suite data scale")
		list       = flag.Bool("list", false, "list experiments and exit")
		jsonPath   = flag.String("json", "", "also write a machine-readable report to this path")
	)
	flag.Parse()

	if *list {
		fmt.Println("fig1    flash-memory background chart (static)")
		for _, f := range figures {
			fmt.Printf("%-7s %s\n", f.id, f.doc)
		}
		fmt.Println("table1  spatial benchmark definition + data volumes")
		return
	}

	opts := experiments.Defaults()
	if *quick {
		opts = experiments.Quick()
	}
	if *microN > 0 {
		opts.MicroN = *microN
	}
	if *spatialN > 0 {
		opts.SpatialN = *spatialN
	}
	if *sf > 0 {
		opts.TPCHSF = *sf
	}
	opts.Threads = *threads
	opts.Seed = *seed

	want := strings.ToLower(*experiment)
	rep := report{Options: opts}
	ran := 0
	if want == "all" || want == "fig1" {
		fmt.Print(experiments.Fig1().Render())
		fmt.Println()
		ran++
	}
	for _, f := range figures {
		if want != "all" && want != f.id {
			continue
		}
		start := time.Now()
		fig, err := f.fn(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "arbench: %s: %v\n", f.id, err)
			os.Exit(1)
		}
		rep.Experiments = append(rep.Experiments, reportExperiment{
			ID: f.id, Doc: f.doc, WallSeconds: time.Since(start).Seconds(), Figure: fig,
		})
		fmt.Print(fig.Render())
		fmt.Println()
		ran++
	}
	if want == "all" || want == "table1" {
		tb, err := experiments.Table1(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "arbench: table1: %v\n", err)
			os.Exit(1)
		}
		rep.Table1 = tb
		fmt.Print(tb.Render())
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "arbench: unknown experiment %q (try -list)\n", *experiment)
		os.Exit(2)
	}
	if *jsonPath != "" {
		tr, err := experiments.TraceSpatial(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "arbench: stage trace: %v\n", err)
			os.Exit(1)
		}
		rep.StageTrace = tr
		out, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "arbench: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "arbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote machine-readable report to %s\n", *jsonPath)
	}
}
