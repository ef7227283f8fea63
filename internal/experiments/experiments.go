// Package experiments regenerates every table and figure of the paper's
// evaluation section (§VI): the Fig 8 microbenchmarks, the Table I /
// Fig 9 spatial range-query benchmark, the Fig 10 TPC-H queries and the
// Fig 11 throughput experiment, plus the Fig 1 background chart.
//
// Experiments execute the real operator implementations at a configurable
// (reduced) data scale and report the simulated device times extrapolated
// linearly to the paper's data scale — every charged cost is linear in the
// input size, so the extrapolation preserves the shapes exactly (see
// DESIGN.md §1). Absolute values depend on the calibration constants in
// package device; the paper's reference numbers are attached to each
// figure for comparison in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"strings"
)

// Options controls experiment data scales.
type Options struct {
	// MicroN is the microbenchmark row count actually executed
	// (extrapolated to the paper's 100 M).
	MicroN int
	// SpatialN is the executed GPS fix count (paper: 250 M).
	SpatialN int
	// TPCHSF is the executed TPC-H scale factor (paper: SF-10).
	TPCHSF float64
	// Threads used for CPU-side work.
	Threads int
	Seed    int64
}

// Paper-scale constants.
const (
	PaperMicroN   = 100_000_000
	PaperSpatialN = 250_000_000
	PaperTPCHSF   = 10.0
	// MicroDomain is the microbenchmark value domain (0 .. 100 M), kept at
	// paper scale regardless of the executed row count so that bit-width
	// effects (Fig 8c) are undistorted.
	MicroDomain = 100_000_000
)

// Defaults returns options sized for interactive runs (a few seconds per
// figure).
func Defaults() Options {
	return Options{MicroN: 4_000_000, SpatialN: 2_000_000, TPCHSF: 0.02, Threads: 1, Seed: 7}
}

// Quick returns options sized for the test suite.
func Quick() Options {
	return Options{MicroN: 400_000, SpatialN: 200_000, TPCHSF: 0.002, Threads: 1, Seed: 7}
}

// Series is one labelled line of a figure.
type Series struct {
	Label string    `json:"label"`
	X     []float64 `json:"x"`
	Y     []float64 `json:"y"` // milliseconds unless the figure says otherwise
}

// Bar is one labelled bar with the per-device breakdown of Figs 9/10.
type Bar struct {
	Label string  `json:"label"`
	Total float64 `json:"total_seconds"`
	GPU   float64 `json:"gpu_seconds"`
	CPU   float64 `json:"cpu_seconds"`
	PCI   float64 `json:"pci_seconds"`
}

// Figure is a reproduced chart: line series (Fig 8, 11) or bars (Fig 9,
// 10). The JSON names are the -json report schema.
type Figure struct {
	ID     string   `json:"id"`
	Title  string   `json:"title"`
	XLabel string   `json:"x_label,omitempty"`
	YLabel string   `json:"y_label,omitempty"`
	Series []Series `json:"series,omitempty"`
	Bars   []Bar    `json:"bars,omitempty"`
	Notes  []string `json:"notes,omitempty"`
}

// Render formats the figure as text tables for terminal output.
func (f *Figure) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", f.ID, f.Title)
	if len(f.Series) > 0 {
		fmt.Fprintf(&sb, "%-28s", f.XLabel+" \\ "+f.YLabel)
		for _, s := range f.Series {
			fmt.Fprintf(&sb, "%22s", s.Label)
		}
		sb.WriteByte('\n')
		for i := range f.Series[0].X {
			fmt.Fprintf(&sb, "%-28.6g", f.Series[0].X[i])
			for _, s := range f.Series {
				if i < len(s.Y) {
					fmt.Fprintf(&sb, "%22.3f", s.Y[i])
				} else {
					fmt.Fprintf(&sb, "%22s", "-")
				}
			}
			sb.WriteByte('\n')
		}
	}
	if len(f.Bars) > 0 {
		fmt.Fprintf(&sb, "%-28s %12s %12s %12s %12s\n", "configuration", "total s", "GPU s", "CPU s", "PCI s")
		for _, b := range f.Bars {
			fmt.Fprintf(&sb, "%-28s %12.3f %12.3f %12.3f %12.3f\n", b.Label, b.Total, b.GPU, b.CPU, b.PCI)
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// seriesY finds a series by label (test helper).
func (f *Figure) seriesY(label string) []float64 {
	for _, s := range f.Series {
		if s.Label == label {
			return s.Y
		}
	}
	return nil
}

// bar finds a bar by label (test helper).
func (f *Figure) bar(label string) *Bar {
	for i := range f.Bars {
		if f.Bars[i].Label == label {
			return &f.Bars[i]
		}
	}
	return nil
}

func ms(seconds float64) float64 { return seconds * 1000 }
