package main

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// analyzed is what the text of `\explain analyze` says about one execution.
// The format is the program's documented one (README "Observability"; CI
// greps it): a `trace:` header with the wall clock and the simulated device
// split, one line per operator tagged with its stage, and a candidate-funnel
// footer.
type analyzed struct {
	wall          time.Duration // header wall=
	gpu, cpu, pci time.Duration // header simulated split
	stages        []stageWall
	candidates    int64
	refined       int64
	estError      float64 // footer "(error X.Yx)"; 0 when the planner had no estimate
}

type stageWall struct {
	stage string // checkpoint class in the brackets: approximate, refine, ...
	op    string // operator name, e.g. bwd.uselectapproximate
	wall  time.Duration
}

var (
	traceHeader = regexp.MustCompile(`^trace: .* wall=(\S+) sim=\S+ \(GPU (\S+), CPU (\S+), PCI (\S+)\)`)
	stageLine   = regexp.MustCompile(`^\s+\[(\w+)\s*\] ([^ (]+).*\| wall (\S+) gpu `)
	funnelLine  = regexp.MustCompile(`^\s+candidates (\d+) -> refined (\d+)`)
	estErrorRE  = regexp.MustCompile(`\(error ([0-9.]+)x\)`)
)

// parseAnalyze reads the trace part of an `\explain analyze` reply. Stage
// labels are taken as they come: a label this file has never heard of is
// still a stage, and its time lands in plan.other_us.
func parseAnalyze(reply string) (*analyzed, error) {
	var a *analyzed
	for _, line := range strings.Split(reply, "\n") {
		if m := traceHeader.FindStringSubmatch(line); m != nil {
			a = &analyzed{}
			var errs [4]error
			a.wall, errs[0] = time.ParseDuration(m[1])
			a.gpu, errs[1] = time.ParseDuration(m[2])
			a.cpu, errs[2] = time.ParseDuration(m[3])
			a.pci, errs[3] = time.ParseDuration(m[4])
			for _, err := range errs {
				if err != nil {
					return nil, fmt.Errorf("trace header %q: %w", line, err)
				}
			}
			continue
		}
		if a == nil {
			continue // the plan listing precedes the trace
		}
		if m := stageLine.FindStringSubmatch(line); m != nil {
			wall, err := time.ParseDuration(m[3])
			if err != nil {
				return nil, fmt.Errorf("stage line %q: %w", line, err)
			}
			a.stages = append(a.stages, stageWall{m[1], m[2], wall})
		} else if m := funnelLine.FindStringSubmatch(line); m != nil {
			a.candidates, _ = strconv.ParseInt(m[1], 10, 64)
			a.refined, _ = strconv.ParseInt(m[2], 10, 64)
			if e := estErrorRE.FindStringSubmatch(line); e != nil {
				a.estError, _ = strconv.ParseFloat(e[1], 64)
			}
		}
	}
	if a == nil {
		return nil, fmt.Errorf("no `trace:` header in the reply")
	}
	return a, nil
}

// stageMetric maps a stage label to the layer that owns it and the metric
// its wall time adds to. Unknown labels belong to plan and add to
// plan.other_us, so a later change may add stages without editing this file.
func stageMetric(stage string) (layer, metric string) {
	switch stage {
	case "approximate":
		return "ar", "ar.approximate_us"
	case "ship":
		return "ar", "ar.ship_us"
	case "refine":
		return "ar", "ar.refine_us"
	case "bulk":
		return "bulk", "bulk.scan_us"
	case "aggregate":
		return "plan", "plan.aggregate_us"
	case "scatter":
		return "shard", "shard.scatter_leg_us"
	case "gather":
		return "shard", "shard.gather_us"
	case "delta":
		return "store", "store.delta_scan_us"
	}
	return "plan", "plan.other_us"
}
