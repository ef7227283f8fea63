package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// spread is the distance between the first and third quartile as a share of
// the median — quartiles as Python's statistics.quantiles(xs, n=4) gives
// them, so the figure matches the one the bounds were derived from. 0 with
// fewer than two values.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	quart := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		d := float64(i*m - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (quart(3) - quart(1)) / med
}

// diffFiles compares the end-to-end metrics of two result files, workload by
// workload, against the bounds of BENCHMARK.json. A metric is `regressed`
// when the new median is worse than the old by more than its bound,
// `unresolved` when either side's own run-to-run spread exceeds the bound (so
// the comparison cannot tell), and `ok` otherwise. Every ratio is printed
// with its base. Exit code 1 on any regression or failed operation.
func diffFiles(stdout io.Writer, sp *spec, oldPath, newPath string) int {
	sides := [2]map[string]map[string][]float64{}
	failed := [2]map[string]int{}
	for i, path := range []string{oldPath, newPath} {
		raw, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		var file resultFile
		if err := json.Unmarshal(raw, &file); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", path, err)
			return 1
		}
		sides[i], failed[i] = map[string]map[string][]float64{}, map[string]int{}
		for _, r := range file.Runs {
			if r.Trace {
				continue
			}
			if sides[i][r.Workload] == nil {
				sides[i][r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				sides[i][r.Workload][name] = append(sides[i][r.Workload][name], m.Value)
			}
			failed[i][r.Workload] += r.Failed
		}
	}
	code := 0
	fmt.Fprintf(stdout, "%-13s %-20s %12s %12s %8s %18s %6s %6s  %s\n",
		"workload", "metric", "parent", "new", "change", "ratio (base)", "spread", "bound", "verdict")
	for _, w := range sp.Workloads {
		for side, path := range []string{oldPath, newPath} {
			if n := failed[side][w.Name]; n > 0 {
				fmt.Fprintf(stdout, "%-13s %d failed operations in %s\n", w.Name, n, path)
				code = 1
			}
		}
		for _, m := range sp.EndToEnd {
			olds, news := sides[0][w.Name][m.Name], sides[1][w.Name][m.Name]
			if len(olds) == 0 || len(news) == 0 {
				fmt.Fprintf(stdout, "%-13s %-20s missing on one side\n", w.Name, m.Name)
				code = 1
				continue
			}
			parent, cur := median(olds), median(news)
			worse := (cur - parent) / parent
			if m.Better == "higher" {
				worse = -worse
			}
			noise := max(spread(olds), spread(news))
			verdict := "ok"
			switch {
			case noise > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				code = 1
			}
			fmt.Fprintf(stdout, "%-13s %-20s %12.5g %12.5g %+7.1f%% %8.3fx (%.5g) %5.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, parent, cur, 100*(cur-parent)/parent, cur/parent, parent, 100*noise, 100*m.Bound, verdict)
		}
	}
	return code
}
