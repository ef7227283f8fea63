// Command bench is the repository's one benchmark: SQL text in over TCP to
// the real cmd/arserve binary, rows out, measured from outside the program;
// plus a per-layer breakdown taken around each layer's public surface. See
// README.md in this directory for every workload and metric by name.
//
//	go run -C bench . --workload scan_range --seed 1 --seconds 12 --trace 0
//	go run -C bench .                        # all workloads, both passes
//	go run -C bench . -diff old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// resultFile is the one result schema: who measured, and every run made.
// Each invocation appends its runs, so ten invocations give -diff ten values
// per metric to take a median and a spread from.
type resultFile struct {
	Host hostInfo    `json:"host"`
	Runs []runRecord `json:"runs"`
}

type hostInfo struct {
	CPU    string `json:"cpu"`
	NProc  int    `json:"nproc"`
	Go     string `json:"go"`
	GitSHA string `json:"git_sha"`
}

type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Quick    bool    `json:"quick"`
	// Counts are the fixed sizes behind the run: connections, warm-up
	// statements per connection, latencies sampled, statements the layer run
	// replayed.
	Counts map[string]int `json:"counts"`
	report
}

// report is the object printed as the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, nil)) }

// run is main with its outputs as parameters. launch nil means: build
// cmd/arserve and start that.
func run(args []string, stdout io.Writer, launch launcher) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run (default: all of BENCHMARK.json, end-to-end pass then layer pass)")
		seed    = fs.Int64("seed", 1, "seed of the generated statements and rows")
		seconds = fs.Float64("seconds", 0, "length of the measured phase (default: run_seconds of BENCHMARK.json)")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics, nothing attached; 1: per-layer metrics (counter scrapes, layer run, spans)")
		quick   = fs.Bool("quick", false, "small tables and counts, for the test; the numbers mean nothing")
		out     = fs.String("out", "", "result file to append to (default: bench/out/result.json)")
		diff    = fs.Bool("diff", false, "compare two result files: -diff old.json new.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	root, err := findRoot()
	if err != nil {
		return fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		return fatal(err)
	}
	if *diff {
		if fs.NArg() != 2 {
			return fatal(fmt.Errorf("usage: -diff old.json new.json"))
		}
		return diffFiles(stdout, sp, fs.Arg(0), fs.Arg(1))
	}
	if *seconds == 0 {
		*seconds = float64(sp.RunSeconds)
	}
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fatal(err)
	}
	if *out == "" {
		*out = filepath.Join(outDir, "result.json")
	}
	if launch == nil {
		bin, err := buildArserve(root)
		if err != nil {
			return fatal(err)
		}
		launch = arserveLauncher(bin)
	}

	type pass struct {
		workload string
		trace    bool
	}
	var passes []pass
	if *name != "" {
		passes = []pass{{*name, *trace != 0}}
	} else {
		for _, w := range sp.Workloads {
			passes = append(passes, pass{w.Name, false}, pass{w.Name, true})
		}
	}
	code := 0
	for _, p := range passes {
		rec, err := runPass(sp, launch, p.workload, p.trace, *seed, *seconds, *quick, outDir)
		if err != nil {
			return fatal(fmt.Errorf("%s: %w", p.workload, err))
		}
		if err := appendResult(*out, root, *rec); err != nil {
			return fatal(err)
		}
		listed := sp.EndToEnd
		if p.trace {
			listed = sp.PerLayer
		}
		for _, m := range listed {
			fmt.Fprintf(stdout, "%s %s %v %s\n", p.workload, m.Name, rec.Metrics[m.Name].Value, m.Unit)
		}
		fmt.Fprintf(stdout, "%s samples %d count\n", p.workload, rec.Counts["samples"])
		line, err := json.Marshal(rec.report)
		if err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !rec.Correct {
			code = 1
		}
	}
	return code
}

// runPass makes one run of one workload: the end-to-end pass, or — with
// trace — the layer pass, which repeats the end-to-end drive with the
// counter scrapes and the maintenance probe attached and then replays the
// head of the sequence layer by layer in process.
func runPass(sp *spec, launch launcher, name string, trace bool, seed int64, seconds float64, quick bool, outDir string) (*runRecord, error) {
	w, err := newWorkload(name, seed, quick)
	if err != nil {
		return nil, err
	}
	// setup_s is the median of three set-ups; the layer pass does not report
	// it and sets up once.
	cfg := runConfig{seconds: seconds, setups: 3, trace: trace, outDir: outDir, checks: 200}
	if trace || quick {
		cfg.setups = 1
	}
	e2e, err := runE2E(w, launch, cfg)
	if err != nil {
		return nil, err
	}
	for _, f := range e2e.failures {
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %s\n", name, f)
	}
	listed := sp.EndToEnd
	if trace {
		listed = sp.PerLayer
		if err := runLayers(w, e2e.values, filepath.Join(outDir, name+".spans.jsonl"), filepath.Join(outDir, "layer-"+name)); err != nil {
			return nil, fmt.Errorf("layer run: %w", err)
		}
	}
	rec := &runRecord{
		Workload: name, Seed: seed, Seconds: seconds, Trace: trace, Quick: quick,
		Counts: map[string]int{"conns": conns, "warmup_per_conn": w.warmup, "samples": e2e.samples, "layer_k": w.layerK},
		report: report{
			Correct:   e2e.failed == 0,
			Attempted: e2e.attempted,
			Failed:    e2e.failed,
			Metrics:   map[string]metricValue{},
		},
	}
	// Exactly the metrics BENCHMARK.json lists, in its units. One a workload
	// has nothing to say about (fsyncs on a read-only workload) reads 0; one
	// measured under a name the file does not know is a bug here or there.
	known := map[string]bool{}
	for _, m := range append(slices.Clone(sp.EndToEnd), sp.PerLayer...) {
		known[m.Name] = true
	}
	for name := range e2e.values {
		if !known[name] {
			return nil, fmt.Errorf("metric %s is measured but not listed in BENCHMARK.json", name)
		}
	}
	for _, m := range listed {
		rec.Metrics[m.Name] = metricValue{Value: e2e.values[m.Name], Unit: m.Unit}
	}
	return rec, nil
}

func appendResult(path, root string, rec runRecord) error {
	var file resultFile
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &file); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	file.Host = host(root)
	file.Runs = append(file.Runs, rec)
	raw, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func host(root string) hostInfo {
	h := hostInfo{CPU: "unknown", NProc: runtime.NumCPU(), Go: runtime.Version(), GitSHA: "unknown"}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if sha, err := cmd.Output(); err == nil {
		h.GitSHA = strings.TrimSpace(string(sha))
	}
	return h
}
