package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// lastLine parses the report the runner prints as its last line.
func lastLine(t *testing.T, out string) report {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var r report
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line is not a report: %v\n%s", err, out)
	}
	return r
}

// TestQuickRun drives every workload end to end at quick scale, both passes,
// against the real arserve: each must emit exactly the metrics BENCHMARK.json
// lists, fail nothing, write a result file that round-trips and a spans file
// that nests. It asserts no timing.
func TestQuickRun(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	result := filepath.Join(t.TempDir(), "result.json")
	for _, w := range sp.Workloads {
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			args := []string{"-quick", "-seconds", "1", "-workload", w.Name, "-trace", trace, "-out", result}
			if code := run(args, &out, nil); code != 0 {
				t.Fatalf("%s trace %s: exit code %d\n%s", w.Name, trace, code, out.String())
			}
			rep := lastLine(t, out.String())
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", w.Name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			listed := sp.EndToEnd
			if trace == "1" {
				listed = sp.PerLayer
			}
			if len(rep.Metrics) != len(listed) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(rep.Metrics), len(listed))
			}
			for _, m := range listed {
				if got, ok := rep.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s: got %+v (present %v), want unit %s", w.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
		checkSpansNest(t, filepath.Join(root, "bench", "out", w.Name+".spans.jsonl"))
	}

	raw, err := os.ReadFile(result)
	if err != nil {
		t.Fatal(err)
	}
	var file, again resultFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Runs) != 2*len(sp.Workloads) || file.Host.NProc < 1 || file.Host.Go == "" {
		t.Errorf("result file: %d runs, host %+v", len(file.Runs), file.Host)
	}
	reencoded, err := json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(reencoded, &again); err != nil || !reflect.DeepEqual(file, again) {
		t.Errorf("result file does not round-trip (err %v)", err)
	}

	// A file diffed against itself has no regression to report.
	var out bytes.Buffer
	if code := run([]string{"-diff", result, result}, &out, nil); code != 0 || strings.Contains(out.String(), "regressed") {
		t.Errorf("-diff of a file against itself: exit code %d\n%s", code, out.String())
	}
}

// checkSpansNest requires every span to hang off a span of its own trace,
// every trace to have one root, and the stages of an execution to lie
// inside it.
func checkSpansNest(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byTrace := map[int][]span{}
	lines := bufio.NewScanner(f)
	for lines.Scan() {
		var s span
		if err := json.Unmarshal(lines.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if s.EndNS < s.StartNS {
			t.Errorf("%s: span %+v ends before it starts", path, s)
		}
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
	}
	if len(byTrace) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	for id, spans := range byTrace {
		byName := map[string]span{}
		roots := 0
		for _, s := range spans {
			byName[s.Span] = s
			if s.Parent == "" {
				roots++
			}
		}
		if roots != 1 {
			t.Errorf("%s: trace %d has %d roots", path, id, roots)
		}
		for _, s := range spans {
			if s.Parent == "" {
				continue
			}
			parent, ok := byName[s.Parent]
			if !ok {
				t.Errorf("%s: trace %d: span %s has no parent %s", path, id, s.Span, s.Parent)
				continue
			}
			// Stage walls are printed rounded, a microsecond of slack each.
			slack := int64(len(spans)) * 1000
			if s.Parent == "plan.exec" && (s.StartNS < parent.StartNS-slack || s.EndNS > parent.EndNS+slack) {
				t.Errorf("%s: trace %d: stage %s [%d,%d] outside plan.exec [%d,%d]", path, id, s.Span, s.StartNS, s.EndNS, parent.StartNS, parent.EndNS)
			}
		}
	}
}

// stubLauncher stands in for arserve: it answers every range count with
// [7] — except that the classic executor gets the third one wrong.
func stubLauncher() launcher {
	return func([]string) (*target, error) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go func() {
			for {
				conn, err := l.Accept()
				if err != nil {
					return
				}
				go func() {
					defer conn.Close()
					classic, counts := false, 0
					in := bufio.NewScanner(conn)
					for in.Scan() {
						reply := "ok\n"
						switch line := in.Text(); {
						case line == `\mode classic`:
							classic = true
						case strings.HasPrefix(line, "select count"):
							counts++
							reply = "[7]\nok\n"
							if classic && counts == 3 {
								reply = "[8]\nok\n"
							}
						}
						if _, err := conn.Write([]byte(reply)); err != nil {
							return
						}
					}
				}()
			}
		}()
		now := time.Now()
		return &target{addr: l.Addr().String(), pid: os.Getpid(), started: now, ready: now, kill: func() { l.Close() }}, nil
	}
}

// TestWrongAnswerFails: one wrong count from the server must show as a
// failed operation and a non-zero exit.
func TestWrongAnswerFails(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-quick", "-seconds", "0.2", "-workload", "scan_range", "-out", filepath.Join(t.TempDir(), "result.json")}
	code := run(args, &out, stubLauncher())
	rep := lastLine(t, out.String())
	if code == 0 || rep.Correct || rep.Failed != 1 {
		t.Errorf("exit code %d, correct=%v, failed=%d; want non-zero, false, 1\n%s", code, rep.Correct, rep.Failed, out.String())
	}
}

// TestDiffVerdicts: a median worse by more than the bound is `regressed`
// and fails the command; a side noisier than the bound is `unresolved`.
func TestDiffVerdicts(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	// Every metric reads base on every run of every workload, except
	// stmt_per_s on the first workload, which reads the given values.
	write := func(name string, base float64, rates []float64) string {
		var file resultFile
		for _, w := range sp.Workloads {
			for _, rate := range rates {
				rec := runRecord{Workload: w.Name, report: report{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}}
				for _, m := range sp.EndToEnd {
					rec.Metrics[m.Name] = metricValue{Value: base, Unit: m.Unit}
				}
				if w.Name == sp.Workloads[0].Name {
					rec.Metrics["stmt_per_s"] = metricValue{Value: rate, Unit: "1/s"}
				}
				file.Runs = append(file.Runs, rec)
			}
		}
		raw, err := json.Marshal(file)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := write("old.json", 100, []float64{100, 101, 99, 100})
	slower := write("slower.json", 100, []float64{50, 51, 49, 50})
	noisy := write("noisy.json", 100, []float64{40, 100, 160, 220})
	for _, c := range []struct {
		new, verdict string
		code         int
	}{{steady, "ok", 0}, {slower, "regressed", 1}, {noisy, "unresolved", 0}} {
		var out bytes.Buffer
		code := run([]string{"-diff", steady, c.new}, &out, nil)
		var line string
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(l, sp.Workloads[0].Name) && strings.Contains(l, " stmt_per_s ") {
				line = l
			}
		}
		if code != c.code || !strings.HasSuffix(line, c.verdict) {
			t.Errorf("diff against %s: exit code %d, line %q; want %d, %s", filepath.Base(c.new), code, line, c.code, c.verdict)
		}
	}
}
