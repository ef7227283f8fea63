package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// target is one running copy of the program under test.
type target struct {
	addr    string
	pid     int
	started time.Time // just before exec
	ready   time.Time // when it first accepted a connection
	banner  []string  // stdout lines up to "listening" (holds the recovery report)
	kill    func()    // SIGKILL and wait until the process has ended
}

// launcher starts the program with the given flags (besides -addr). The
// end-to-end driver only ever sees a launcher, so the test can hand it a stub.
type launcher func(flags []string) (*target, error)

// buildArserve compiles cmd/arserve from the checkout into bench/out.
func buildArserve(root string) (string, error) {
	bin := filepath.Join(root, "bench", "out", "arserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/arserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/arserve: %v\n%s", err, out)
	}
	return bin, nil
}

func arserveLauncher(bin string) launcher {
	return func(flags []string) (*target, error) {
		// arserve prints the -addr it was given, not the bound address, so
		// the port is chosen here: bind :0, note the port, release it.
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr := l.Addr().String()
		l.Close()

		cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
		// If the benchmark itself is killed, the child must not outlive it.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		s := &target{addr: addr, started: time.Now()}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		s.pid = cmd.Process.Pid
		drained := make(chan struct{})
		s.kill = func() {
			cmd.Process.Kill()
			<-drained // Wait closes the pipe, so the reader must finish first
			cmd.Wait()
		}
		lines := bufio.NewScanner(stdout)
		for lines.Scan() {
			s.banner = append(s.banner, lines.Text())
			if strings.HasPrefix(lines.Text(), "arserve: listening on") {
				break
			}
		}
		go func() {
			defer close(drained)
			for lines.Scan() {
			}
		}()
		// The line is printed just before the socket is bound, so the first
		// connection may have to be tried a few times — until the child's
		// stdout closes, which means it has exited.
		for exited := false; !exited; {
			if c, err := net.Dial("tcp", addr); err == nil {
				c.Close()
				s.ready = time.Now()
				return s, nil
			}
			select {
			case <-drained:
				exited = true
			case <-time.After(time.Millisecond):
			}
		}
		s.kill()
		return nil, fmt.Errorf("arserve %v exited without accepting a connection: %s", flags, strings.TrimSpace(stderr.String()))
	}
}

// cpuSeconds is the user+system CPU time the process has consumed so far.
func cpuSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is the first, utime
	// and stime the 12th and 13th, in clock ticks (USER_HZ, 100 on Linux).
	f := strings.Fields(string(raw[bytes.LastIndexByte(raw, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	return (utime + stime) / 100, nil
}

// rssPeakMB is the process's resident-set high-water mark (VmHWM).
func rssPeakMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: bad VmHWM %q", pid, rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// counters is one scrape of the program's own counters: every series of the
// `\metrics` Prometheus text keyed by its full name (labels included), plus
// the one figure only `\stats` prints.
type counters map[string]float64

const fullRedecompBytes = "stats:full_redecomposition_bytes"

func scrape(c *client) (counters, error) {
	out := counters{}
	text, err := c.query(`\metrics`)
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	stats, err := c.query(`\stats`)
	if err != nil {
		return nil, err
	}
	if _, rest, ok := strings.Cut(stats, "(full re-decomposition "); ok {
		num, _, _ := strings.Cut(rest, " B)")
		out[fullRedecompBytes], _ = strconv.ParseFloat(num, 64)
	}
	return out, nil
}

// sumPrefix adds up every series whose name starts with prefix.
func (c counters) sumPrefix(prefix string) float64 {
	var s float64
	for name, v := range c {
		if strings.HasPrefix(name, prefix) {
			s += v
		}
	}
	return s
}
