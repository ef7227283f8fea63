package main

import (
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// hostProbe measures how fast this host is running right now, so that
// timings taken on a shared machine can be compared at all.
//
// The sandbox this benchmark was written on shares its memory system with
// other tenants. A loop that streams through 2 MB takes between 1× and 1.65×
// its best time depending on what the neighbours do, in regimes that last
// from seconds to ten minutes, while a loop that stays in registers does not
// move; the server's CPU per statement follows at about half the streaming
// loop's swing on every workload (README, "Measured spread"). Ten runs
// straddling two regimes differ by 30–40 % with nothing changed.
//
// The probe is a fixed piece of work of that mixed kind — half register
// arithmetic, half streaming, by time on a quiet host — run every 50 ms on a
// thread of its own and timed in that thread's CPU time, which a busy guest
// scheduler does not stretch. Every timing metric is reported twice: as
// measured (`raw.*`), and scaled by refProbeUS ÷ the probe's median time
// while the metric was being taken, which is the figure that carries a
// bound. Counts are not scaled. The probe costs about 1 % of one CPU, the
// same on both sides of any comparison.
type hostProbe struct {
	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	at      []time.Time
	probeUS []float64
}

// refProbeUS is the probe time the adjusted metrics are scaled to: this
// host's on a quiet evening. A constant, so that numbers from different runs,
// commits and days share one scale.
const refProbeUS = 500

const (
	probeSteps = 140_000 // register arithmetic: one multiply-add chain
	probeWords = 1 << 18 // streaming: 2 MB of uint64, read twice
)

func startProbe() *hostProbe {
	p := &hostProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		// Thread CPU time is only this goroutine's if the thread is.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		buf := make([]uint64, probeWords)
		x := uint64(1)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			t0 := threadCPU()
			for i := 0; i < probeSteps; i++ {
				x = x*6364136223846793005 + 1442695040888963407
			}
			for pass := 0; pass < 2; pass++ {
				for _, w := range buf {
					x += w
				}
			}
			d := threadCPU() - t0
			buf[x%probeWords] = x // keeps the work from being optimised away
			p.mu.Lock()
			p.at = append(p.at, time.Now())
			p.probeUS = append(p.probeUS, float64(d)/1e3)
			p.mu.Unlock()
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

func (p *hostProbe) close() {
	close(p.stop)
	<-p.done
}

// threadCPU is the CPU time the calling thread has used, to the nanosecond:
// clock_gettime(CLOCK_THREAD_CPUTIME_ID). (getrusage counts in scheduler
// ticks here, 20 probes to the tick.) The call cannot fail with these
// arguments.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// scale is refProbeUS ÷ the median probe time between from and to: what a
// duration measured in that interval is multiplied by to read as on the
// reference host (and a rate divided by). 1 if the interval saw no sample.
func (p *hostProbe) scale(from, to time.Time) float64 {
	p.mu.Lock()
	var in []float64
	for i, t := range p.at {
		if !t.Before(from) && t.Before(to) {
			in = append(in, p.probeUS[i])
		}
	}
	p.mu.Unlock()
	if len(in) == 0 {
		return 1
	}
	slices.Sort(in)
	return refProbeUS / quantile(in, 0.5)
}
