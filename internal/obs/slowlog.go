package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// SlowEntry is one retained slow query: the statement, its route, when it
// ran, its wall-clock and simulated durations, and the full stage trace.
type SlowEntry struct {
	Query string        `json:"query"`
	Route string        `json:"route"`
	When  time.Time     `json:"when"`
	Wall  time.Duration `json:"wall_ns"`
	Sim   time.Duration `json:"sim_ns"`
	Trace *Trace        `json:"trace,omitempty"`
}

// SlowLog is a fixed-capacity ring buffer of the most recent queries whose
// wall-clock latency crossed the threshold. A zero threshold disables
// logging. The threshold is read on the hot path with one atomic load, so
// a disabled log costs one branch per query.
type SlowLog struct {
	threshold atomic.Int64 // nanoseconds; 0 = off

	mu   sync.Mutex
	buf  []SlowEntry
	next int   // ring write position
	n    int   // live entries (<= cap)
	seen int64 // total entries ever noted (including overwritten)
}

// SlowLogSize is the capacity of an engine's slow-query ring buffer.
const SlowLogSize = 16

// NewSlowLog returns a log retaining up to capacity entries (minimum 1).
func NewSlowLog(capacity int) *SlowLog {
	if capacity < 1 {
		capacity = 1
	}
	return &SlowLog{buf: make([]SlowEntry, capacity)}
}

// Threshold returns the current threshold (0 = disabled).
func (l *SlowLog) Threshold() time.Duration {
	return time.Duration(l.threshold.Load())
}

// SetThreshold sets the threshold; 0 disables the log (entries are kept).
func (l *SlowLog) SetThreshold(d time.Duration) {
	if d < 0 {
		d = 0
	}
	l.threshold.Store(int64(d))
}

// Enabled reports whether queries should be traced for the log.
func (l *SlowLog) Enabled() bool { return l.threshold.Load() > 0 }

// Note records e if the log is enabled and e.Wall crosses the threshold.
// It reports whether the entry was retained.
func (l *SlowLog) Note(e SlowEntry) bool {
	t := l.threshold.Load()
	if t <= 0 || int64(e.Wall) < t {
		return false
	}
	l.mu.Lock()
	l.buf[l.next] = e
	l.next = (l.next + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.seen++
	l.mu.Unlock()
	return true
}

// Seen returns the total number of entries ever noted.
func (l *SlowLog) Seen() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seen
}

// Entries returns the retained entries, newest first.
func (l *SlowLog) Entries() []SlowEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowEntry, 0, l.n)
	for i := 1; i <= l.n; i++ {
		out = append(out, l.buf[(l.next-i+len(l.buf))%len(l.buf)])
	}
	return out
}

// Lines renders the log for the \slow meta command: a header with the
// threshold and retention, then each entry's summary and stage trace.
func (l *SlowLog) Lines() []string {
	entries := l.Entries()
	out := []string{fmt.Sprintf("slow-query log: threshold %s, %d retained (%d total, capacity %d)",
		l.Threshold(), len(entries), l.Seen(), len(l.buf))}
	for i, e := range entries {
		out = append(out, fmt.Sprintf("%d. [%s] wall %s sim %s: %s",
			i+1, e.Route, round(e.Wall), round(e.Sim), e.Query))
		if e.Trace != nil {
			out = append(out, e.Trace.Render()...)
		}
	}
	return out
}
