// Package mem is the morsel-scratch arena underneath the CPU kernel
// layers: size-classed, sync.Pool-backed buffers for position lists,
// candidate codes, selection vectors and group scratch, plus a per-worker
// bump-allocated Scratch that morsel loops reuse across the morsels one
// worker claims.
//
// The paper's thesis — eliminate waste by touching only the bits a query
// needs — is applied here to transient host memory: without the arena,
// every morsel of every query allocates fresh slices and GC pressure grows
// linearly with traffic. With it, the hot kernels run at zero allocations
// per operation in steady state.
//
// Ownership discipline (DESIGN.md §13):
//
//   - a kernel that returns a pooled buffer transfers ownership to its
//     caller; whoever consumes the buffer (filters it away, merges it into
//     another) releases it with Put;
//   - losing a pooled buffer is always safe — it is an ordinary heap slice
//     and the GC reclaims it; the pool just misses later. The only invalid
//     move is releasing a buffer something still references;
//   - Scratch buffers are valid only until the worker's next morsel: they
//     must never escape the morsel callback;
//   - buffers handed to the user (result rows) and snapshot-owned storage
//     are never pooled.
//
// SetPooling(false) turns every Get into a plain make and every Put into a
// no-op, which is how the equivalence property tests prove pooled and
// unpooled executions byte-identical.
package mem

import (
	"sync"
	"sync/atomic"
)

// Size classes are powers of two from 1<<minClassBits to 1<<maxClassBits
// elements. Requests above the largest class fall through to plain make
// (and count as misses); tiny requests round up to the smallest class.
const (
	minClassBits = 6  // 64 elements
	maxClassBits = 21 // 2M elements — covers the largest morsel outputs
	nClasses     = maxClassBits - minClassBits + 1
)

var pooling atomic.Bool

func init() { pooling.Store(true) }

// SetPooling toggles the arena globally and returns the previous setting.
// The equivalence tests run both settings and require byte-identical
// results and bit-identical meters.
func SetPooling(on bool) bool { return pooling.Swap(on) }

// PoolStats counts arena traffic: Gets served (Hits from a pool, Misses
// falling through to make) and Puts accepted back.
type PoolStats struct {
	Hits, Misses, Puts uint64
}

var stats struct {
	hits, misses, puts atomic.Uint64
}

// Stats returns the process-wide arena counters.
func Stats() PoolStats {
	return PoolStats{
		Hits:   stats.hits.Load(),
		Misses: stats.misses.Load(),
		Puts:   stats.puts.Load(),
	}
}

// classFor returns the smallest class whose capacity holds n, or -1 when n
// exceeds the largest class.
func classFor(n int) int {
	c := 0
	for n > 1<<(minClassBits+c) {
		c++
		if c >= nClasses {
			return -1
		}
	}
	return c
}

// putClassFor returns the largest class whose capacity is <= c (so a
// recycled buffer always satisfies the Gets of its class), or -1 when the
// buffer is too small to pool.
func putClassFor(c int) int {
	k := -1
	for i := 0; i < nClasses; i++ {
		if c >= 1<<(minClassBits+i) {
			k = i
		}
	}
	return k
}

// box carries a slice through a sync.Pool. Boxes themselves are pooled so
// the Get/Put cycle allocates nothing in steady state: Get frees its box
// into the box pool, Put takes one back.
type box[T any] struct{ s []T }

// Pool is a size-classed free list of []T buffers. The zero value is ready
// to use; distinct element types declare their own package-level instance.
type Pool[T any] struct {
	classes [nClasses]sync.Pool
	boxes   sync.Pool
}

// Get returns a buffer with len 0 and cap >= n. The contents of the
// underlying array are unspecified — callers must append or overwrite.
func (p *Pool[T]) Get(n int) []T {
	if n < 0 {
		n = 0
	}
	c := classFor(n)
	if c < 0 || !pooling.Load() {
		stats.misses.Add(1)
		return make([]T, 0, n)
	}
	if b, ok := p.classes[c].Get().(*box[T]); ok {
		s := b.s[:0]
		b.s = nil
		p.boxes.Put(b)
		stats.hits.Add(1)
		return s
	}
	stats.misses.Add(1)
	return make([]T, 0, 1<<(minClassBits+c))
}

// GetN returns a buffer of len n (cap >= n) with unspecified contents.
func (p *Pool[T]) GetN(n int) []T {
	return p.Get(n)[:n]
}

// Put recycles a buffer. The caller must not touch s afterwards; nothing
// may still reference it. Buffers that are nil, too small, or oversized
// for the class table are dropped for the GC.
func (p *Pool[T]) Put(s []T) {
	if !pooling.Load() {
		return
	}
	c := putClassFor(cap(s))
	if c < 0 {
		return
	}
	b, ok := p.boxes.Get().(*box[T])
	if !ok {
		b = new(box[T])
	}
	b.s = s[:0]
	p.classes[c].Put(b)
	stats.puts.Add(1)
}

// Shared pools for the element types the kernel layers traffic in.
// Packages with their own element types (e.g. bat.OID) declare their own
// Pool instance next to the type.
var (
	U64   Pool[uint64] // candidate codes, bit-packed decode scratch
	I64   Pool[int64]  // values, aggregate partials
	Ints  Pool[int]    // selection vectors, morsel counts
	U32   Pool[uint32] // tuple IDs
	Bools Pool[bool]   // FK-probe hit flags
)

// Scratch is one worker's morsel-local scratch: a bump allocator over
// typed backing arrays that is reset at every morsel and pooled across
// queries. Buffers carved from it are valid only until the next Reset —
// they must never escape the morsel callback that took them.
type Scratch struct {
	u64  []uint64
	u64n int
	i64  []int64
	i64n int
	ints []int
	intn int
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch takes a worker scratch from the pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns a worker scratch to the pool.
func PutScratch(s *Scratch) {
	s.Reset()
	scratchPool.Put(s)
}

// Reset invalidates every buffer previously carved from the scratch.
func (s *Scratch) Reset() { s.u64n, s.i64n, s.intn = 0, 0, 0 }

// U64 carves n uint64s with unspecified contents.
func (s *Scratch) U64(n int) []uint64 {
	if s.u64n+n > len(s.u64) {
		grown := make([]uint64, growTo(s.u64n+n))
		copy(grown, s.u64[:s.u64n])
		s.u64 = grown
	}
	out := s.u64[s.u64n : s.u64n+n]
	s.u64n += n
	return out
}

// I64 carves n int64s with unspecified contents.
func (s *Scratch) I64(n int) []int64 {
	if s.i64n+n > len(s.i64) {
		grown := make([]int64, growTo(s.i64n+n))
		copy(grown, s.i64[:s.i64n])
		s.i64 = grown
	}
	out := s.i64[s.i64n : s.i64n+n]
	s.i64n += n
	return out
}

// Ints carves n ints with unspecified contents.
func (s *Scratch) Ints(n int) []int {
	if s.intn+n > len(s.ints) {
		grown := make([]int, growTo(s.intn+n))
		copy(grown, s.ints[:s.intn])
		s.ints = grown
	}
	out := s.ints[s.intn : s.intn+n]
	s.intn += n
	return out
}

// growTo rounds a scratch backing array up to the next power of two so
// repeated carves converge instead of reallocating per morsel.
func growTo(n int) int {
	c := 1 << minClassBits
	for c < n {
		c <<= 1
	}
	return c
}
