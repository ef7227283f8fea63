// Package shard horizontally partitions a fact table into N independent
// store.Tables. Fig 11's memory-wall argument bounds a single co-processor's
// throughput by the contention on one device's transfer budget; the way past
// one device's wall is N partitions with N independent device streams.
//
// A partitioned table is a thin wrapper: the partition spec (hash or range
// on one column) plus N ordinary store.Tables named <table>.p<i>. Every
// partition keeps its own immutable bit-sliced base, its own delta and
// deletion bitmap, its own merge threshold/lifecycle, its own WAL checkpoint
// LSN and segment file, and — during execution — its own simulated device
// stream. Nothing below this package knows about partitions: kernels,
// merges, checkpoints and segments all operate on plain tables.
//
// Routing is deterministic and data-independent (it depends only on the
// spec and the routed value), so WAL replay re-routes inserts identically
// and a partitioned table rebuilt from its log is bit-identical to the
// original.
package shard

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"sync"

	"repro/internal/store"
)

// Kind selects the partitioning function.
type Kind int

const (
	// Hash spreads rows by a multiplicative hash of the column value:
	// uniform placement regardless of the value distribution.
	Hash Kind = iota
	// Range splits the column's signed 64-bit domain into N equal-width,
	// order-preserving stripes — the natural choice for the anchor column,
	// where range predicates then touch a subset of partitions.
	Range
)

func (k Kind) String() string {
	switch k {
	case Hash:
		return "hash"
	case Range:
		return "range"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind parses "hash" or "range".
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "hash":
		return Hash, nil
	case "range":
		return Range, nil
	default:
		return Hash, fmt.Errorf("shard: unknown partition kind %q (hash, range)", s)
	}
}

// MaxPartitions bounds the fan-out: each partition costs a table, a device
// stream, a WAL checkpoint horizon and a segment file, so an absurd count
// is almost certainly a typo.
const MaxPartitions = 1024

// Spec declares how a table is partitioned.
type Spec struct {
	Kind Kind
	Col  string // the partitioning column
	N    int    // number of partitions, >= 1
}

// Validate rejects malformed specs.
func (s Spec) Validate() error {
	if s.Col == "" {
		return fmt.Errorf("shard: partition column must be named")
	}
	if s.N < 1 {
		return fmt.Errorf("shard: PARTITIONS %d: need at least 1", s.N)
	}
	if s.N > MaxPartitions {
		return fmt.Errorf("shard: PARTITIONS %d exceeds the maximum of %d", s.N, MaxPartitions)
	}
	if s.Kind != Hash && s.Kind != Range {
		return fmt.Errorf("shard: unknown partition kind %d", int(s.Kind))
	}
	return nil
}

func (s Spec) String() string {
	return fmt.Sprintf("partition by %s(%s) partitions %d", s.Kind, s.Col, s.N)
}

// fibMul is the 64-bit Fibonacci-hashing multiplier (2^64 / phi, odd).
const fibMul = 0x9E3779B97F4A7C15

// Route returns the partition index for a column value.
func (s Spec) Route(v int64) int {
	if s.N <= 1 {
		return 0
	}
	switch s.Kind {
	case Range:
		// Bias the signed value into unsigned order, then take the high
		// word of u*N — an order-preserving map of the full 64-bit domain
		// onto N equal-width stripes with no division and no overflow.
		u := uint64(v) ^ (1 << 63)
		hi, _ := bits.Mul64(u, uint64(s.N))
		return int(hi)
	default:
		return int((uint64(v) * fibMul) % uint64(s.N))
	}
}

// Slab inverts Range routing: the closed interval [lo, hi] of column
// values that Route maps onto partition i. Filters on the partitioning
// column that exclude a whole slab let the planner skip that partition
// before scattering. ok is false for Hash specs (no contiguous value
// interval routes to one hash partition) and out-of-range indices.
func (s Spec) Slab(i int) (lo, hi int64, ok bool) {
	if s.Kind != Range || i < 0 || i >= s.N {
		return 0, 0, false
	}
	if s.N == 1 {
		return math.MinInt64, math.MaxInt64, true
	}
	// Route sends biased value u to int((u*N) >> 64), so partition i
	// owns u in [ceil(i*2^64/N), ceil((i+1)*2^64/N) - 1]; Div64(k, 0, N)
	// computes floor(k*2^64/N) exactly.
	n := uint64(s.N)
	ceilDiv := func(k uint64) uint64 {
		q, r := bits.Div64(k, 0, n)
		if r > 0 {
			q++
		}
		return q
	}
	loU := ceilDiv(uint64(i))
	hiU := ^uint64(0)
	if i < s.N-1 {
		hiU = ceilDiv(uint64(i+1)) - 1
	}
	return int64(loU ^ (1 << 63)), int64(hiU ^ (1 << 63)), true
}

// PartName returns the store.Table name of partition i: <table>.p<i>.
// Segment files derive from this name unchanged (<table>.p<i>.<lsn>.seg),
// so each partition checkpoints independently.
func PartName(table string, i int) string {
	return table + ".p" + strconv.Itoa(i)
}

// Partitioned binds a spec to its resolved partition tables. Partition 0 is
// the schema authority: all partitions are created from one column list and
// DDL (decompose, FK refusal) fans out to every partition, so the schemas
// never diverge.
type Partitioned struct {
	Name   string
	Spec   Spec
	Parts  []*store.Table
	colIdx int // index of Spec.Col in the shared schema

	// Fence is the statement fence. Every partition publishes its own
	// snapshots, so an INSERT or DELETE touching several of them becomes
	// visible one partition at a time; the writer holds Fence exclusively
	// around those in-memory publications (never across a log write) and a
	// reader holds it shared around loading the N snapshots it pins, so a
	// scatter sees all of the statement or none of it. A statement touching
	// one partition publishes atomically already and takes no fence.
	Fence sync.RWMutex
}

// NewPartitioned wraps spec and its partition tables, resolving the routing
// column against the shared schema.
func NewPartitioned(name string, spec Spec, parts []*store.Table) (*Partitioned, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(parts) != spec.N {
		return nil, fmt.Errorf("shard: %s declares %d partitions but has %d tables", name, spec.N, len(parts))
	}
	idx, err := parts[0].ColIndex(spec.Col)
	if err != nil {
		return nil, fmt.Errorf("shard: %s: partition column %s is not in the schema", name, spec.Col)
	}
	return &Partitioned{Name: name, Spec: spec, Parts: parts, colIdx: idx}, nil
}

// Schema returns the shared schema (partition 0's).
func (p *Partitioned) Schema() *store.Table { return p.Parts[0] }

// Route returns the partition index for one row.
func (p *Partitioned) Route(row []int64) int {
	if p.colIdx >= len(row) {
		return 0
	}
	return p.Spec.Route(row[p.colIdx])
}

// Split groups rows by destination partition, preserving the input order
// within each partition — WAL replay re-splits identically. The groups are
// windows of one array: rows are routed once to count, once to place.
func (p *Partitioned) Split(rows [][]int64) [][][]int64 {
	out := make([][][]int64, p.Spec.N)
	counts := make([]int, p.Spec.N)
	for _, row := range rows {
		counts[p.Route(row)]++
	}
	placed, at := make([][]int64, len(rows)), 0
	for i, n := range counts {
		out[i] = placed[at : at : at+n]
		at += n
	}
	for _, row := range rows {
		i := p.Route(row)
		out[i] = append(out[i], row)
	}
	return out
}

// Len returns the total live row count across partitions.
func (p *Partitioned) Len() int {
	n := 0
	for _, t := range p.Parts {
		n += t.Len()
	}
	return n
}
