// Package bat implements Binary Association Tables, the columnar storage
// substrate of the reproduced system (§V-C of the paper).
//
// A BAT is a pair of arrays mapping tuple IDs (the head) to attribute
// values (the tail). When the tuple IDs are dense — equi-distant and sorted,
// as in persistent attributes — they are inferred from the position in the
// array and not materialized; intermediate results carry materialized heads
// to keep approximations and residuals positionally aligned.
//
// The canonical tail value type is int64. Narrower physical types (the
// 32-bit integers of the benchmarks, dictionary codes, fixed-point
// decimals) declare their on-device width via the Width field, which is the
// number the device cost model charges for capacity and bandwidth; the Go
// in-memory representation is an implementation detail of the simulator.
package bat

import (
	"fmt"
	"sort"
)

// OID is a tuple identifier. MonetDB calls these "oids"; they are dense
// positions into the base table. 32 bits cover every data set in the paper
// (up to 250 M tuples) and match the candidate-list transfer sizes the cost
// model charges across the PCI-E bus.
type OID uint32

// Width constants for the physical tail value sizes used in the paper's
// workloads.
const (
	Width8  = 1 // dictionary codes, flags
	Width16 = 2
	Width32 = 4 // the benchmark integers, dates, fixed-point coordinates
	Width64 = 8
)

// BAT is a binary association table: head (tuple IDs) and tail (values).
type BAT struct {
	hseq  OID   // head seqbase when head is nil (dense head)
	head  []OID // nil => dense head starting at hseq
	tail  []int64
	width int // physical bytes per tail value (cost accounting)

	sorted bool // tail is non-decreasing
	key    bool // tail values are unique
}

// NewDense returns a BAT with a dense head starting at 0 over the given
// tail. The tail is used directly, not copied.
func NewDense(tail []int64, width int) *BAT {
	checkWidth(width)
	return &BAT{tail: tail, width: width}
}

// NewDenseAt is NewDense with an explicit head seqbase.
func NewDenseAt(hseq OID, tail []int64, width int) *BAT {
	checkWidth(width)
	return &BAT{hseq: hseq, tail: tail, width: width}
}

// NewMaterialized returns a BAT with an explicit (materialized) head.
// len(head) must equal len(tail); the slices are used directly.
func NewMaterialized(head []OID, tail []int64, width int) *BAT {
	checkWidth(width)
	if len(head) != len(tail) {
		panic(fmt.Sprintf("bat: head/tail length mismatch %d != %d", len(head), len(tail)))
	}
	return &BAT{head: head, tail: tail, width: width}
}

// ValidWidth reports whether w is a supported physical tail width. Code
// that takes a width from outside the program (a schema, a decoded file)
// checks it here and returns an error; the constructors panic on the rest.
func ValidWidth(w int) bool {
	return w == Width8 || w == Width16 || w == Width32 || w == Width64
}

func checkWidth(w int) {
	if !ValidWidth(w) {
		panic(fmt.Sprintf("bat: unsupported width %d", w))
	}
}

// Len returns the number of tuples.
func (b *BAT) Len() int { return len(b.tail) }

// Width returns the physical bytes per tail value.
func (b *BAT) Width() int { return b.width }

// TailBytes returns the physical tail footprint charged by the cost model.
func (b *BAT) TailBytes() int64 { return int64(len(b.tail)) * int64(b.width) }

// HeadBytes returns the physical head footprint: zero for dense heads,
// 4 bytes per materialized OID otherwise.
func (b *BAT) HeadBytes() int64 {
	if b.head == nil {
		return 0
	}
	return int64(len(b.head)) * 4
}

// DenseHead reports whether the head is dense (virtual).
func (b *BAT) DenseHead() bool { return b.head == nil }

// HSeq returns the head seqbase of a dense-headed BAT.
func (b *BAT) HSeq() OID { return b.hseq }

// Head returns the tuple ID at position i.
func (b *BAT) Head(i int) OID {
	if b.head == nil {
		return b.hseq + OID(i)
	}
	return b.head[i]
}

// Tail returns the value at position i.
func (b *BAT) Tail(i int) int64 { return b.tail[i] }

// Tails exposes the tail slice for bulk operators. Callers must not
// resize it.
func (b *BAT) Tails() []int64 { return b.tail }

// Heads exposes the materialized head slice, or nil for dense heads.
func (b *BAT) Heads() []OID { return b.head }

// MaterializeHead returns a BAT whose head is explicitly materialized.
// Dense-headed BATs get a freshly built head; already-materialized BATs are
// returned unchanged.
func (b *BAT) MaterializeHead() *BAT {
	if b.head != nil {
		return b
	}
	head := make([]OID, len(b.tail))
	for i := range head {
		head[i] = b.hseq + OID(i)
	}
	return &BAT{head: head, tail: b.tail, width: b.width, sorted: b.sorted, key: b.key}
}

// Slice returns the BAT restricted to positions [lo,hi).
func (b *BAT) Slice(lo, hi int) *BAT {
	if lo < 0 || hi > len(b.tail) || lo > hi {
		panic(fmt.Sprintf("bat: slice [%d,%d) out of range [0,%d)", lo, hi, len(b.tail)))
	}
	out := &BAT{tail: b.tail[lo:hi], width: b.width, sorted: b.sorted, key: b.key}
	if b.head == nil {
		out.hseq = b.hseq + OID(lo)
	} else {
		out.head = b.head[lo:hi]
	}
	return out
}

// SetSorted records the tail-sortedness property.
func (b *BAT) SetSorted(v bool) *BAT { b.sorted = v; return b }

// SetKey records the tail-uniqueness property.
func (b *BAT) SetKey(v bool) *BAT { b.key = v; return b }

// Sorted reports the recorded tail-sortedness property.
func (b *BAT) Sorted() bool { return b.sorted }

// Key reports the recorded tail-uniqueness property.
func (b *BAT) Key() bool { return b.key }

// CheckSorted scans the tail and records whether it is non-decreasing.
func (b *BAT) CheckSorted() bool {
	s := sort.SliceIsSorted(b.tail, func(i, j int) bool { return b.tail[i] < b.tail[j] })
	b.sorted = s
	return s
}

// Clone returns a deep copy.
func (b *BAT) Clone() *BAT {
	out := &BAT{hseq: b.hseq, width: b.width, sorted: b.sorted, key: b.key}
	out.tail = append([]int64(nil), b.tail...)
	if b.head != nil {
		out.head = append([]OID(nil), b.head...)
	}
	return out
}

// Project returns the values of b at the given positions as a new
// dense-headed BAT. This is the invisible (positional) join: head ids of
// the result are dense, the input ids address b positionally.
func (b *BAT) Project(ids []OID) *BAT {
	out := make([]int64, len(ids))
	for i, id := range ids {
		out[i] = b.tail[id]
	}
	return NewDense(out, b.width)
}

// MinMax returns the smallest and largest tail value. It panics on an
// empty BAT.
func (b *BAT) MinMax() (lo, hi int64) {
	if len(b.tail) == 0 {
		panic("bat: MinMax on empty BAT")
	}
	lo, hi = b.tail[0], b.tail[0]
	for _, v := range b.tail[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// String summarizes the BAT for diagnostics.
func (b *BAT) String() string {
	headKind := "dense"
	if b.head != nil {
		headKind = "materialized"
	}
	return fmt.Sprintf("BAT[%s head, %d tuples, width %d]", headKind, len(b.tail), b.width)
}
