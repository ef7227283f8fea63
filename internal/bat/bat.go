// Package bat implements Binary Association Tables, the columnar storage
// substrate of the reproduced system (§V-C of the paper).
//
// A BAT maps tuple IDs (the head) to attribute values (the tail). The head
// is always dense — a value's tuple ID is its position in the tail, from 0 —
// so only the tail is stored; a selection's survivors are a mask over those
// positions (ar.Candidates), not a BAT with a head of its own.
//
// A BAT is a loader's input, or a stored column that was never decomposed: a
// column that was is held as its decomposition alone (package bwd), and the
// store drops its BAT (internal/store).
//
// The canonical tail value type is int64. Narrower physical types (the
// 32-bit integers of the benchmarks, dictionary codes, fixed-point
// decimals) declare their on-device width via the Width field, which is the
// number the device cost model charges for capacity and bandwidth; the Go
// in-memory representation is an implementation detail of the simulator.
package bat

import "fmt"

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

// BAT is a binary association table: a dense head (tuple IDs) and its tail
// (values).
type BAT struct {
	tail  []int64
	width int // physical bytes per tail value (cost accounting)
}

// NewDense returns a BAT with a dense head starting at 0 over the given
// tail. The tail is used directly, not copied.
func NewDense(tail []int64, width int) *BAT {
	checkWidth(width)
	return &BAT{tail: tail, width: width}
}

// ValidWidth reports whether w is a supported physical tail width. Code
// that takes a width from outside the program (a schema, a decoded file)
// checks it here and returns an error; NewDense panics on the rest.
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

// Tails exposes the tail slice for bulk operators. Callers must not
// resize it.
func (b *BAT) Tails() []int64 { return b.tail }

// String summarizes the BAT for diagnostics.
func (b *BAT) String() string {
	return fmt.Sprintf("BAT[%d tuples, width %d]", len(b.tail), b.width)
}
