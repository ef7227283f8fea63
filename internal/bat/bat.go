// Package bat holds what remains of the Binary Association Tables of the
// reproduced system's columnar substrate (§V-C of the paper): the tuple
// identifier and the physical value widths.
//
// A BAT maps tuple IDs (the head) to attribute values (the tail). The head
// is always dense — a value's tuple ID is its position in the column, from 0
// — so a selection's survivors are a mask over those positions
// (ar.Candidates), not a BAT with a head of its own. A stored column is held
// in one form, its bitwise decomposition (package bwd): a column that was
// never decomposed is one with no device bits, every bit of each value on
// the host, as the MonetDB baseline holds it.
//
// The canonical value type is int64. Narrower physical types (the 32-bit
// integers of the benchmarks, dictionary codes, fixed-point decimals)
// declare their on-device width, which is the number the device cost model
// charges for capacity and bandwidth; the Go in-memory representation is an
// implementation detail of the simulator.
package bat

// OID is a tuple identifier. MonetDB calls these "oids"; they are dense
// positions into the base table. 32 bits cover every data set in the paper
// (up to 250 M tuples) and match the candidate-list transfer sizes the cost
// model charges across the PCI-E bus.
type OID uint32

// Width constants for the physical value sizes used in the paper's
// workloads.
const (
	Width8  = 1 // dictionary codes, flags
	Width16 = 2
	Width32 = 4 // the benchmark integers, dates, fixed-point coordinates
	Width64 = 8
)

// ValidWidth reports whether w is a supported physical value width. Code
// that takes a width from outside the program (a schema, a decoded file)
// checks it here and returns an error.
func ValidWidth(w int) bool {
	return w == Width8 || w == Width16 || w == Width32 || w == Width64
}
