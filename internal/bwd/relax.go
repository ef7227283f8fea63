package bwd

import (
	"fmt"

	"repro/internal/bitpack"
)

// CmpOp enumerates the comparison operators whose predicates the paper's
// approximate selection relaxes (§IV-B).
type CmpOp int

// Comparison operators.
const (
	Eq CmpOp = iota // == x
	Gt              // >  x
	Ge              // >= x
	Lt              // <  x
	Le              // <= x
)

func (op CmpOp) String() string {
	switch op {
	case Eq:
		return "=="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Lt:
		return "<"
	case Le:
		return "<="
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// Appr is the paper's appr(x): the value with its resBits minor bits
// zeroed, i.e. x bitmasked with the bitwise complement of (1<<resbits)-1.
func Appr(x int64, resBits uint) int64 {
	return x &^ int64((uint64(1)<<resBits)-1)
}

// F is the paper's predicate-relaxation function f(x) (§IV-B), verbatim:
//
//	f(x) = appr(x)                      if op is '== x'
//	f(x) = appr(x) - 1                  if op is '>  x'
//	f(x) = appr(x)                      if op is '>= x'
//	f(x) = appr(x) + (1<<resbits) + 1   if op is '<  x'
//	f(x) = appr(x) + (1<<resbits)       if op is '<= x'
//
// Scanning the zeroed-minor-bits data with the same operator against f(x)
// yields a superset of the precise result (the false positives live in the
// boundary buckets and are eliminated by the refinement).
func F(x int64, op CmpOp, resBits uint) int64 {
	a := Appr(x, resBits)
	switch op {
	case Eq:
		return a
	case Gt:
		return a - 1
	case Ge:
		return a
	case Lt:
		return a + int64(uint64(1)<<resBits) + 1
	case Le:
		return a + int64(uint64(1)<<resBits)
	default:
		panic(fmt.Sprintf("bwd: unknown CmpOp %d", int(op)))
	}
}

// ApproxRange is a closed interval [Lo, Hi] of approximation codes in the
// shifted domain, plus emptiness/totality flags. It is the compiled form
// of a relaxed predicate: a GPU kernel admits a tuple iff its approximation
// code falls inside the interval.
type ApproxRange struct {
	Lo, Hi uint64
	Empty  bool // no approximation can match
	Full   bool // every approximation matches; the scan can be skipped
}

// Contains reports whether an approximation code satisfies the relaxed
// predicate.
func (r ApproxRange) Contains(code uint64) bool {
	if r.Empty {
		return false
	}
	if r.Full {
		return true
	}
	return code >= r.Lo && code <= r.Hi
}

// Relax relaxes the closed value-domain predicate lo <= v <= hi into the
// approximation domain (§IV-B). The result admits every tuple whose exact
// value satisfies the predicate (superset property); tuples in the two
// boundary buckets may be false positives.
//
// One-sided predicates are expressed with the int64 extremes; since integer
// predicates are closed under <-to-<= rewriting (v < x  ≡  v <= x-1), Relax
// together with that rewrite covers the paper's full f(x) table.
func (c *Column) Relax(lo, hi int64) ApproxRange {
	slo, shi, ok := c.shift(lo, hi)
	if !ok {
		return ApproxRange{Empty: true}
	}
	r := ApproxRange{Lo: slo >> c.Dec.ResBits, Hi: shi >> c.Dec.ResBits}
	if shi == bitpack.Mask(c.Dec.TotalBits) {
		r.Hi = c.Dec.MaxApprox()
		// Full only when the VALUE predicate covers the whole domain, not
		// merely the code range: with lo inside bucket 0 (or hi inside the top
		// bucket) the boundary buckets still hold potential false positives,
		// and consumers treat Full as "no boundary uncertainty" (the interior
		// ar's certain set narrows by, the skipped scan) — marking such a
		// range Full would overstate the phase-A lower bounds.
		r.Full = slo == 0
	}
	return r
}

// shift maps the closed value range [lo, hi] into the column's shifted
// domain [0, 2^TotalBits): the offsets of its ends from the base, clamped to
// the domain. ok is false when no value of the domain lies in the range.
// The arithmetic is unsigned, so a column that spans all 64 bits is no
// special case.
func (c *Column) shift(lo, hi int64) (slo, shi uint64, ok bool) {
	if lo > hi || hi < c.Dec.Base {
		return 0, 0, false
	}
	top := bitpack.Mask(c.Dec.TotalBits)
	if lo > c.Dec.Base {
		if slo = uint64(lo) - uint64(c.Dec.Base); slo > top {
			return 0, 0, false
		}
	}
	return slo, min(uint64(hi)-uint64(c.Dec.Base), top), true
}

// RelaxOp relaxes a single-operator predicate `v op x` into the
// approximation domain, mirroring the paper's f(x) row by row.
func (c *Column) RelaxOp(op CmpOp, x int64) ApproxRange {
	const (
		minInt = -int64(^uint64(0)>>1) - 1
		maxInt = int64(^uint64(0) >> 1)
	)
	switch op {
	case Eq:
		return c.Relax(x, x)
	case Gt:
		if x == maxInt {
			return ApproxRange{Empty: true}
		}
		return c.Relax(x+1, maxInt)
	case Ge:
		return c.Relax(x, maxInt)
	case Lt:
		if x == minInt {
			return ApproxRange{Empty: true}
		}
		return c.Relax(minInt, x-1)
	case Le:
		return c.Relax(minInt, x)
	default:
		panic(fmt.Sprintf("bwd: unknown CmpOp %d", int(op)))
	}
}
