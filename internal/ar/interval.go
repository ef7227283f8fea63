package ar

import "fmt"

// Interval is a conservative value interval [Lo, Hi]: the approximate
// result of an arithmetic operator together with its strict error bounds
// (§III "Approximation": arithmetic operators yield the expected value and
// strict error bounds, which later operators use to relax predicate
// conditions appropriately).
type Interval struct {
	Lo, Hi int64
}

// Exact returns a degenerate interval holding a single value.
func Exact(v int64) Interval { return Interval{v, v} }

// Contains reports whether v lies inside the interval.
func (iv Interval) Contains(v int64) bool { return v >= iv.Lo && v <= iv.Hi }

func (iv Interval) String() string { return fmt.Sprintf("[%d,%d]", iv.Lo, iv.Hi) }

// Add returns the interval of a+b.
func (iv Interval) Add(o Interval) Interval {
	return Interval{iv.Lo + o.Lo, iv.Hi + o.Hi}
}

// Sub returns the interval of a-b.
func (iv Interval) Sub(o Interval) Interval {
	return Interval{iv.Lo - o.Hi, iv.Hi - o.Lo}
}

// MulScaled returns the interval of the fixed-point product (a*b)/scale.
//
// Multiplication exhibits the paper's destructive distributivity (§IV-G):
// the expansion (a_ap+a_re)(b_ap+b_re) contains the cross terms
// a_ap·b_re and b_ap·a_re, which cannot be computed on either device
// alone, so the exact product can never be refined from the approximate
// product — only re-derived from reconstructed inputs. The interval result
// is still useful as an approximate answer and for relaxing downstream
// predicates.
func (iv Interval) MulScaled(o Interval, scale int64) Interval {
	c := []int64{
		mulDiv(iv.Lo, o.Lo, scale),
		mulDiv(iv.Lo, o.Hi, scale),
		mulDiv(iv.Hi, o.Lo, scale),
		mulDiv(iv.Hi, o.Hi, scale),
	}
	lo, hi := c[0], c[0]
	for _, v := range c[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return Interval{lo, hi}
}

func mulDiv(a, b, scale int64) int64 { return a * b / scale }
