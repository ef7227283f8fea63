package ar

import (
	"fmt"
	"math"
)

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
// predicates; IsDestructive marks the limitation.
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

// Div returns the interval of a/b (integer division). Intervals spanning
// zero in the divisor yield the unbounded-ish conservative result of the
// full int64 range, which callers must treat as "no information".
func (iv Interval) Div(o Interval) Interval {
	if o.Lo <= 0 && o.Hi >= 0 {
		return Interval{math.MinInt64, math.MaxInt64}
	}
	c := []int64{iv.Lo / o.Lo, iv.Lo / o.Hi, iv.Hi / o.Lo, iv.Hi / o.Hi}
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

// Sqrt returns the interval of the integer square root, defined for
// non-negative intervals; negative bounds are clamped to zero.
func (iv Interval) Sqrt() Interval {
	lo, hi := iv.Lo, iv.Hi
	if lo < 0 {
		lo = 0
	}
	if hi < 0 {
		hi = 0
	}
	return Interval{isqrt(lo), isqrt(hi)}
}

func isqrt(v int64) int64 {
	if v < 0 {
		return 0
	}
	r := int64(math.Sqrt(float64(v)))
	for r*r > v {
		r--
	}
	for (r+1)*(r+1) <= v {
		r++
	}
	return r
}

// Pow returns the interval of v^e for small non-negative integer
// exponents.
func (iv Interval) Pow(e uint) Interval {
	if e == 0 {
		return Exact(1)
	}
	out := iv
	for i := uint(1); i < e; i++ {
		out = out.MulScaled(iv, 1)
	}
	// Even powers of intervals spanning zero bottom out at 0.
	if e%2 == 0 && iv.Lo < 0 && iv.Hi > 0 && out.Lo > 0 {
		out.Lo = 0
	}
	return out
}

// IsDestructive reports whether an operation's exact result cannot be
// refined from the approximations and residuals independently (§IV-G).
// Addition and subtraction distribute over the approximation/residual
// split; multiplication, division and their derivatives do not.
func IsDestructive(op string) bool {
	switch op {
	case "add", "sub":
		return false
	case "mul", "div", "sqrt", "pow":
		return true
	default:
		return true // conservative: unknown UDFs refine on the CPU
	}
}
