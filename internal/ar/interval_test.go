package ar

import (
	"testing"
	"testing/quick"
)

func TestIntervalBasics(t *testing.T) {
	iv := Interval{10, 20}
	if Exact(5) != (Interval{5, 5}) {
		t.Errorf("Exact(5) = %v", Exact(5))
	}
	if !iv.Contains(10) || !iv.Contains(20) || iv.Contains(21) || iv.Contains(9) {
		t.Error("Contains boundary behaviour wrong")
	}
	if iv.String() == "" {
		t.Error("empty String")
	}
}

// TestIntervalArithmeticContainment is invariant 8 of DESIGN.md: for any
// values a ∈ A, b ∈ B, the result of the exact operation lies inside the
// interval of the interval operation.
func TestIntervalArithmeticContainment(t *testing.T) {
	f := func(aLo8, aW8, bLo8, bW8, aOff8, bOff8 uint8) bool {
		aLo, aW := int64(aLo8)-128, int64(aW8)
		bLo, bW := int64(bLo8)-128, int64(bW8)
		A := Interval{aLo, aLo + aW}
		B := Interval{bLo, bLo + bW}
		a := aLo + int64(aOff8)%(aW+1)
		b := bLo + int64(bOff8)%(bW+1)

		if !A.Add(B).Contains(a + b) {
			return false
		}
		if !A.Sub(B).Contains(a - b) {
			return false
		}
		if !A.MulScaled(B, 1).Contains(a * b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestIntervalMulScaledFixedPoint(t *testing.T) {
	// 1.00 * [0.05, 0.07] at scale 100.
	got := Exact(100).MulScaled(Interval{5, 7}, 100)
	if got.Lo != 5 || got.Hi != 7 {
		t.Errorf("MulScaled = %v, want [5,7]", got)
	}
}

// TestDestructiveDistributivityDemonstration verifies the paper's §IV-G
// algebra: the exact product of two decomposed values cannot be derived
// from the products of approximations and residuals alone — the cross
// terms need both factors on one device.
func TestDestructiveDistributivityDemonstration(t *testing.T) {
	a, b := int64(747979), int64(123456)
	split := func(v int64, resBits uint) (ap, re int64) {
		re = v & int64((uint64(1)<<resBits)-1)
		return v - re, re
	}
	aAp, aRe := split(a, 8)
	bAp, bRe := split(b, 8)
	full := a * b
	fromParts := aAp*bAp + aRe*bRe // what each device could compute locally
	crossTerms := aAp*bRe + bAp*aRe
	if fromParts+crossTerms != full {
		t.Fatal("algebra broken")
	}
	if fromParts == full {
		t.Fatal("example does not demonstrate destructive distributivity")
	}
}
