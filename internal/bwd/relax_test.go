package bwd

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bat"
)

func TestApprZeroesMinorBits(t *testing.T) {
	if got := Appr(0x12345678, 8); got != 0x12345600 {
		t.Errorf("Appr = %#x, want 0x12345600", got)
	}
	if got := Appr(0x12345678, 0); got != 0x12345678 {
		t.Errorf("Appr with 0 resBits = %#x, want identity", got)
	}
}

// TestPaperFTableSupersetProperty verifies the paper's f(x) table verbatim:
// evaluating `appr(v) op f(x)` admits every v with `v op x` — the superset
// guarantee of §IV-B — for all five operators.
func TestPaperFTableSupersetProperty(t *testing.T) {
	holds := func(v int64, op CmpOp, x int64) bool {
		switch op {
		case Eq:
			return v == x
		case Gt:
			return v > x
		case Ge:
			return v >= x
		case Lt:
			return v < x
		case Le:
			return v <= x
		}
		return false
	}
	approxHolds := func(av int64, op CmpOp, fx int64) bool {
		switch op {
		case Eq:
			return av == fx
		case Gt:
			return av > fx
		case Ge:
			return av >= fx
		case Lt:
			return av < fx
		case Le:
			return av <= fx
		}
		return false
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20000; trial++ {
		resBits := uint(rng.Intn(12))
		v := int64(rng.Intn(1 << 16))
		x := int64(rng.Intn(1 << 16))
		op := CmpOp(rng.Intn(5))
		if holds(v, op, x) && !approxHolds(Appr(v, resBits), op, F(x, op, resBits)) {
			t.Fatalf("superset violated: v=%d op=%v x=%d resBits=%d appr(v)=%d f(x)=%d",
				v, op, x, resBits, Appr(v, resBits), F(x, op, resBits))
		}
	}
}

func TestRelaxSupersetProperty(t *testing.T) {
	f := func(raw []int32, bits uint8, rawLo, rawHi int32) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v % 10000)
		}
		c, err := Decompose(vals, bat.Width32, uint(bits%16)+1, nil)
		if err != nil {
			return false
		}
		lo, hi := int64(rawLo%12000), int64(rawHi%12000)
		if lo > hi {
			lo, hi = hi, lo
		}
		r := c.Relax(lo, hi)
		for i, v := range vals {
			if v >= lo && v <= hi && !r.Contains(c.Approx.Get(i)) {
				return false // false negative: superset property broken
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRelaxFalsePositivesOnlyInBoundaryBuckets(t *testing.T) {
	vals := make([]int64, 1024)
	for i := range vals {
		vals[i] = int64(i)
	}
	c := mustDecompose(t, vals, 6) // 10 total bits -> 6/4: bucket size 16
	lo, hi := int64(100), int64(199)
	r := c.Relax(lo, hi)
	bucket := int64(16)
	for i, v := range vals {
		in := r.Contains(c.Approx.Get(i))
		exact := v >= lo && v <= hi
		if exact && !in {
			t.Fatalf("false negative at v=%d", v)
		}
		if in && !exact {
			// False positives may only live in the buckets containing the
			// bounds.
			if v/bucket != lo/bucket && v/bucket != hi/bucket {
				t.Fatalf("false positive v=%d outside boundary buckets", v)
			}
		}
	}
}

func TestRelaxEmptyAndFull(t *testing.T) {
	vals := []int64{100, 200, 300}
	c := mustDecompose(t, vals, 4)
	if r := c.Relax(400, 500); !r.Empty {
		t.Error("range above max not Empty")
	}
	if r := c.Relax(0, 50); !r.Empty {
		t.Error("range below base not Empty")
	}
	if r := c.Relax(50, 400); !r.Full {
		t.Error("covering range not Full")
	}
	if r := c.Relax(10, 5); !r.Empty {
		t.Error("inverted range not Empty")
	}
	full := c.Relax(0, 1000)
	if !full.Contains(0) || !full.Contains(c.Dec.MaxApprox()) {
		t.Error("Full range must contain every code")
	}
	empty := c.Relax(1000, 2000)
	if empty.Contains(0) {
		t.Error("Empty range contains a code")
	}
}

func TestRelaxOpMatchesRelax(t *testing.T) {
	vals := make([]int64, 256)
	for i := range vals {
		vals[i] = int64(i)
	}
	c := mustDecompose(t, vals, 5)
	for _, x := range []int64{-1, 0, 17, 128, 255, 300} {
		for _, op := range []CmpOp{Eq, Gt, Ge, Lt, Le} {
			r := c.RelaxOp(op, x)
			for i, v := range vals {
				exact := false
				switch op {
				case Eq:
					exact = v == x
				case Gt:
					exact = v > x
				case Ge:
					exact = v >= x
				case Lt:
					exact = v < x
				case Le:
					exact = v <= x
				}
				if exact && !r.Contains(c.Approx.Get(i)) {
					t.Fatalf("RelaxOp(%v, %d): false negative at v=%d", op, x, v)
				}
			}
		}
	}
}

func TestRelaxOpExtremes(t *testing.T) {
	const (
		minInt = -int64(^uint64(0)>>1) - 1
		maxInt = int64(^uint64(0) >> 1)
	)
	c := mustDecompose(t, []int64{1, 2, 3}, 2)
	if r := c.RelaxOp(Gt, maxInt); !r.Empty {
		t.Error("v > maxInt should be Empty")
	}
	if r := c.RelaxOp(Lt, minInt); !r.Empty {
		t.Error("v < minInt should be Empty")
	}
	if r := c.RelaxOp(Ge, minInt); !(r.Full || r.Contains(0)) {
		t.Error("v >= minInt should admit everything")
	}
}

func TestCmpOpString(t *testing.T) {
	for _, op := range []CmpOp{Eq, Gt, Ge, Lt, Le, CmpOp(99)} {
		if op.String() == "" {
			t.Errorf("empty String for %d", int(op))
		}
	}
}
