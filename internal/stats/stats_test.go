package stats

import (
	"math"
	"testing"

	"repro/internal/bat"
	"repro/internal/bwd"
)

// histColumn decomposes vals at the given code width and returns the
// column with its occupancy histogram.
func histColumn(t *testing.T, vals []int64, approxBits uint) *bwd.Column {
	t.Helper()
	d, err := bwd.Decompose(vals, bat.Width32, approxBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestStatsHistogramFromColumn(t *testing.T) {
	if h := FromColumn(nil); h != nil {
		t.Fatalf("FromColumn(nil) = %+v, want nil", h)
	}
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i) // uniform over [0, 1000)
	}
	d := histColumn(t, vals, 10)
	h := FromColumn(d)
	if h == nil {
		t.Fatal("decomposed column has no histogram")
	}
	if h.Rows != int64(len(vals)) {
		t.Fatalf("Rows = %d, want %d", h.Rows, len(vals))
	}
	var sum int64
	for _, c := range h.Counts {
		sum += c
	}
	if sum != h.Rows {
		t.Fatalf("bucket counts sum to %d, want Rows %d", sum, h.Rows)
	}
}

func TestStatsCodeFraction(t *testing.T) {
	vals := make([]int64, 1024)
	for i := range vals {
		vals[i] = int64(i)
	}
	// 10 approximation bits over 1024 distinct values: one code per value,
	// buckets span multiple codes (Shift > 0) so edge pro-rating is live.
	d := histColumn(t, vals, 10)
	h := FromColumn(d)
	if h.Shift == 0 {
		t.Fatal("expected coarsened buckets (Shift > 0) for a 10-bit code space")
	}
	full := h.CodeFraction(0, 1<<10-1)
	if math.Abs(full-1) > 1e-9 {
		t.Fatalf("full-range fraction = %g, want 1", full)
	}
	// Uniform data: any code interval's mass is proportional to its width,
	// even when it splits a bucket.
	for _, iv := range []struct{ lo, hi uint64 }{{0, 511}, {100, 357}, {513, 513}} {
		want := float64(iv.hi-iv.lo+1) / 1024
		got := h.CodeFraction(iv.lo, iv.hi)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("CodeFraction(%d, %d) = %g, want %g", iv.lo, iv.hi, got, want)
		}
	}
	if f := h.CodeFraction(5, 4); f != 0 {
		t.Fatalf("inverted interval fraction = %g, want 0", f)
	}
	var empty *Histogram
	if f := empty.CodeFraction(0, 10); f != 0 {
		t.Fatalf("nil histogram fraction = %g, want 0", f)
	}
}

func TestStatsDistinct(t *testing.T) {
	// 4 distinct values, heavily repeated: the estimate is capped by bucket
	// row counts, not the value span.
	vals := make([]int64, 400)
	for i := range vals {
		vals[i] = int64(i%4) * 100
	}
	d := histColumn(t, vals, 4)
	h := FromColumn(d)
	n := h.Distinct()
	if n < 1 || n > 400 {
		t.Fatalf("Distinct() = %d, want within (0, 400]", n)
	}
	// The span cap must bite: each of the 4 non-empty buckets holds 100
	// rows but spans only 32 representable values, so the estimate is
	// 4*32, far below the row count.
	if n != 128 {
		t.Fatalf("Distinct() = %d, want 128 (4 buckets capped at 32 values each)", n)
	}
}
