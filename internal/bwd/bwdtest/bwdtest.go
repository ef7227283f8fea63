// Package bwdtest holds the checks on bitwise decomposed columns that the
// tests of several packages share.
package bwdtest

import (
	"slices"
	"testing"

	"repro/internal/bwd"
)

// CheckGranules fails the test unless col's granule bounds are exactly the
// smallest and largest approximation code of each GranuleRows rows, read
// back one row at a time: every code lies within its granule's bounds and
// both bounds are attained.
func CheckGranules(t testing.TB, label string, col *bwd.Column) {
	t.Helper()
	n := col.Len()
	want := make([]bwd.Bounds, 0, (n+bwd.GranuleRows-1)/bwd.GranuleRows)
	for lo := 0; lo < n; lo += bwd.GranuleRows {
		b := bwd.Bounds{Min: col.Approx.Get(lo), Max: col.Approx.Get(lo)}
		for i := lo; i < min(lo+bwd.GranuleRows, n); i++ {
			code := col.Approx.Get(i)
			b.Min, b.Max = min(b.Min, code), max(b.Max, code)
		}
		want = append(want, b)
	}
	if got := col.Granules(); !slices.Equal(got, want) {
		t.Fatalf("%s: granule bounds over %d rows are not the per-granule min/max codes (%d granules, want %d)",
			label, n, len(got), len(want))
	}
}
