// Package bwdtest holds the checks on bitwise decomposed columns that the
// tests of several packages share.
package bwdtest

import (
	"slices"
	"testing"

	"repro/internal/bwd"
)

// CheckGranules fails the test unless col's granule summaries are exactly
// what its rows, read back one at a time, say: the bounds are the smallest
// and largest approximation code of each GranuleRows rows — every code lies
// within its granule's bounds and both are attained — and the split cuts
// the granule at its first largest jump between adjacent codes (nowhere when
// there is none), each part's bounds the smallest and largest code of the
// part's rows, so that the two parts' bounds together are the granule's.
func CheckGranules(t testing.TB, label string, col *bwd.Column) {
	t.Helper()
	n := col.Len()
	rowBounds := func(lo, hi int) bwd.Bounds {
		b := bwd.Bounds{Min: col.Approx.Get(lo), Max: col.Approx.Get(lo)}
		for i := lo; i < hi; i++ {
			code := col.Approx.Get(i)
			b.Min, b.Max = min(b.Min, code), max(b.Max, code)
		}
		return b
	}
	want := make([]bwd.Bounds, 0, (n+bwd.GranuleRows-1)/bwd.GranuleRows)
	splits := col.Splits()
	if len(splits) != cap(want) {
		t.Fatalf("%s: %d splits for %d granules", label, len(splits), cap(want))
	}
	for lo := 0; lo < n; lo += bwd.GranuleRows {
		hi := min(lo+bwd.GranuleRows, n)
		whole := rowBounds(lo, hi)
		want = append(want, whole)

		k, jump := 0, uint64(0)
		for i := lo + 1; i < hi; i++ {
			a, b := col.Approx.Get(i-1), col.Approx.Get(i)
			if d := max(a, b) - min(a, b); d > jump {
				k, jump = i-lo, d
			}
		}
		s := splits[lo/bwd.GranuleRows]
		if s.K != k || s.K < 0 || s.K >= hi-lo {
			t.Fatalf("%s: granule %d of %d rows is split at %d, its largest code jump is at %d", label, lo/bwd.GranuleRows, hi-lo, s.K, k)
		}
		if k == 0 {
			continue
		}
		if head, tail := rowBounds(lo, lo+k), rowBounds(lo+k, hi); s.Head != head || s.Tail != tail {
			t.Fatalf("%s: granule %d split at %d has part bounds %v %v, its rows span %v %v", label, lo/bwd.GranuleRows, k, s.Head, s.Tail, head, tail)
		}
		if union := (bwd.Bounds{Min: min(s.Head.Min, s.Tail.Min), Max: max(s.Head.Max, s.Tail.Max)}); union != whole {
			t.Fatalf("%s: granule %d parts span %v together, the granule %v", label, lo/bwd.GranuleRows, union, whole)
		}
	}
	if got := col.Granules(); !slices.Equal(got, want) {
		t.Fatalf("%s: granule bounds over %d rows are not the per-granule min/max codes (%d granules, want %d)",
			label, n, len(got), len(want))
	}
}
