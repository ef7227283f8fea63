// Package bwdtest holds the checks on bitwise decomposed columns that the
// tests of several packages share.
package bwdtest

import (
	"testing"

	"repro/internal/bwd"
)

// CheckGranules fails the test unless col's granule records are exactly what
// its rows, read back one at a time, say: the split cuts each GranuleRows
// rows at their first largest jump between adjacent codes (nowhere when there
// is none), each part's bounds are the smallest and largest code of the
// part's rows, an unsplit record holds the granule's bounds in both parts,
// and the union of the two parts is the granule's own smallest and largest
// code — every code lies within it and both ends are attained.
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
	splits := col.Splits()
	if want := (n + bwd.GranuleRows - 1) / bwd.GranuleRows; len(splits) != want {
		t.Fatalf("%s: %d records for %d granules", label, len(splits), want)
	}
	for lo := 0; lo < n; lo += bwd.GranuleRows {
		hi := min(lo+bwd.GranuleRows, n)
		g := lo / bwd.GranuleRows
		whole := rowBounds(lo, hi)

		k, jump := 0, uint64(0)
		for i := lo + 1; i < hi; i++ {
			a, b := col.Approx.Get(i-1), col.Approx.Get(i)
			if d := max(a, b) - min(a, b); d > jump {
				k, jump = i-lo, d
			}
		}
		s := splits[g]
		if s.K != k || s.K < 0 || s.K >= hi-lo {
			t.Fatalf("%s: granule %d of %d rows is split at %d, its largest code jump is at %d", label, g, hi-lo, s.K, k)
		}
		head, tail := whole, whole
		if k != 0 {
			head, tail = rowBounds(lo, lo+k), rowBounds(lo+k, hi)
		}
		if s.Head != head || s.Tail != tail {
			t.Fatalf("%s: granule %d split at %d has part bounds %v %v, its rows span %v %v", label, g, k, s.Head, s.Tail, head, tail)
		}
		if union := s.Bounds(); union != whole {
			t.Fatalf("%s: granule %d parts span %v together, its rows %v", label, g, union, whole)
		}
	}
}
