// Package stats is the planner's statistics provider. It derives
// per-column histograms from BWD bucket occupancy — the bounds structure
// the paper builds for approximate selection (§II-A) already partitions
// every decomposed column into equi-width cells over code order, so the
// occupancy counts maintained at decompose/merge time are a real
// data-distribution histogram at zero extra cost — plus row counts, delta
// sizes, deletion density and distinct-value estimates from the store
// snapshot. The optimizer (internal/plan) estimates cardinalities from
// these instead of domain fractions.
package stats

import (
	"repro/internal/bwd"
	"repro/internal/store"
)

// Histogram is an equi-width histogram over a decomposed column's
// approximation-code order. Bucket b counts the base-segment rows whose
// code lies in [b << Shift, (b+1) << Shift). Counts are taken at
// decompose/merge time, so they include base rows deleted since the last
// merge; callers damp with the snapshot's deletion density.
type Histogram struct {
	Base    int64   // value of code 0 (prefix-compression base)
	ResBits uint    // one code spans 1 << ResBits consecutive values
	Shift   uint    // one bucket spans 1 << Shift consecutive codes
	Counts  []int64 // rows per bucket
	Rows    int64   // total histogrammed rows (sum of Counts)
}

// FromColumn reads the histogram off a decomposed column, or returns nil
// when the column carries no occupancy counts.
func FromColumn(d *bwd.Column) *Histogram {
	if d == nil || len(d.BucketCounts()) == 0 {
		return nil
	}
	return &Histogram{
		Base:    d.Dec.Base,
		ResBits: d.Dec.ResBits,
		Shift:   d.BucketShift(),
		Counts:  d.BucketCounts(),
		Rows:    d.BucketRows(),
	}
}

// CodeFraction estimates the fraction of histogrammed rows whose
// approximation code lies in [lo, hi], pro-rating partially covered edge
// buckets by the covered share of their code span (uniformity within a
// bucket is the only assumption left).
func (h *Histogram) CodeFraction(lo, hi uint64) float64 {
	if h == nil || h.Rows == 0 || hi < lo {
		return 0
	}
	width := uint64(1) << h.Shift
	var mass float64
	for b, count := range h.Counts {
		if count == 0 {
			continue
		}
		blo := uint64(b) << h.Shift
		bhi := blo + width - 1
		if bhi < lo || blo > hi {
			continue
		}
		olo, ohi := blo, bhi
		if lo > olo {
			olo = lo
		}
		if hi < ohi {
			ohi = hi
		}
		mass += float64(count) * float64(ohi-olo+1) / float64(width)
	}
	f := mass / float64(h.Rows)
	if f > 1 {
		f = 1
	}
	return f
}

// Distinct estimates the number of distinct values: each non-empty bucket
// contributes at most its row count and at most the number of
// representable values it spans.
func (h *Histogram) Distinct() int64 {
	if h == nil {
		return 0
	}
	valuesPerBucket := (uint64(1) << h.Shift) << h.ResBits
	var n int64
	for _, count := range h.Counts {
		if count == 0 {
			continue
		}
		if valuesPerBucket != 0 && uint64(count) > valuesPerBucket {
			n += int64(valuesPerBucket)
		} else {
			n += count
		}
	}
	return n
}

// Table summarizes a snapshot's row population for costing: live
// cardinality, how much of it still sits in the row-major delta, and the
// deletion density of the visible rows.
type Table struct {
	Rows        int64   // live rows (base + delta, minus deletions)
	BaseRows    int64   // live base-segment rows
	DeltaRows   int64   // visible delta rows (including deleted ones)
	Deleted     int64   // deleted rows still visible in base + delta
	DeletedFrac float64 // Deleted / (base + delta row positions)
}

// Column is the per-column statistics bundle the optimizer consumes.
type Column struct {
	Table
	Hist *Histogram // nil when the column is not decomposed
}

// Provider reads statistics from one pinned store snapshot, so every
// estimate a plan makes is consistent with the rows it will scan.
type Provider struct {
	snap *store.Snapshot
}

// Of wraps a snapshot as a statistics provider.
func Of(snap *store.Snapshot) Provider { return Provider{snap: snap} }

// Table returns the snapshot's population statistics.
func (p Provider) Table() Table {
	s := p.snap
	if s == nil {
		return Table{}
	}
	t := Table{
		Rows:      int64(s.Len()),
		BaseRows:  int64(s.LiveBase()),
		DeltaRows: int64(s.DeltaLen()),
		Deleted:   int64(s.DeletedCount()),
	}
	if total := s.BaseLen() + s.DeltaLen(); total > 0 {
		t.DeletedFrac = float64(t.Deleted) / float64(total)
	}
	return t
}

// Column returns the statistics bundle for one column: table population
// plus the BWD occupancy histogram when the column is decomposed.
func (p Provider) Column(name string) Column {
	c := Column{Table: p.Table()}
	if p.snap != nil {
		c.Hist = FromColumn(p.snap.Dec(name))
	}
	return c
}

// Distinct estimates the distinct-value count of a column, or -1 when the
// column carries no histogram to estimate from.
func (p Provider) Distinct(name string) int64 {
	if p.snap == nil {
		return -1
	}
	h := FromColumn(p.snap.Dec(name))
	if h == nil {
		return -1
	}
	return h.Distinct()
}
