package plan

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/device"
	"repro/internal/par"
)

// rowDeltaScan is the delta scan as it was before the delta was stored by
// column: row by row over 64-aligned morsels, the deletion check, every
// conjunct, every disjunction group and every join — its key's partner, the
// dimension's deletions, the dimension filters — then the values of need,
// per-morsel partials concatenated in morsel order, billed as one row-major
// pass. It stays as the oracle of scanDelta.
func rowDeltaScan(m *device.Meter, pp par.P, q *Query, snap *execSnap, need []ColRef) *rowTuples {
	fs := snap.fact
	col := func(name string) int {
		i, err := fs.Table().ColIndex(name)
		if err != nil {
			panic(err)
		}
		return i
	}
	chunk := (pp.ChunkSize() + 63) &^ 63
	type part struct {
		n          int
		vals       [][]int64
		dimGathers int64
	}
	parts := make([]part, (fs.DeltaLen()+chunk-1)/chunk)
	nDimFilters := 0
	for _, spec := range q.Joins {
		nDimFilters += len(spec.DimFilters)
	}
	scan := func(mi int) {
		pt := &parts[mi]
		pt.vals = make([][]int64, len(need))
		pos := make([]int, len(q.Joins))
	rows:
		for j := mi * chunk; j < min((mi+1)*chunk, fs.DeltaLen()); j++ {
			if fs.DeltaDeleted(j) {
				continue
			}
			for _, f := range q.Filters {
				if v := fs.DeltaValue(j, col(f.Col)); v < f.Lo || v > f.Hi {
					continue rows
				}
			}
			for _, group := range q.Or {
				match := false
				for _, f := range group {
					v := fs.DeltaValue(j, col(f.Col))
					match = match || v >= f.Lo && v <= f.Hi
				}
				if !match {
					continue rows
				}
			}
			for ji, spec := range q.Joins {
				key := snap.joinKey(spec, nil, nil)
				p, ok := key.Pos(fs.DeltaValue(j, col(spec.FKCol)))
				if !ok || snap.dims[ji].BaseDeleted(p) {
					continue rows
				}
				for _, f := range spec.DimFilters {
					b, _ := snap.dims[ji].Column(f.Col)
					if v := b.Tail(p); v < f.Lo || v > f.Hi {
						continue rows
					}
				}
				pos[ji] = p
			}
			if len(q.Joins) > 0 {
				pt.dimGathers++
			}
			for k, ref := range need {
				if ref.IsDim() {
					b, _ := snap.snapFor(ref.Dim).Column(ref.Name)
					pt.vals[k] = append(pt.vals[k], b.Tail(pos[q.joinsDim(ref.Dim)]))
				} else {
					pt.vals[k] = append(pt.vals[k], fs.DeltaValue(j, col(ref.Name)))
				}
			}
			pt.n++
		}
	}
	item := pp
	item.Chunk = 1
	err := item.For(len(parts), func(lo, hi int) {
		for mi := lo; mi < hi; mi++ {
			scan(mi)
		}
	})
	if err != nil {
		panic(err)
	}
	out := &rowTuples{vals: map[ColRef][]int64{}}
	var dimGathers int64
	facts, dims := 0, nDimFilters
	for k, ref := range need {
		var vals []int64
		for _, pt := range parts {
			vals = append(vals, pt.vals[k]...)
		}
		out.vals[ref] = vals
		if ref.IsDim() {
			dims++
		} else {
			facts++
		}
	}
	for _, pt := range parts {
		out.n += pt.n
		dimGathers += pt.dimGathers
	}
	preds := len(q.Filters)
	for _, group := range q.Or {
		preds += len(group)
	}
	var gather int64
	if dimGathers > 0 {
		gather = dimGathers * 8 * int64(dims)
	}
	m.CPUWork(pp.NThreads(), fs.DeltaBytes()+int64(out.n)*8*int64(facts), gather, int64(fs.DeltaLen())*int64(1+preds))
	return out
}

// rowTuples is the row loop's output: n rows, and per column its values in
// row order.
type rowTuples struct {
	n    int
	vals map[ColRef][]int64
}

// TestDeltaScanMatchesRowOracle: the classic selection over the delta's
// columns, its segment's bindings read by its mask, returns the row loop's
// values, byte for byte and in row order, and
// bills exactly its charge — for deltas of one row, of a granule's length
// either side of it and of many granules behind a base whose length is no
// multiple of 64, with deleted delta rows; conjuncts, disjunction groups and
// up to two joins over keys some of which have no partner and some of whose
// partners are deleted; grouped and ungrouped statements; one worker and
// four, over morsels of a granule, of a ragged size and of the default.
func TestDeltaScanMatchesRowOracle(t *testing.T) {
	ctx := context.Background()
	for _, dn := range []int{1, 63, 64, 65, 3000} {
		c := buildStarCatalog(t, 64*20+13, int64(dn))
		rng := rand.New(rand.NewSource(int64(dn) * 3))
		rows := make([][]int64, dn)
		for i := range rows {
			rows[i] = starInsertRow(rng)
			switch i % 9 {
			case 4:
				rows[i][3] = 40 + int64(rng.Intn(3)) // past dim1's last key
			case 7:
				rows[i][4] = -1 - int64(rng.Intn(3)) // before dim2's first
			}
		}
		if _, err := c.InsertRows(nil, "fact", rows); err != nil {
			t.Fatal(err)
		}
		for _, del := range []struct {
			table string
			f     Filter
		}{
			{"fact", Filter{Col: "v", Lo: 1000, Hi: 1400}},
			{"fact", Filter{Col: "w", Lo: 4000, Hi: NoHi}},
			{"dim1", Filter{Col: "id", Lo: 3, Hi: 6}},
			{"dim2", Filter{Col: "id", Lo: 11, Hi: 11}},
		} {
			if _, err := c.DeleteRows(nil, del.table, []Filter{del.f}); err != nil {
				t.Fatal(err)
			}
		}
		if tbl, _ := c.Table("fact"); dn > 64 && tbl.Snapshot().LiveDelta() == dn {
			t.Fatal("fixture: no delta row deleted")
		}
		lo := int64(rng.Intn(2000))
		joined := []JoinSpec{{FKCol: "fk1", Dim: "dim1", DimPK: "id", DimFilters: []Filter{{Col: "a", Lo: 10, Hi: 80}}}}
		for qi, q := range []Query{
			{Table: "fact", Aggs: []AggSpec{{Name: "n", Func: Count}}},
			{Table: "fact", Filters: []Filter{{Col: "v", Lo: lo, Hi: lo + 1500}}, Aggs: []AggSpec{{Name: "s", Func: Sum, Expr: Col("w")}}},
			{Table: "fact", Or: [][]Filter{{{Col: "v", Lo: NoLo, Hi: lo}, {Col: "w", Lo: 3000, Hi: NoHi}}}, GroupBy: []string{"g"},
				Aggs: []AggSpec{{Name: "n", Func: Count}, {Name: "s", Func: Sum, Expr: Col("v")}}},
			{Table: "fact", Filters: []Filter{{Col: "g", Lo: 1, Hi: 3}}, Joins: joined, GroupBy: []string{"g"},
				Aggs: []AggSpec{{Name: "s", Func: Sum, Expr: DimCol("dim1", "a")}}},
			{Table: "fact", Joins: starJoins(nil, nil), Aggs: []AggSpec{{Name: "n", Func: Count}}},
			{Table: "fact", Filters: []Filter{{Col: "v", Lo: lo, Hi: NoHi}}, Or: [][]Filter{{{Col: "g", Lo: 0, Hi: 1}, {Col: "w", Lo: 0, Hi: 2000}}},
				Joins: starJoins([]Filter{{Col: "a", Lo: 0, Hi: 70}}, []Filter{{Col: "b", Lo: 20, Hi: NoHi}}), GroupBy: []string{"g"},
				Aggs: []AggSpec{{Name: "s", Func: Sum, Expr: Add(Col("w"), DimCol("dim2", "b"))}, {Name: "mx", Func: Max, Expr: DimCol("dim1", "a")}}},
		} {
			for _, workers := range []int{1, 4} {
				for _, morsel := range []int{64, 100, 0} {
					opts := ExecOpts{Threads: 1, Workers: workers, Morsel: morsel}
					label := fmt.Sprintf("delta=%d query %d workers=%d morsel=%d", dn, qi, workers, morsel)
					pl, err := c.Plan(q, ModeClassic)
					if err != nil {
						t.Fatal(err)
					}
					x, err := c.Pin(pl)
					if err != nil {
						t.Fatal(err)
					}
					lg := &x.legs[0]
					lg.st = c.newState(ctx, opts, pl.nOps)
					got, err := lg.pl.scanDelta(&lg.st, pl.tailKeys)
					if err != nil {
						t.Fatal(err)
					}
					ref := device.NewMeter(c.sys)
					want := rowDeltaScan(ref, opts.par(ctx), &lg.pl.q, lg.pl.snap, pl.tailKeys)
					if got.set.Len() != want.n {
						t.Fatalf("%s: %d rows qualify, the row loop keeps %d", label, got.set.Len(), want.n)
					}
					for _, r := range pl.tailKeys {
						vals := make([]int64, got.set.Len())
						if err := (segments{got}).fill(opts.par(ctx), r, vals); err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(vals, want.vals[r]) {
							t.Fatalf("%s: %v = %v, the row loop has %v", label, r, vals, want.vals[r])
						}
					}
					got.set.Release()
					if *lg.st.m != *ref {
						t.Fatalf("%s: meter %v, the row store's pass is %v", label, lg.st.m, ref)
					}
				}
			}
		}
	}
}
