package store

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/bwd"
	"repro/internal/device"
)

// deleteWhereRows is DeleteWhere as it was before it walked granules: every
// base row and every delta row against every predicate, under the same
// charge. It stays as the oracle: it returns which base and delta rows
// DeleteWhere must leave deleted, the rows it must report, and what it must
// bill.
func deleteWhereRows(m *device.Meter, s *Snapshot, preds []Range) (base, delta []bool, removed int64) {
	t := s.t
	idx := make([]int, len(preds))
	for k, p := range preds {
		idx[k], _ = t.colIndex(p.Col)
	}
	mark := func(dead []bool, deleted func(int) bool, value func(row, c int) int64) (removed int64) {
		for r := range dead {
			if dead[r] = deleted(r); dead[r] {
				continue
			}
			match := true
			for k, p := range preds {
				v := value(r, idx[k])
				match = match && v >= p.Lo && v <= p.Hi
			}
			if match {
				dead[r] = true
				removed++
			}
		}
		return removed
	}
	base, delta = make([]bool, s.base.n), make([]bool, s.deltaN)
	cols := make([][]int64, len(t.schema))
	for c := range cols {
		cols[c] = s.base.values(c, 0, s.base.n, nil)
	}
	removedBase := mark(base, s.BaseDeleted, func(r, c int) int64 { return cols[c][r] })
	removed = removedBase + mark(delta, s.DeltaDeleted, s.DeltaValue)
	var scanned int64
	for k := range preds {
		scanned += int64(s.base.n) * int64(t.schema[idx[k]].Width)
	}
	m.CPUWork(1, scanned+s.DeltaBytes(), 0, int64(s.base.n+s.deltaN)*int64(max(1, len(preds))))
	if removedBase > 0 {
		m.Transfer(int64((s.base.n + 7) / 8))
	}
	return base, delta, removed
}

// DeleteWhere against the row loop: a monotone decomposed column (the
// `ts between a and a+63` of the ingest workload), a clustered decomposed one
// with residual bits, a column that was never decomposed; no predicate, one,
// several, one that matches nothing; deltas of one row, of a granule's
// length either side of it and of many granules, behind a base whose length
// is no multiple of 64; and each statement on top of what the earlier ones
// deleted, in the base and in the delta.
func TestDeleteWhereMatchesRowLoop(t *testing.T) {
	sys := device.PaperSystem()
	for _, n := range []int{64*30 + 21, 64 * 8, 1} {
		for _, dn := range []int{1, 63, 64, 65, 1000} {
			rng := rand.New(rand.NewSource(int64(n*7 + dn)))
			ts, runs, plain := make([]int64, n), make([]int64, n), make([]int64, n)
			for i, at := 0, int64(0); i < n; i++ {
				if i%90 == 0 {
					at = rng.Int63n(1 << 20)
				}
				at += rng.Int63n(9) - 4
				ts[i], runs[i], plain[i] = int64(1000+i), at, rng.Int63n(50)
			}
			schema := []ColumnDef{{Name: "ts", Scale: 1, Width: bat.Width32}, {Name: "runs", Scale: 1, Width: bat.Width32}, {Name: "plain", Scale: 1, Width: bat.Width32}}
			tbl, err := New("t", schema, []*bwd.Column{stored(ts, bat.Width32), stored(runs, bat.Width32), stored(plain, bat.Width32)}, sys)
			if err != nil {
				t.Fatal(err)
			}
			for col, bits := range map[string]uint{"ts": 32, "runs": 12} {
				if _, err := tbl.Decompose(nil, col, bits); err != nil {
					t.Fatal(err)
				}
			}
			rows := make([][]int64, dn)
			for i := range rows {
				rows[i] = []int64{int64(1000 + n + i), rng.Int63n(1 << 20), rng.Int63n(50)}
			}
			if _, err := tbl.Insert(nil, rows); err != nil {
				t.Fatal(err)
			}

			a := int64(1000 + rng.Intn(n+dn))
			at := runs[rng.Intn(n)]
			mid := int64(1000 + n + dn/2)
			for si, preds := range [][]Range{
				{{Col: "ts", Lo: mid, Hi: mid + 10}}, // delta rows only
				{{Col: "ts", Lo: a, Hi: a + 63}},
				{{Col: "ts", Lo: a, Hi: a + 63}}, // again: everything it matches is gone
				{{Col: "runs", Lo: at - 300, Hi: at + 300}},
				{{Col: "plain", Lo: 7, Hi: 9}},
				{{Col: "runs", Lo: 0, Hi: 1 << 19}, {Col: "plain", Lo: 0, Hi: 20}, {Col: "ts", Lo: math.MinInt64, Hi: a + int64(n)/2}},
				{{Col: "plain", Lo: 30, Hi: 40}, {Col: "ts", Lo: a - 200, Hi: a + 200}},
				{{Col: "runs", Lo: 5, Hi: 4}},
				{},
			} {
				label := fmt.Sprintf("n=%d delta=%d statement %d %v", n, dn, si, preds)
				before := tbl.Snapshot()
				want, got := device.NewMeter(sys), device.NewMeter(sys)
				wantBase, wantDelta, wantRemoved := deleteWhereRows(want, before, preds)
				removed, err := tbl.DeleteWhere(got, preds)
				if err != nil {
					t.Fatal(err)
				}
				after := tbl.Snapshot()
				if removed != wantRemoved {
					t.Fatalf("%s: %d rows deleted, the row loop deletes %d", label, removed, wantRemoved)
				}
				for i, dead := range wantBase {
					if after.BaseDeleted(i) != dead {
						t.Fatalf("%s: base row %d deleted=%v, the row loop says %v", label, i, after.BaseDeleted(i), dead)
					}
				}
				for j, dead := range wantDelta {
					if after.DeltaDeleted(j) != dead {
						t.Fatalf("%s: delta row %d deleted=%v, the row loop says %v", label, j, after.DeltaDeleted(j), dead)
					}
				}
				if len(after.DeletedWords()) > (n+63)/64 || len(after.DeltaDeletedWords()) > (dn+63)/64 {
					t.Fatalf("%s: deletion words run past their segment", label)
				}
				if removed == 0 && after != before {
					t.Fatalf("%s: nothing deleted, yet a snapshot was published", label)
				}
				if int64(before.Len()-after.Len()) != removed {
					t.Fatalf("%s: live rows %d -> %d for %d deleted", label, before.Len(), after.Len(), removed)
				}
				if *got != *want {
					t.Fatalf("%s: meter %v, the row loop charges %v", label, got, want)
				}
			}
			if s := tbl.Snapshot(); s.Len() != 0 {
				t.Fatalf("n=%d delta=%d: %d rows survive a DELETE without a predicate", n, dn, s.Len())
			}
		}
	}
}
