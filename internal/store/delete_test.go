package store

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bat"
	"repro/internal/device"
)

// deleteWhereRows is DeleteWhere as it was before it walked granules: every
// base row and every delta row against every predicate, under the same
// charge. It stays as the oracle: it returns the deletion bitmap DeleteWhere
// must publish, the rows it must report, and what it must bill.
func deleteWhereRows(m *device.Meter, s *Snapshot, preds []Range) (del []uint64, removed int64) {
	t := s.t
	idx := make([]int, len(preds))
	for k, p := range preds {
		idx[k], _ = t.colIndex(p.Col)
	}
	total := s.base.n + s.deltaN
	del = make([]uint64, (total+63)/64)
	copy(del, s.del)
	removedBase := 0
	for i := 0; i < total; i++ {
		if bitSet(del, i) {
			continue
		}
		match := true
		for k, p := range preds {
			v := int64(0)
			if i < s.base.n {
				v = s.base.cols[idx[k]].Tail(i)
			} else {
				v = s.DeltaValue(i-s.base.n, idx[k])
			}
			match = match && v >= p.Lo && v <= p.Hi
		}
		if match {
			setBit(del, i)
			removed++
			if i < s.base.n {
				removedBase++
			}
		}
	}
	var scanned int64
	for k := range preds {
		scanned += s.base.cols[idx[k]].TailBytes()
	}
	m.CPUWork(1, scanned+s.DeltaBytes(), 0, int64(total)*int64(max(1, len(preds))))
	if removedBase > 0 {
		m.Transfer(int64((s.base.n + 7) / 8))
	}
	return del, removed
}

// DeleteWhere against the row loop: a monotone decomposed column (the
// `ts between a and a+63` of the ingest workload), a clustered decomposed one
// with residual bits, a column that was never decomposed; no predicate, one,
// several, one that matches nothing; delta rows behind a base whose length is
// no multiple of 64; and each statement on top of what the earlier ones
// deleted.
func TestDeleteWhereMatchesRowLoop(t *testing.T) {
	sys := device.PaperSystem()
	for _, n := range []int{64*30 + 21, 64 * 8, 1} {
		rng := rand.New(rand.NewSource(int64(n)))
		ts, runs, plain := make([]int64, n), make([]int64, n), make([]int64, n)
		for i, at := 0, int64(0); i < n; i++ {
			if i%90 == 0 {
				at = rng.Int63n(1 << 20)
			}
			at += rng.Int63n(9) - 4
			ts[i], runs[i], plain[i] = int64(1000+i), at, rng.Int63n(50)
		}
		schema := []ColumnDef{{Name: "ts", Scale: 1, Width: bat.Width32}, {Name: "runs", Scale: 1, Width: bat.Width32}, {Name: "plain", Scale: 1, Width: bat.Width32}}
		tbl, err := New("t", schema, []*bat.BAT{bat.NewDense(ts, bat.Width32), bat.NewDense(runs, bat.Width32), bat.NewDense(plain, bat.Width32)}, sys)
		if err != nil {
			t.Fatal(err)
		}
		for col, bits := range map[string]uint{"ts": 32, "runs": 12} {
			if _, err := tbl.Decompose(nil, col, bits); err != nil {
				t.Fatal(err)
			}
		}
		rows := make([][]int64, 100)
		for i := range rows {
			rows[i] = []int64{int64(1000 + n + i), rng.Int63n(1 << 20), rng.Int63n(50)}
		}
		if _, err := tbl.Insert(nil, rows); err != nil {
			t.Fatal(err)
		}

		a := int64(1000 + rng.Intn(n+100))
		at := runs[rng.Intn(n)]
		for si, preds := range [][]Range{
			{{Col: "ts", Lo: a, Hi: a + 63}},
			{{Col: "ts", Lo: a, Hi: a + 63}}, // again: everything it matches is gone
			{{Col: "runs", Lo: at - 300, Hi: at + 300}},
			{{Col: "plain", Lo: 7, Hi: 9}},
			{{Col: "runs", Lo: 0, Hi: 1 << 19}, {Col: "plain", Lo: 0, Hi: 20}, {Col: "ts", Lo: math.MinInt64, Hi: a + int64(n)/2}},
			{{Col: "plain", Lo: 30, Hi: 40}, {Col: "ts", Lo: a - 200, Hi: a + 200}},
			{{Col: "runs", Lo: 5, Hi: 4}},
			{},
		} {
			label := fmt.Sprintf("n=%d statement %d %v", n, si, preds)
			before := tbl.Snapshot()
			want, got := device.NewMeter(sys), device.NewMeter(sys)
			wantDel, wantRemoved := deleteWhereRows(want, before, preds)
			removed, err := tbl.DeleteWhere(got, preds)
			if err != nil {
				t.Fatal(err)
			}
			after := tbl.Snapshot()
			if removed != wantRemoved {
				t.Fatalf("%s: %d rows deleted, the row loop deletes %d", label, removed, wantRemoved)
			}
			if removed > 0 && !slices.Equal(after.del, wantDel) {
				t.Fatalf("%s: deletion bitmap differs from the row loop's", label)
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
			t.Fatalf("n=%d: %d rows survive a DELETE without a predicate", n, s.Len())
		}
	}
}
