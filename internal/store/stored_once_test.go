package store

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bat"
	"repro/internal/bwd"
	"repro/internal/device"
)

// Every column is held once, as its approximation and residual: after a
// load, a decomposition, an incremental and a compacting merge, a
// re-decomposition at a new width and a restore from persisted state, the
// base keeps no full-width copy of any column — and its values, decoded, are
// the ones loaded, inserted and not deleted. The columns need 20 significant
// bits and are decomposed at 24 (no residual bit), 40 at 8 (32 residual bits)
// and all 64 at 32 (the span of int64); a plain column is never decomposed:
// it is held with no device bits, the 7 bits of its span packed in the
// residual, no device allocation, and the planner is told it is not decomposed (Dec). The
// table crosses a decode block and ends mid-granule. A restore is handed the
// plain column packed anew from its values, as durable's segment decoder
// builds it (its round trip checks that the decoder does).
func TestDecomposedColumnStoredOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	sys := device.PaperSystem()
	bits := []uint{24, 8, 32, 0}
	row := func() []int64 {
		return []int64{rng.Int63n(1 << 20), rng.Int63n(1 << 40), int64(rng.Uint64()), rng.Int63n(100)}
	}
	n := bwd.BlockRows + 77
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = row()
	}
	rows[0][2], rows[1][2] = math.MinInt64, math.MaxInt64 // all 64 bits in use
	schema := []ColumnDef{{"resident", 1, bat.Width32}, {"residual", 1, bat.Width64}, {"full", 1, bat.Width64}, {"plain", 1, bat.Width8}}
	column := func(c int) *bwd.Column {
		vals := make([]int64, len(rows))
		for i, r := range rows {
			vals[i] = r[c]
		}
		return stored(vals, schema[c].Width)
	}
	cols := make([]*bwd.Column, len(schema))
	for c := range cols {
		cols[c] = column(c)
	}
	tbl, err := New("t", schema, cols, sys)
	if err != nil {
		t.Fatal(err)
	}
	gpu := sys.GPU.Used()

	check := func(tbl *Table, step string, bits []uint) {
		t.Helper()
		s := tbl.Snapshot()
		if s.DeltaLen() != 0 || s.BaseLen() != len(rows) {
			t.Fatalf("%s: %d base rows and %d delta rows, want %d and none", step, s.BaseLen(), s.DeltaLen(), len(rows))
		}
		for c, def := range schema {
			d := s.base.cols[c]
			if (d.Dec.ApproxBits > 0) != (bits[c] > 0) || (s.Dec(def.Name) != nil) != (bits[c] > 0) {
				t.Fatalf("%s: %s has %d device bits, want %d", step, def.Name, d.Dec.ApproxBits, bits[c])
			}
			if res := d.Dec.ResBits; bits[c] == 0 && (d.Approx != nil || d.GPUBytes() != 0 || res != d.Dec.TotalBits || d.CPUBytes() != int64(d.Len()*int(res)+63)/64*8) {
				t.Fatalf("%s: %s holds %d B on the device and %d B on the host, want none and its %d-bit residual", step, def.Name, d.GPUBytes(), d.CPUBytes(), d.Dec.TotalBits)
			}
			got, err := s.BaseValues(def.Name, 0, s.BaseLen(), nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range rows {
				if got[i] != r[c] {
					t.Fatalf("%s: %s[%d] = %d, want %d", step, def.Name, i, got[i], r[c])
				}
			}
		}
	}
	check(tbl, "load", make([]uint, len(schema)))
	if sys.GPU.Used() != gpu {
		t.Fatal("the load took device memory")
	}
	resBits := func(c int) uint { return tbl.Snapshot().base.cols[c].Dec.ResBits }
	for c, def := range schema[:3] {
		if _, err := tbl.Decompose(nil, def.Name, bits[c]); err != nil {
			t.Fatal(err)
		}
	}
	check(tbl, "decompose", bits)
	if resBits(0) != 0 || resBits(1) != 32 || resBits(2) != 32 {
		t.Fatal("fixture: the columns do not have 0, 32 and 32 residual bits")
	}

	// Rows inside every column's range: the merge ships the new codes only.
	var fresh [][]int64
	for range 100 {
		r := slices.Clone(rows[2+rng.Intn(n-2)])
		r[3] = rng.Int63n(100)
		fresh = append(fresh, r)
	}
	if _, err := tbl.Insert(nil, fresh); err != nil {
		t.Fatal(err)
	}
	st, err := tbl.Merge(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.ShippedBytes >= st.FullBytes {
		t.Fatalf("fixture: the merge shipped %d of %d bytes, not incremental", st.ShippedBytes, st.FullBytes)
	}
	rows = append(rows, fresh...)
	check(tbl, "incremental merge", bits)

	// Deleted rows move the rest: the merge compacts.
	drop := Range{Col: "plain", Lo: 10, Hi: 19}
	if _, err := tbl.DeleteWhere(nil, []Range{drop}); err != nil {
		t.Fatal(err)
	}
	last := row()
	if _, err := tbl.Insert(nil, [][]int64{last}); err != nil {
		t.Fatal(err)
	}
	if st, err = tbl.Merge(nil, false); err != nil {
		t.Fatal(err)
	}
	if st.DroppedRows == 0 {
		t.Fatal("fixture: the merge dropped no row")
	}
	rows = append(slices.DeleteFunc(rows, func(r []int64) bool { return r[3] >= drop.Lo && r[3] <= drop.Hi }), last)
	check(tbl, "compacting merge", bits)

	// New widths, read from the decompositions: the resident column gains
	// residual bits, the other one loses some.
	bits[0], bits[1] = 8, 20
	for c, def := range schema[:2] {
		if _, err := tbl.Decompose(nil, def.Name, bits[c]); err != nil {
			t.Fatal(err)
		}
	}
	if resBits(0) != 12 || resBits(1) != 20 {
		t.Fatal("fixture: the re-decomposed columns do not have 12 and 20 residual bits")
	}
	check(tbl, "re-decompose", bits)

	copy(cols, tbl.Snapshot().base.cols)
	cols[3] = column(3)
	restored, err := Restore("t", schema, cols, tbl.DecBits(), tbl.PKCols(), sys)
	if err != nil {
		t.Fatal(err)
	}
	check(restored, "restore", bits)
}
