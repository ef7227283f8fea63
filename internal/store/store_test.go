package store

import (
	"math"
	"testing"

	"repro/internal/bat"
	"repro/internal/device"
)

func newTestTable(t *testing.T, sys *device.System, n int) *Table {
	t.Helper()
	vals := make([]int64, n)
	price := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i % 1000)
		price[i] = int64(i) * 100
	}
	tbl, err := New("t",
		[]ColumnDef{{Name: "v", Scale: 1, Width: bat.Width32}, {Name: "price", Scale: 100, Width: bat.Width32}},
		[]*bat.BAT{bat.NewDense(vals, bat.Width32), bat.NewDense(price, bat.Width32)},
		sys)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestNewRejectsUnsupportedWidth: a schema is outside input (CREATE TABLE,
// a replayed WAL record), so a width the BAT layer cannot store is an error,
// not bat.NewDense's panic.
func TestNewRejectsUnsupportedWidth(t *testing.T) {
	for _, w := range []int{0, 3, 5, -1, 16} {
		defs := []ColumnDef{{Name: "k", Scale: 1, Width: bat.Width32}, {Name: "v", Scale: 1, Width: w}}
		if tbl, err := New("t", defs, nil, nil); err == nil {
			t.Errorf("width %d: New built %v", w, tbl.Name())
		}
	}
}

func TestInsertDeleteMergeLifecycle(t *testing.T) {
	sys := device.PaperSystem()
	tbl := newTestTable(t, sys, 100)
	if _, err := tbl.Decompose(nil, "v", 8); err != nil {
		t.Fatal(err)
	}

	if _, err := tbl.Insert(nil, [][]int64{{1000, 1}, {1001, 2}, {1002, 3}}); err != nil {
		t.Fatal(err)
	}
	s := tbl.Snapshot()
	if s.Len() != 103 || s.DeltaLen() != 3 || s.BaseLen() != 100 {
		t.Fatalf("after insert: len=%d delta=%d base=%d", s.Len(), s.DeltaLen(), s.BaseLen())
	}
	if got := s.DeltaValue(1, 0); got != 1001 {
		t.Fatalf("delta value = %d, want 1001", got)
	}

	// Delete one base row and one delta row.
	n, err := tbl.DeleteWhere(nil, []Range{{Col: "v", Lo: 5, Hi: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("deleted %d rows, want 1 (v==5 occurs once in 100 rows)", n)
	}
	if n, _ := tbl.DeleteWhere(nil, []Range{{Col: "v", Lo: 1001, Hi: 1001}}); n != 1 {
		t.Fatalf("delta delete removed %d rows, want 1", n)
	}
	s = tbl.Snapshot()
	if s.Len() != 101 || s.DeletedCount() != 2 {
		t.Fatalf("after deletes: len=%d deleted=%d", s.Len(), s.DeletedCount())
	}
	if !s.BaseDeleted(5) || s.BaseDeleted(6) {
		t.Fatal("base deletion bitmap wrong")
	}
	if !s.DeltaDeleted(1) || s.DeltaDeleted(0) {
		t.Fatal("delta deletion bitmap wrong")
	}

	m := device.NewMeter(sys)
	st, err := tbl.Merge(m, false)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Merged || st.DeltaRows != 2 || st.DroppedRows != 2 {
		t.Fatalf("merge stats %+v", st)
	}
	s = tbl.Snapshot()
	if s.Len() != 101 || s.DeltaLen() != 0 || s.BaseLen() != 101 || s.DeletedCount() != 0 {
		t.Fatalf("after merge: len=%d delta=%d base=%d", s.Len(), s.DeltaLen(), s.BaseLen())
	}
	if s.Dec("v") == nil {
		t.Fatal("merge dropped the decomposition")
	}
	if m.PCI == 0 {
		t.Fatal("merge charged no PCI traffic despite re-decomposition")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	tbl := newTestTable(t, nil, 10)
	pinned := tbl.Snapshot()

	if _, err := tbl.Insert(nil, [][]int64{{42, 0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.DeleteWhere(nil, nil); err != nil { // delete everything
		t.Fatal(err)
	}
	if _, err := tbl.Merge(nil, false); err != nil {
		t.Fatal(err)
	}

	// The pinned snapshot still sees the original ten rows, no delta, no
	// deletions; the current snapshot sees the emptied table.
	if pinned.Len() != 10 || pinned.DeltaLen() != 0 || pinned.DeletedCount() != 0 {
		t.Fatalf("pinned snapshot mutated: len=%d delta=%d deleted=%d",
			pinned.Len(), pinned.DeltaLen(), pinned.DeletedCount())
	}
	b, err := pinned.Column("v")
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 10 || b.Tail(5) != 5 {
		t.Fatal("pinned base column changed under reader")
	}
	if cur := tbl.Snapshot(); cur.Len() != 0 {
		t.Fatalf("current snapshot has %d rows, want 0", cur.Len())
	}
	if tbl.Epoch() <= pinned.Epoch {
		t.Fatal("epoch did not advance across writes")
	}
}

func TestMergeIncrementalShipsOnlyDelta(t *testing.T) {
	sys := device.PaperSystem()
	tbl := newTestTable(t, sys, 10_000)
	// Fix the value domain so appended rows stay inside it: the
	// decomposition parameters survive the merge and maintenance is
	// incremental.
	if _, err := tbl.Decompose(nil, "v", 4); err != nil {
		t.Fatal(err)
	}
	rows := make([][]int64, 100)
	for i := range rows {
		rows[i] = []int64{int64(i % 1000), 0}
	}
	if _, err := tbl.Insert(nil, rows); err != nil {
		t.Fatal(err)
	}
	st, err := tbl.Merge(device.NewMeter(sys), false)
	if err != nil {
		t.Fatal(err)
	}
	if st.ShippedBytes >= st.FullBytes {
		t.Fatalf("incremental merge shipped %d bytes, full re-decomposition is %d", st.ShippedBytes, st.FullBytes)
	}
	// 100 rows at 4 bits = 50 bytes.
	if st.ShippedBytes != 50 {
		t.Fatalf("shipped %d bytes, want 50", st.ShippedBytes)
	}

	// A merge after deletions compacts the base: full re-ship.
	if _, err := tbl.DeleteWhere(nil, []Range{{Col: "v", Lo: 0, Hi: 0}}); err != nil {
		t.Fatal(err)
	}
	st, err = tbl.Merge(device.NewMeter(sys), false)
	if err != nil {
		t.Fatal(err)
	}
	if st.ShippedBytes != st.FullBytes {
		t.Fatalf("compacting merge shipped %d bytes, want full %d", st.ShippedBytes, st.FullBytes)
	}
}

func TestDecomposeCompactsFirst(t *testing.T) {
	sys := device.PaperSystem()
	tbl := newTestTable(t, sys, 100)
	if _, err := tbl.Insert(nil, [][]int64{{7, 7}, {8, 8}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Decompose(nil, "v", 8); err != nil {
		t.Fatal(err)
	}
	s := tbl.Snapshot()
	if s.DeltaLen() != 0 || s.BaseLen() != 102 {
		t.Fatalf("decompose did not merge first: delta=%d base=%d", s.DeltaLen(), s.BaseLen())
	}
	if d := s.Dec("v"); d == nil || d.Len() != 102 {
		t.Fatal("decomposition does not cover merged rows")
	}
}

func TestFKIndexRebuiltOnMerge(t *testing.T) {
	n := 50
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	tbl, err := New("dim", []ColumnDef{{Name: "id", Scale: 1, Width: bat.Width32}},
		[]*bat.BAT{bat.NewDense(ids, bat.Width32)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.BuildFKIndex("id"); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(nil, [][]int64{{50}, {51}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Merge(nil, false); err != nil {
		t.Fatal(err)
	}
	ix := tbl.Snapshot().FKIndex("id")
	if ix == nil {
		t.Fatal("FK index not rebuilt on merge")
	}
	if pos, ok := ix.Lookup(51); !ok || int(pos) != 51 {
		t.Fatalf("rebuilt index lookup(51) = %d,%v", pos, ok)
	}
}

func TestDeleteOpenRanges(t *testing.T) {
	tbl := newTestTable(t, nil, 100)
	n, err := tbl.DeleteWhere(nil, []Range{{Col: "v", Lo: 90, Hi: math.MaxInt64}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("deleted %d rows, want 10", n)
	}
	if tbl.Len() != 90 {
		t.Fatalf("len = %d, want 90", tbl.Len())
	}
}

func TestSchemaEpochDistinguishesRecreation(t *testing.T) {
	a, _ := New("x", []ColumnDef{{Name: "c", Scale: 1, Width: bat.Width32}}, nil, nil)
	b, _ := New("x", []ColumnDef{{Name: "c", Scale: 100, Width: bat.Width32}}, nil, nil)
	if a.SchemaEpoch() == b.SchemaEpoch() {
		t.Fatal("re-created table shares schema epoch with the dropped one")
	}
}

func TestInsertValidatesArity(t *testing.T) {
	tbl := newTestTable(t, nil, 10)
	if _, err := tbl.Insert(nil, [][]int64{{1}}); err == nil {
		t.Fatal("short row accepted")
	}
}

func TestMergeRefusesToCompactIndexedKey(t *testing.T) {
	n := 20
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	tbl, err := New("dim", []ColumnDef{{Name: "id", Scale: 1, Width: bat.Width32}},
		[]*bat.BAT{bat.NewDense(ids, bat.Width32)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.BuildFKIndex("id"); err != nil {
		t.Fatal(err)
	}
	if n, _ := tbl.DeleteWhere(nil, []Range{{Col: "id", Lo: 2, Hi: 2}}); n != 1 {
		t.Fatalf("deleted %d, want 1", n)
	}
	// Compacting would punch a hole into the dense key the positional
	// A&R join arithmetic relies on: the merge must refuse.
	if _, err := tbl.Merge(nil, false); err == nil {
		t.Fatal("merge compacted an indexed dense key")
	}
	// The un-merged table still serves: the deletion stays bitmap-masked.
	s := tbl.Snapshot()
	if !s.BaseDeleted(2) || s.Len() != n-1 {
		t.Fatal("deletion lost after refused merge")
	}
}

func TestBuildFKIndexRejectsGappedKey(t *testing.T) {
	tbl, err := New("dim", []ColumnDef{{Name: "id", Scale: 1, Width: bat.Width32}},
		[]*bat.BAT{bat.NewDense([]int64{1, 3, 4, 5}, bat.Width32)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.BuildFKIndex("id"); err == nil {
		t.Fatal("gapped key accepted as dense FK index")
	}
}

// TestMorselsRespectSegmentEdges checks the executor scan-granule API:
// morsels cover every base and delta row exactly once, never straddle the
// base/delta segment edge, and interior boundaries are aligned to 64-row
// deletion-bitmap words.
func TestMorselsRespectSegmentEdges(t *testing.T) {
	tbl := newTestTable(t, nil, 1000)
	rows := make([][]int64, 300)
	for i := range rows {
		rows[i] = []int64{int64(i), int64(i) * 10}
	}
	if _, err := tbl.Insert(nil, rows); err != nil {
		t.Fatal(err)
	}
	s := tbl.Snapshot()
	for _, chunk := range []int{1, 64, 100, 512, 1 << 20} {
		morsels := s.Morsels(chunk)
		var baseSeen, deltaSeen int
		for _, m := range morsels {
			if m.Hi <= m.Lo {
				t.Fatalf("chunk %d: empty morsel %+v", chunk, m)
			}
			limit := s.BaseLen()
			if m.Delta {
				limit = s.DeltaLen()
				deltaSeen += m.Hi - m.Lo
			} else {
				baseSeen += m.Hi - m.Lo
			}
			if m.Hi > limit {
				t.Fatalf("chunk %d: morsel %+v crosses its segment end %d", chunk, m, limit)
			}
			if m.Lo%64 != 0 {
				t.Fatalf("chunk %d: morsel %+v not aligned to a bitmap word", chunk, m)
			}
		}
		if baseSeen != s.BaseLen() || deltaSeen != s.DeltaLen() {
			t.Fatalf("chunk %d: covered %d base + %d delta rows, want %d + %d",
				chunk, baseSeen, deltaSeen, s.BaseLen(), s.DeltaLen())
		}
		for _, m := range s.DeltaMorsels(chunk) {
			if !m.Delta {
				t.Fatalf("chunk %d: DeltaMorsels returned base morsel %+v", chunk, m)
			}
		}
	}
}
