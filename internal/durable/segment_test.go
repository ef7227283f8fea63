package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/store"
)

// testTable builds a store table with a dense key column (FK-indexed), a
// decomposed measure, and a plain column — one of each persistence shape.
func testTable(t testing.TB, sys *device.System, n int) *store.Table {
	t.Helper()
	ids := make([]int64, n)
	xs := make([]int64, n)
	ys := make([]int64, n)
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		xs[i] = int64((i * 37) % 1024)
		ys[i] = int64(i%100) - 50
	}
	defs := []store.ColumnDef{
		{Name: "id", Scale: 1, Width: 4},
		{Name: "x", Scale: 1, Width: 4},
		{Name: "y", Scale: 100, Width: 8},
	}
	cols := make([]*bwd.Column, len(defs))
	for i, vals := range [][]int64{ids, xs, ys} {
		c, err := bwd.Decompose(vals, defs[i].Width, 0, sys)
		if err != nil {
			t.Fatal(err)
		}
		cols[i] = c
	}
	tbl, err := store.New("pts", defs, cols, sys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Decompose(nil, "x", 6); err != nil {
		t.Fatal(err)
	}
	if err := tbl.BuildFKIndex("id"); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// segmentBytes encodes a table's current snapshot into memory.
func segmentBytes(tbl *store.Table, lsn uint64) ([]byte, error) {
	var buf bytes.Buffer
	n, err := encodeSegment(&buf, tbl, tbl.Snapshot(), lsn)
	if err == nil && n != int64(buf.Len()) {
		err = fmt.Errorf("encodeSegment reports %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes(), err
}

func TestSegmentRoundtrip(t *testing.T) {
	sys := device.PaperSystem()
	tbl := testTable(t, sys, 500)
	data, err := segmentBytes(tbl, 17)
	if err != nil {
		t.Fatal(err)
	}
	st, err := decodeSegment(data, sys)
	if err != nil {
		t.Fatal(err)
	}
	if st.lsn != 17 {
		t.Fatalf("decoded lsn %d, want 17", st.lsn)
	}
	// Every column comes back as its decomposition alone: a decomposed one's
	// planes as written, the tails the segment holds for it read past; one
	// never decomposed packed from its tails with no device bits, which keep
	// neither the tails nor device memory.
	for i, def := range st.schema {
		if d := st.cols[i]; (d.Dec.ApproxBits > 0) != (def.Name == "x") || d.Dec.ApproxBits == 0 && (d.Approx != nil || d.GPUBytes() != 0) {
			t.Fatalf("%s: decoded %v", def.Name, d.Dec)
		}
	}
	restored, err := store.Restore("pts", st.schema, st.cols, st.decBits, st.pkCols, sys)
	if err != nil {
		t.Fatal(err)
	}
	want, got := tbl.Snapshot(), restored.Snapshot()
	if got.BaseLen() != want.BaseLen() || got.DeltaLen() != 0 {
		t.Fatalf("restored %d base rows, want %d", got.BaseLen(), want.BaseLen())
	}
	for _, def := range tbl.Schema() {
		wt, _ := want.BaseValues(def.Name, 0, want.BaseLen(), nil)
		gt, err := got.BaseValues(def.Name, 0, got.BaseLen(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if gw, _ := restored.ColumnWidth(def.Name); gw != def.Width {
			t.Fatalf("%s: width %d, want %d", def.Name, gw, def.Width)
		}
		for i := range wt {
			if wt[i] != gt[i] {
				t.Fatalf("%s[%d] = %d, want %d", def.Name, i, gt[i], wt[i])
			}
		}
	}
	wd, gd := want.Dec("x"), got.Dec("x")
	if gd == nil {
		t.Fatal("restored table lost the decomposition of x")
	}
	if wd.Dec != gd.Dec {
		t.Fatalf("decomposition params %+v, want %+v", gd.Dec, wd.Dec)
	}
	for i := 0; i < want.BaseLen(); i++ {
		if wv, gv := wd.Approx.Get(i), gd.Approx.Get(i); wv != gv {
			t.Fatalf("approx[%d] = %d, want %d", i, gv, wv)
		}
		if wv, gv := wd.Residual.Get(i), gd.Residual.Get(i); wv != gv {
			t.Fatalf("residual[%d] = %d, want %d", i, gv, wv)
		}
	}
	if got.FKIndex("id") == nil {
		t.Fatal("restored table lost the FK index on id")
	}
	scale, err := restored.ColumnScale("y")
	if err != nil || scale != 100 {
		t.Fatalf("restored scale of y = %d, %v; want 100", scale, err)
	}
}

// TestSegmentBytesPinned: the segment format is what data directories on
// disk hold, so the encoder must keep producing it byte for byte. The fixture
// is testTable(100) at LSN 17 as the commit before the streaming encoder
// wrote it. 500 rows cross the encoder's buffer several times; the fixture's
// prefix properties are checked on that one too.
func TestSegmentBytesPinned(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "pts_100_lsn17.seg"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := segmentBytes(testTable(t, device.PaperSystem(), 100), 17)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoded segment (%d bytes) differs from the pinned fixture (%d bytes)", len(got), len(want))
	}
	// A table larger than the encoder's buffer: the checksum, folded in as
	// the buffer drains, must still be the checksum of the whole body.
	big, err := segmentBytes(testTable(t, device.PaperSystem(), 20_000), 17)
	if err != nil {
		t.Fatal(err)
	}
	body, tail := big[:len(big)-4], big[len(big)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		t.Fatal("streamed checksum is not the checksum of the body")
	}
}

// TestSegmentRejectsDelta: a snapshot with unmerged rows or deletions must
// not silently persist as a pure base.
func TestSegmentRejectsDelta(t *testing.T) {
	sys := device.PaperSystem()
	tbl := testTable(t, sys, 50)
	if _, err := tbl.Insert(nil, [][]int64{{50, 1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := segmentBytes(tbl, 1); err == nil {
		t.Fatal("segment encoded over a non-empty delta")
	}
}

// TestSegmentCorruptionDetected flips bytes across the file and asserts
// decode never accepts the result (the body CRC covers everything).
func TestSegmentCorruptionDetected(t *testing.T) {
	sys := device.PaperSystem()
	tbl := testTable(t, sys, 100)
	data, err := segmentBytes(tbl, 3)
	if err != nil {
		t.Fatal(err)
	}
	step := len(data)/64 + 1
	for off := 0; off < len(data); off += step {
		corrupt := append([]byte(nil), data...)
		corrupt[off] ^= 0x10
		if _, err := decodeSegment(corrupt, sys); err == nil {
			t.Fatalf("corruption at byte %d accepted", off)
		}
	}
	for cut := 0; cut < len(data); cut += step {
		if _, err := decodeSegment(data[:cut], sys); err == nil {
			t.Fatalf("truncation at byte %d accepted", cut)
		}
	}
}

// restamp recomputes the trailing CRC so a deliberate corruption reaches
// the structural checks behind it.
func restamp(data []byte) {
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.Checksum(data[:len(data)-4], crcTable))
}

// TestSegmentRejectsAbsurdCounts: counts read from a CRC-valid file are
// still untrusted — a huge row or plane word count must surface as a
// decode error, not overflow the size checks and panic allocating.
func TestSegmentRejectsAbsurdCounts(t *testing.T) {
	sys := device.PaperSystem()
	tbl := testTable(t, sys, 16)
	data, err := segmentBytes(tbl, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The row count sits after the magic (8), version (4) and LSN (8).
	for _, huge := range []uint64{1 << 61, math.MaxUint64} {
		corrupt := append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(corrupt[20:], huge)
		restamp(corrupt)
		if _, err := decodeSegment(corrupt, sys); err == nil {
			t.Fatalf("row count %d accepted", huge)
		}
	}
	// Sweep a huge u64 across every offset (CRC restamped each time):
	// whatever field it lands on — plane word counts, widths, parameters —
	// decode must return, never panic.
	for off := len(segMagic); off+8 <= len(data)-4; off++ {
		corrupt := append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(corrupt[off:], 1<<61)
		restamp(corrupt)
		decodeSegment(corrupt, sys)
	}
}

func TestSegmentFiles(t *testing.T) {
	dir := t.TempDir()
	sys := device.PaperSystem()
	tbl := testTable(t, sys, 64)
	data, err := segmentBytes(tbl, 9)
	if err != nil {
		t.Fatal(err)
	}
	path, size, err := writeSegment(dir, "pts", 9, true, func(w io.Writer) (int64, error) {
		return encodeSegment(w, tbl, tbl.Snapshot(), 9)
	})
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(len(data)) {
		t.Fatalf("size %d, want %d", size, len(data))
	}
	if onDisk, err := os.ReadFile(path); err != nil || !bytes.Equal(onDisk, data) {
		t.Fatalf("segment file differs from the in-memory encoding (%v)", err)
	}
	table, lsn, ok := parseSegName(filepath.Base(path))
	if !ok || table != "pts" || lsn != 9 {
		t.Fatalf("parseSegName(%s) = %s, %d, %v", filepath.Base(path), table, lsn, ok)
	}
	// A stray temp file from a crashed write must not be listed.
	if err := os.WriteFile(filepath.Join(dir, segName("pts", 12)+".tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs["pts"]) != 1 || segs["pts"][0].lsn != 9 {
		t.Fatalf("listSegments = %+v, want one pts segment at lsn 9", segs)
	}
	for _, bad := range []string{"pts.seg", "pts.12.seg", "noext", "pts..seg"} {
		if _, _, ok := parseSegName(bad); ok {
			t.Fatalf("parseSegName accepted %q", bad)
		}
	}
}

// FuzzSegmentDecode asserts decodeSegment never panics and never allocates
// beyond what the file itself can describe, whatever bytes it is handed:
// segment files are read back from disk at every boot. The checksum guards
// the structural checks behind it, so each input is also tried with its
// trailer restamped; a file that decodes must restore or be refused, never
// crash recovery.
func FuzzSegmentDecode(f *testing.F) {
	empty, err := store.New("pts", []store.ColumnDef{{Name: "id", Scale: 1, Width: 4}}, nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	sys := device.PaperSystem()
	for _, tbl := range []*store.Table{empty, testTable(f, sys, 1), testTable(f, sys, 16), testTable(f, sys, 100)} {
		data, err := segmentBytes(tbl, 17)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add(append(segMagic[:], bytes.Repeat([]byte{0xff}, 40)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		try := func(data []byte) {
			st, err := decodeSegment(data, nil)
			if err != nil {
				return
			}
			var held int
			for _, c := range st.cols {
				if c != nil {
					held += 8 * c.Len()
				}
			}
			if held > len(data) {
				t.Fatalf("decoded %d bytes of column values from a %d-byte file", held, len(data))
			}
			store.Restore("pts", st.schema, st.cols, st.decBits, st.pkCols, nil)
		}
		try(data)
		if len(data) >= 4 {
			sealed := append([]byte(nil), data...)
			restamp(sealed)
			try(sealed)
		}
	})
}
