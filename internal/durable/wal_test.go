package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/store"
)

func testRecords() []Record {
	return []Record{
		{Type: recCreate, Table: "kv", Defs: []store.ColumnDef{
			{Name: "k", Scale: 1, Width: 4}, {Name: "v", Scale: 100, Width: 8},
		}},
		{Type: recInsert, Table: "kv", Rows: [][]int64{{1, 100}, {2, -200}, {3, 300}}},
		{Type: recDelete, Table: "kv", Preds: []store.Range{{Col: "k", Lo: 2, Hi: 2}}},
		{Type: recDecompose, Table: "kv", Col: "v", Bits: 12},
		{Type: recFKIndex, Table: "kv", Col: "k"},
		{Type: recDrop, Table: "kv"},
	}
}

func sameRecord(a, b Record) bool {
	if a.LSN != b.LSN || a.Type != b.Type || a.Table != b.Table || a.Col != b.Col || a.Bits != b.Bits {
		return false
	}
	if len(a.Defs) != len(b.Defs) || len(a.Rows) != len(b.Rows) || len(a.Preds) != len(b.Preds) {
		return false
	}
	for i := range a.Defs {
		if a.Defs[i] != b.Defs[i] {
			return false
		}
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				return false
			}
		}
	}
	for i := range a.Preds {
		if a.Preds[i] != b.Preds[i] {
			return false
		}
	}
	return true
}

func TestRecordRoundtrip(t *testing.T) {
	for _, rec := range testRecords() {
		rec.LSN = 42
		payload, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("%s: encode: %v", rec.kindString(), err)
		}
		got, err := DecodeRecord(payload)
		if err != nil {
			t.Fatalf("%s: decode: %v", rec.kindString(), err)
		}
		if !sameRecord(rec, got) {
			t.Fatalf("%s: roundtrip mismatch:\n in  %+v\n out %+v", rec.kindString(), rec, got)
		}
	}
}

// badWidthRecords are create records no encoder of this program writes: a
// column three bytes wide. Replaying one used to reach bat.NewDense's panic.
func badWidthRecords() []Record {
	defs := []store.ColumnDef{{Name: "k", Scale: 1, Width: 4}, {Name: "v", Scale: 1, Width: 3}}
	return []Record{
		{LSN: 7, Type: recCreate, Table: "kv", Defs: defs},
		{LSN: 7, Type: recCreatePart, Table: "kv", Defs: defs, Col: "k", PartN: 2},
	}
}

func TestDecodeRecordRejectsBadWidth(t *testing.T) {
	for _, rec := range badWidthRecords() {
		payload, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := DecodeRecord(payload); err == nil {
			t.Errorf("record type %d with a 3-byte column decoded: %+v", rec.Type, got)
		}
	}
}

func TestDecodeRecordRejectsTrailingBytes(t *testing.T) {
	payload, err := encodeRecord(Record{LSN: 1, Type: recDrop, Table: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRecord(append(payload, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// openTestWAL opens a WAL collecting replayed records.
func openTestWAL(t *testing.T, path string, policy Policy) (*wal, []Record, int64) {
	t.Helper()
	var replayed []Record
	w, truncated, err := openWAL(path, policy, 0, nil, 0, func(rec Record, _ int64) error {
		replayed = append(replayed, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, replayed, truncated
}

func TestWALAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, _ := openTestWAL(t, path, SyncAlways)
	want := testRecords()
	for i := range want {
		if err := w.append(&want[i]); err != nil {
			t.Fatal(err)
		}
		if want[i].LSN != uint64(i+1) {
			t.Fatalf("append %d assigned LSN %d", i, want[i].LSN)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, replayed, truncated := openTestWAL(t, path, SyncAlways)
	defer w2.Close()
	if truncated != 0 {
		t.Fatalf("clean log truncated %d bytes", truncated)
	}
	if len(replayed) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(replayed), len(want))
	}
	for i := range want {
		if !sameRecord(want[i], replayed[i]) {
			t.Fatalf("record %d mismatch:\n in  %+v\n out %+v", i, want[i], replayed[i])
		}
	}
	if got := w2.lastAssigned(); got != uint64(len(want)) {
		t.Fatalf("lastAssigned after replay = %d, want %d", got, len(want))
	}
}

// TestWALTornTail covers invariant 2: a hard cut at every possible byte
// offset must recover exactly the records whose frames are fully within
// the cut, and the torn remainder must be truncated away so appends resume
// on a valid log.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, _, _ := openTestWAL(t, path, SyncAlways)
	recs := testRecords()
	ends := []int64{int64(len(walMagic))}
	for i := range recs {
		if err := w.append(&recs[i]); err != nil {
			t.Fatal(err)
		}
		w.mu.Lock()
		ends = append(ends, w.size)
		w.mu.Unlock()
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := int64(len(walMagic)); cut <= int64(len(full)); cut++ {
		cutPath := filepath.Join(dir, "cut.log")
		if err := os.WriteFile(cutPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantN := 0
		for _, end := range ends[1:] {
			if end <= cut {
				wantN++
			}
		}
		w2, replayed, truncated := openTestWAL(t, cutPath, SyncAlways)
		if len(replayed) != wantN {
			t.Fatalf("cut at %d: replayed %d records, want %d", cut, len(replayed), wantN)
		}
		if wantTrunc := cut - ends[wantN]; truncated != wantTrunc {
			t.Fatalf("cut at %d: truncated %d bytes, want %d", cut, truncated, wantTrunc)
		}
		// The log must keep working after truncation.
		rec := Record{Type: recInsert, Table: "kv", Rows: [][]int64{{9, 9}}}
		if err := w2.append(&rec); err != nil {
			t.Fatalf("cut at %d: append after truncation: %v", cut, err)
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		w3, replayed3, _ := openTestWAL(t, cutPath, SyncAlways)
		if len(replayed3) != wantN+1 {
			t.Fatalf("cut at %d: reopen replayed %d records, want %d", cut, len(replayed3), wantN+1)
		}
		w3.Close()
	}
}

// TestWALChecksumRejected covers the "no frame accepted on a failed
// checksum" half of invariant 2: flipping any payload byte of the last
// frame must drop that frame (and only that frame).
func TestWALChecksumRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, _, _ := openTestWAL(t, path, SyncAlways)
	recs := testRecords()[:3]
	var lastStart int64
	for i := range recs {
		w.mu.Lock()
		lastStart = w.size
		w.mu.Unlock()
		if err := w.append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := lastStart + frameHeaderLen; off < int64(len(full)); off++ {
		corrupt := append([]byte(nil), full...)
		corrupt[off] ^= 0x40
		cutPath := filepath.Join(dir, "corrupt.log")
		if err := os.WriteFile(cutPath, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		w2, replayed, truncated := openTestWAL(t, cutPath, SyncAlways)
		if len(replayed) != len(recs)-1 {
			t.Fatalf("flip at %d: replayed %d records, want %d", off, len(replayed), len(recs)-1)
		}
		if truncated == 0 {
			t.Fatalf("flip at %d: corrupt frame not truncated", off)
		}
		w2.Close()
	}
}

// TestWALGroupCommit hammers concurrent appends under SyncAlways: every
// append must come back with a unique LSN and survive a reopen. Run with
// -race to exercise the leader/follower handoff.
func TestWALGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, _ := openTestWAL(t, path, SyncAlways)
	const workers, per = 8, 25
	lsns := make([][]uint64, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rec := Record{Type: recInsert, Table: "kv", Rows: [][]int64{{int64(g), int64(i)}}}
				if err := w.append(&rec); err != nil {
					t.Error(err)
					return
				}
				lsns[g] = append(lsns[g], rec.LSN)
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	for g := range lsns {
		for i, lsn := range lsns[g] {
			if seen[lsn] {
				t.Fatalf("duplicate LSN %d", lsn)
			}
			seen[lsn] = true
			if i > 0 && lsns[g][i-1] >= lsn {
				t.Fatalf("worker %d: LSNs not increasing: %d then %d", g, lsns[g][i-1], lsn)
			}
		}
	}
	w2, replayed, truncated := openTestWAL(t, path, SyncAlways)
	defer w2.Close()
	if truncated != 0 || len(replayed) != workers*per {
		t.Fatalf("reopen: %d records (truncated %d), want %d", len(replayed), truncated, workers*per)
	}
}

// TestWALRewrite drops a covered prefix and checks the survivors replay.
func TestWALRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, _ := openTestWAL(t, path, SyncAlways)
	for i := 0; i < 10; i++ {
		rec := Record{Type: recInsert, Table: "kv", Rows: [][]int64{{int64(i)}}}
		if err := w.append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	before := w.size
	if err := w.rewrite(func(h frameHead) bool { return h.LSN <= 6 }); err != nil {
		t.Fatal(err)
	}
	if w.size >= before {
		t.Fatalf("rewrite did not shrink the log: %d -> %d", before, w.size)
	}
	if w.records != 4 {
		t.Fatalf("rewrite kept %d records, want 4", w.records)
	}
	// Appends must keep working and the next LSN must not regress.
	rec := Record{Type: recInsert, Table: "kv", Rows: [][]int64{{99}}}
	if err := w.append(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.LSN != 11 {
		t.Fatalf("LSN after rewrite = %d, want 11", rec.LSN)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, replayed, _ := openTestWAL(t, path, SyncAlways)
	defer w2.Close()
	if len(replayed) != 5 {
		t.Fatalf("reopen replayed %d records, want 5", len(replayed))
	}
	if replayed[0].LSN != 7 || replayed[4].LSN != 11 {
		t.Fatalf("survivor LSNs %d..%d, want 7..11", replayed[0].LSN, replayed[4].LSN)
	}
}

// TestWALRewriteNothingCovered: a rewrite that finds no covered frame writes
// nothing — no temp file, no swap, the log file and its counters as they
// were — even where it could not have written (the temp path is occupied).
func TestWALRewriteNothingCovered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, _ := openTestWAL(t, path, SyncAlways)
	defer w.Close()
	recs := testRecords()
	for i := range recs[:3] {
		if err := w.append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	f, size, fsyncs := w.f, w.size, w.fsyncs
	if err := w.rewrite(func(frameHead) bool { return false }); err != nil {
		t.Fatalf("rewrite with nothing to drop: %v", err)
	}
	if w.f != f || w.size != size || w.records != 3 || w.fsyncs != fsyncs {
		t.Fatalf("a rewrite that dropped nothing replaced the log: size %d -> %d, %d records", size, w.size, w.records)
	}
	if err := w.append(&recs[3]); err != nil {
		t.Fatal(err)
	}
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{"": SyncAlways, "always": SyncAlways, "interval": SyncInterval, "off": SyncOff} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

// TestWALFailedRewriteKeepsAppendOffset: a rewrite that cannot complete
// (here: the temp path is occupied by a directory) must leave the append
// position at the end of the log — not wherever its scan stopped — so
// later appends extend the file instead of splicing over committed frames.
func TestWALFailedRewriteKeepsAppendOffset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, _ := openTestWAL(t, path, SyncOff)
	recs := testRecords()
	for i := range recs[:3] {
		if err := w.append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := w.rewrite(func(h frameHead) bool { return h.LSN == 1 }); err == nil {
		t.Fatal("rewrite over an unwritable temp path succeeded")
	}
	if err := os.RemoveAll(path + ".tmp"); err != nil {
		t.Fatal(err)
	}
	if err := w.append(&recs[3]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, replayed, truncated := openTestWAL(t, path, SyncOff)
	defer w2.Close()
	if truncated != 0 || len(replayed) != 4 {
		t.Fatalf("reopen found %d records, %d torn bytes; the failed rewrite corrupted the log", len(replayed), truncated)
	}
	for i, rec := range replayed {
		if !sameRecord(recs[i], rec) {
			t.Fatalf("record %d = %+v, want %+v", i, rec, recs[i])
		}
	}
}

func TestWALRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, bytes.Repeat([]byte{0x7f}, 64), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openWAL(path, SyncAlways, 0, nil, 0, nil); err == nil {
		t.Fatal("file without WAL magic accepted")
	}
}

// FuzzWALDecode asserts DecodeRecord never panics and never accepts a
// payload that re-encodes differently (the decoder is the trust boundary
// for everything read back from disk).
func FuzzWALDecode(f *testing.F) {
	for _, rec := range testRecords() {
		rec.LSN = 7
		if payload, err := encodeRecord(rec); err == nil {
			f.Add(payload)
		}
	}
	for _, rec := range badWidthRecords() {
		if payload, err := encodeRecord(rec); err == nil {
			f.Add(payload)
		}
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		if err != nil {
			return
		}
		if rec.Type == recCreate || rec.Type == recCreatePart {
			// Replay hands the decoded schema to store.New: whatever decodes
			// must build (or be refused with an error), never panic.
			_, _ = store.New(rec.Table, rec.Defs, nil, nil)
		}
		out, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("roundtrip mismatch:\n in  %x\n out %x", data, out)
		}
	})
}
