package durable

import (
	"os"
	"testing"

	"repro/internal/device"
	"repro/internal/plan"
	"repro/internal/store"
)

func openStore(t *testing.T, dir string, cat *plan.Catalog, policy Policy) *Store {
	t.Helper()
	s, err := Open(dir, cat, Config{Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	cat.SetDurability(s)
	return s
}

// tableRows reads a table's live logical content in row order: base rows
// (minus deletions) then delta rows (minus deletions).
func tableRows(t *testing.T, cat *plan.Catalog, name string) [][]int64 {
	t.Helper()
	tbl, err := cat.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	snap := tbl.Snapshot()
	schema := tbl.Schema()
	cols := make([][]int64, len(schema))
	for i, def := range schema {
		c, err := snap.BaseValues(def.Name, 0, snap.BaseLen(), nil)
		if err != nil {
			t.Fatal(err)
		}
		cols[i] = c
	}
	var out [][]int64
	for i := 0; i < snap.BaseLen(); i++ {
		if snap.BaseDeleted(i) {
			continue
		}
		row := make([]int64, len(schema))
		for c := range schema {
			row[c] = cols[c][i]
		}
		out = append(out, row)
	}
	for j := 0; j < snap.DeltaLen(); j++ {
		if snap.DeltaDeleted(j) {
			continue
		}
		row := make([]int64, len(schema))
		for c := range schema {
			row[c] = snap.DeltaValue(j, c)
		}
		out = append(out, row)
	}
	return out
}

func sameRows(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

var kvDefs = []store.ColumnDef{{Name: "k", Scale: 1, Width: 4}, {Name: "v", Scale: 1, Width: 8}}

// TestStoreRecoverFromWALOnly kills the store before any checkpoint: the
// whole history must come back from the WAL tail alone.
func TestStoreRecoverFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	cat := plan.NewCatalog(device.PaperSystem())
	s := openStore(t, dir, cat, SyncAlways)
	if _, err := cat.CreateTable("kv", kvDefs); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.InsertRows(nil, "kv", [][]int64{{1, 10}, {2, 20}, {3, 30}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.DeleteRows(nil, "kv", []plan.Filter{{Col: "k", Lo: 2, Hi: 2}}); err != nil {
		t.Fatal(err)
	}
	want := tableRows(t, cat, "kv")
	// Simulate a crash: close the WAL file without checkpointing.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	cat2 := plan.NewCatalog(device.PaperSystem())
	s2 := openStore(t, dir, cat2, SyncAlways)
	defer s2.Close()
	rs := s2.Recovery()
	if rs.Replayed != 3 || rs.TablesFromSegments != 0 {
		t.Fatalf("recovery = %+v, want 3 replayed records and no segments", rs)
	}
	if got := tableRows(t, cat2, "kv"); !sameRows(want, got) {
		t.Fatalf("recovered rows %v, want %v", got, want)
	}
}

// TestStoreCheckpointAndRecover covers the full lifecycle: checkpoint
// persists the merged base, drops the covered WAL prefix, and recovery
// loads the segment plus the post-checkpoint tail.
func TestStoreCheckpointAndRecover(t *testing.T) {
	dir := t.TempDir()
	cat := plan.NewCatalog(device.PaperSystem())
	s := openStore(t, dir, cat, SyncAlways)
	if _, err := cat.CreateTable("kv", kvDefs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := cat.InsertRows(nil, "kv", [][]int64{{int64(i), int64(i * 100)}}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.Checkpoint(nil, "kv", false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Clean || st.LSN != 11 { // create + 10 inserts
		t.Fatalf("checkpoint = %+v, want dirty at lsn 11", st)
	}
	walAfterCkpt := s.WALSize()
	// Post-checkpoint tail: two more inserts and a delete.
	if _, err := cat.InsertRows(nil, "kv", [][]int64{{100, 1}, {101, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.DeleteRows(nil, "kv", []plan.Filter{{Col: "k", Lo: 0, Hi: 4}}); err != nil {
		t.Fatal(err)
	}
	want := tableRows(t, cat, "kv")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	cat2 := plan.NewCatalog(device.PaperSystem())
	s2 := openStore(t, dir, cat2, SyncAlways)
	defer s2.Close()
	rs := s2.Recovery()
	if rs.TablesFromSegments != 1 {
		t.Fatalf("recovery = %+v, want 1 table from its segment", rs)
	}
	if rs.Replayed != 2 || rs.Skipped != 0 {
		t.Fatalf("recovery = %+v, want exactly the 2-record tail replayed (prefix dropped from the WAL)", rs)
	}
	if got := tableRows(t, cat2, "kv"); !sameRows(want, got) {
		t.Fatalf("recovered rows %v, want %v", got, want)
	}
	// The recovered table must keep accepting durable writes.
	if _, err := cat2.InsertRows(nil, "kv", [][]int64{{200, 5}}); err != nil {
		t.Fatal(err)
	}
	if s2.WALSize() <= walAfterCkpt {
		t.Fatal("post-recovery insert did not append to the WAL")
	}
}

// TestStoreCheckpointTruncatesWAL: after checkpointing every table the WAL
// must be empty, and a clean reopen must replay zero records.
func TestStoreCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	cat := plan.NewCatalog(device.PaperSystem())
	s := openStore(t, dir, cat, SyncAlways)
	for _, name := range []string{"a", "b"} {
		if _, err := cat.CreateTable(name, kvDefs); err != nil {
			t.Fatal(err)
		}
		if _, err := cat.InsertRows(nil, name, [][]int64{{1, 1}, {2, 2}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"a", "b"} {
		if _, err := s.Checkpoint(nil, name, false); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.WALRecords != 0 {
		t.Fatalf("WAL holds %d records after checkpointing every table", st.WALRecords)
	}
	if s.Dirty("a") || s.Dirty("b") {
		t.Fatal("tables dirty immediately after checkpoint")
	}
	// A second checkpoint of an untouched table must be a no-op.
	st, err := s.Checkpoint(nil, "a", false)
	if err != nil || !st.Clean {
		t.Fatalf("checkpoint of clean table = %+v, %v; want clean", st, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	cat2 := plan.NewCatalog(device.PaperSystem())
	s2 := openStore(t, dir, cat2, SyncAlways)
	defer s2.Close()
	if rs := s2.Recovery(); rs.Replayed != 0 || rs.TablesFromSegments != 2 {
		t.Fatalf("clean reopen recovery = %+v, want 0 replayed, 2 segments", rs)
	}
}

// TestStoreLSNMonotonicAcrossReopen: after a checkpoint empties the WAL,
// the highest assigned LSN survives only in the segment files — a reopen
// must seed the counter above every persisted horizon, or post-reopen
// writes get LSNs the next recovery skips as already covered (silently
// losing fsync-acknowledged records).
func TestStoreLSNMonotonicAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	cat := plan.NewCatalog(device.PaperSystem())
	s := openStore(t, dir, cat, SyncAlways)
	if _, err := cat.CreateTable("kv", kvDefs); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.InsertRows(nil, "kv", [][]int64{{1, 10}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(nil, "kv", false); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.WALRecords != 0 {
		t.Fatalf("WAL holds %d records after checkpoint", st.WALRecords)
	}
	ckptLSN := s.Stats().LastCheckpointLSN
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen over the emptied WAL, write, and crash (no checkpoint).
	cat2 := plan.NewCatalog(device.PaperSystem())
	s2 := openStore(t, dir, cat2, SyncAlways)
	if _, err := cat2.InsertRows(nil, "kv", [][]int64{{2, 20}}); err != nil {
		t.Fatal(err)
	}
	if got := s2.wal.lastAssigned(); got <= ckptLSN {
		t.Fatalf("post-reopen insert assigned lsn %d, at or below checkpoint horizon %d", got, ckptLSN)
	}
	want := tableRows(t, cat2, "kv")
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// The next recovery must replay that insert, not skip it as covered.
	cat3 := plan.NewCatalog(device.PaperSystem())
	s3 := openStore(t, dir, cat3, SyncAlways)
	defer s3.Close()
	rs := s3.Recovery()
	if rs.Replayed != 1 || rs.Skipped != 0 {
		t.Fatalf("recovery = %+v, want the post-reopen insert replayed, not covered", rs)
	}
	if got := tableRows(t, cat3, "kv"); !sameRows(want, got) {
		t.Fatalf("recovered rows %v, want %v", got, want)
	}
}

// TestStoreDropReclaims: dropping a table must delete its segment files
// and let the next rewrite reclaim its WAL frames.
func TestStoreDropReclaims(t *testing.T) {
	dir := t.TempDir()
	cat := plan.NewCatalog(device.PaperSystem())
	s := openStore(t, dir, cat, SyncAlways)
	if _, err := cat.CreateTable("gone", kvDefs); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.InsertRows(nil, "gone", [][]int64{{1, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(nil, "gone", false); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateTable("keep", kvDefs); err != nil {
		t.Fatal(err)
	}
	if err := cat.DropTable("gone"); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs["gone"]) != 0 {
		t.Fatal("dropped table left segment files behind")
	}
	if _, err := s.Checkpoint(nil, "keep", false); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.WALRecords != 0 {
		t.Fatalf("WAL holds %d records; drop history not reclaimed", st.WALRecords)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	cat2 := plan.NewCatalog(device.PaperSystem())
	s2 := openStore(t, dir, cat2, SyncAlways)
	defer s2.Close()
	if _, err := cat2.Table("gone"); err == nil {
		t.Fatal("dropped table came back after recovery")
	}
	if _, err := cat2.Table("keep"); err != nil {
		t.Fatal("kept table lost after recovery")
	}
}

// TestStoreAdoptsPreloadedTables: tables bulk-loaded before durability
// attaches are persisted as segments on open, and a second open with a
// preloaded catalog collides loudly instead of silently shadowing.
func TestStoreAdoptsPreloadedTables(t *testing.T) {
	dir := t.TempDir()
	cat := plan.NewCatalog(device.PaperSystem())
	if _, err := cat.CreateTable("pre", kvDefs); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.InsertRows(nil, "pre", [][]int64{{7, 70}}); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, dir, cat, SyncAlways)
	if rs := s.Recovery(); rs.Adopted != 1 {
		t.Fatalf("recovery = %+v, want 1 adopted table", rs)
	}
	want := tableRows(t, cat, "pre")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !Exists(dir) {
		t.Fatal("Exists(dir) = false after adoption")
	}

	// Fresh catalog (no preload): the adopted table recovers.
	cat2 := plan.NewCatalog(device.PaperSystem())
	s2 := openStore(t, dir, cat2, SyncAlways)
	if got := tableRows(t, cat2, "pre"); !sameRows(want, got) {
		t.Fatalf("adopted table recovered as %v, want %v", got, want)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Preloading the same table over an existing data dir must error.
	cat3 := plan.NewCatalog(device.PaperSystem())
	if _, err := cat3.CreateTable("pre", kvDefs); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, cat3, Config{Policy: SyncAlways}); err == nil {
		t.Fatal("collision between preloaded catalog and data dir not reported")
	}
}

// TestStoreDecomposeAndFKRecover: decompositions and FK indexes are part
// of the durable state, whether they travel in a segment or in the WAL.
func TestStoreDecomposeAndFKRecover(t *testing.T) {
	dir := t.TempDir()
	cat := plan.NewCatalog(device.PaperSystem())
	s := openStore(t, dir, cat, SyncAlways)
	if _, err := cat.CreateTable("m", kvDefs); err != nil {
		t.Fatal(err)
	}
	rows := make([][]int64, 256)
	for i := range rows {
		rows[i] = []int64{int64(i), int64(i * 3)}
	}
	if _, err := cat.InsertRows(nil, "m", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Decompose("m", "v", 5); err != nil {
		t.Fatal(err)
	}
	if err := cat.BuildFKIndex("m", "k"); err != nil {
		t.Fatal(err)
	}
	// One copy checkpointed (travels in the segment), then decompose again
	// post-checkpoint (travels in the WAL).
	if _, err := s.Checkpoint(nil, "m", false); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Decompose("m", "v", 7); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	cat2 := plan.NewCatalog(device.PaperSystem())
	s2 := openStore(t, dir, cat2, SyncAlways)
	defer s2.Close()
	d, err := cat2.Decomposition("m", "v")
	if err != nil {
		t.Fatal(err)
	}
	if d.Dec.ApproxBits != 7 {
		t.Fatalf("recovered decomposition has %d approx bits, want 7 (WAL tail lost?)", d.Dec.ApproxBits)
	}
	if _, err := cat2.FKIndex("m", "k"); err != nil {
		t.Fatal(err)
	}
}

// TestStoreSyncOffSurvivesCleanClose: with fsync off, a clean Close still
// lands everything (the data went through the OS on the buffered path).
func TestStoreSyncOffSurvivesCleanClose(t *testing.T) {
	dir := t.TempDir()
	cat := plan.NewCatalog(device.PaperSystem())
	s := openStore(t, dir, cat, SyncOff)
	if _, err := cat.CreateTable("kv", kvDefs); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.InsertRows(nil, "kv", [][]int64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	cat2 := plan.NewCatalog(device.PaperSystem())
	s2 := openStore(t, dir, cat2, SyncOff)
	defer s2.Close()
	if got := tableRows(t, cat2, "kv"); len(got) != 1 {
		t.Fatalf("recovered %d rows, want 1", len(got))
	}
}

// TestStoreStrayTempsRemoved: crash leftovers must not accumulate.
func TestStoreStrayTempsRemoved(t *testing.T) {
	dir := t.TempDir()
	stray := WALPath(dir) + ".tmp"
	if err := os.WriteFile(stray, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	cat := plan.NewCatalog(device.PaperSystem())
	s := openStore(t, dir, cat, SyncAlways)
	defer s.Close()
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatal("stray temp file survived Open")
	}
}
