package durable

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/device"
	"repro/internal/plan"
	"repro/internal/shard"
	"repro/internal/store"
)

// Tests of the statement commit protocol on partitioned tables: one frame
// per statement under the wrapper's name, replayed per partition above that
// partition's horizon, reclaimed once no partition needs it.

// copyDir snapshots a live data directory file by file — what kill -9 at
// this instant would leave behind (every acknowledged write is fsynced).
func copyDir(t *testing.T, from string) string {
	t.Helper()
	to := t.TempDir()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

// reopen recovers a data directory into a fresh catalog.
func reopen(t *testing.T, dir string) (*plan.Catalog, *Store) {
	t.Helper()
	cat := plan.NewCatalog(device.PaperSystem())
	s, err := Open(dir, cat, Config{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return cat, s
}

// samePartitions requires every partition of table to hold the same rows in
// both catalogs.
func samePartitions(t *testing.T, label string, want, got *plan.Catalog, table string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		pn := shard.PartName(table, i)
		w, g := tableRows(t, want, pn), tableRows(t, got, pn)
		if !sameRows(w, g) {
			t.Fatalf("%s: %s holds %d rows, want %d (content mismatch)", label, pn, len(g), len(w))
		}
	}
}

// kvBatch is rows (k, k*3) for k in [lo, hi).
func kvBatch(lo, hi int64) [][]int64 {
	var rows [][]int64
	for k := lo; k < hi; k++ {
		rows = append(rows, []int64{k, k * 3})
	}
	return rows
}

// TestStatementIsOneFrame: an INSERT touching every partition and a DELETE
// are one appended frame and one fsync each, named after the wrapper.
func TestStatementIsOneFrame(t *testing.T) {
	dir := t.TempDir()
	cat := plan.NewCatalog(device.PaperSystem())
	s := openStore(t, dir, cat, SyncAlways)
	defer s.Close()
	if _, err := cat.CreatePartitionedTable("pt", kvDefs, shard.Spec{Kind: shard.Hash, Col: "k", N: 4}); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if n, err := cat.InsertRows(nil, "pt", kvBatch(0, 64)); err != nil || n != 64 {
		t.Fatalf("insert: %d rows, %v", n, err)
	}
	for i, n := range partLens(t, cat, "pt") {
		if n == 0 {
			t.Fatalf("partition %d took no rows: the statement is not a multi-partition one", i)
		}
	}
	if n, err := cat.DeleteRows(nil, "pt", []plan.Filter{{Col: "k", Lo: 0, Hi: 31}}); err != nil || n != 32 {
		t.Fatalf("delete: %d rows, %v", n, err)
	}
	after := s.Stats()
	if got := after.Appends - before.Appends; got != 2 {
		t.Fatalf("two statements appended %d frames, want 2", got)
	}
	if got := after.Fsyncs - before.Fsyncs; got != 2 {
		t.Fatalf("two statements waited for %d fsyncs, want 2", got)
	}
	// Ragged rows and unknown columns are refused before anything is logged.
	if _, err := cat.InsertRows(nil, "pt", [][]int64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged insert accepted")
	}
	if _, err := cat.DeleteRows(nil, "pt", []plan.Filter{{Col: "nope", Lo: 0, Hi: 1}}); err == nil {
		t.Fatal("delete on an unknown column accepted")
	}
	if got := s.Stats().Appends; got != after.Appends {
		t.Fatalf("refused statements appended %d frames", got-after.Appends)
	}
}

// TestRecoverPerPartitionFrames opens a WAL laid out the way the engine
// wrote it before a statement became one frame: one frame per touched
// partition under the partition's name. Such frames are plain-table frames
// and must keep recovering, also with statement frames after them.
func TestRecoverPerPartitionFrames(t *testing.T) {
	dir := t.TempDir()
	spec := shard.Spec{Kind: shard.Hash, Col: "k", N: 3}
	oracle := plan.NewCatalog(device.PaperSystem())
	op, err := oracle.CreatePartitionedTable("pt", kvDefs, spec)
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := openWAL(WALPath(dir), SyncAlways, 0, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendRec := func(rec Record) {
		t.Helper()
		if err := w.append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	appendRec(Record{Type: recCreatePart, Table: "pt", Defs: kvDefs, Col: spec.Col, PartKind: byte(spec.Kind), PartN: spec.N})
	for _, batch := range [][][]int64{kvBatch(0, 9), kvBatch(9, 20)} {
		for i, group := range op.Split(batch) {
			if len(group) > 0 {
				appendRec(Record{Type: recInsert, Table: shard.PartName("pt", i), Rows: group})
			}
		}
		if _, err := oracle.InsertRows(nil, "pt", batch); err != nil {
			t.Fatal(err)
		}
	}
	del := []store.Range{{Col: "k", Lo: 3, Hi: 12}}
	for i := 0; i < spec.N; i++ {
		appendRec(Record{Type: recDelete, Table: shard.PartName("pt", i), Preds: del})
	}
	if _, err := oracle.DeleteRows(nil, "pt", []plan.Filter{{Col: "k", Lo: 3, Hi: 12}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	cat, s := reopen(t, dir)
	if rec := s.Recovery(); rec.Failed != 0 || rec.Skipped != 0 {
		t.Fatalf("recovery of the per-partition layout: %s", rec)
	}
	samePartitions(t, "per-partition frames", oracle, cat, "pt", spec.N)

	// The same directory keeps working: statement frames after the
	// per-partition ones, a checkpoint of one partition, another recovery.
	cat.SetDurability(s)
	for _, c := range []*plan.Catalog{oracle, cat} {
		if _, err := c.InsertRows(nil, "pt", kvBatch(20, 30)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Checkpoint(nil, shard.PartName("pt", 1), false); err != nil {
		t.Fatal(err)
	}
	cat2, _ := reopen(t, copyDir(t, dir))
	samePartitions(t, "mixed layouts", oracle, cat2, "pt", spec.N)
}

// TestStatementReplaysAbovePartitionHorizon: after one partition of a table
// checkpoints, the statements before that are in its segment and still in
// the log for the others. Every crash from there on — cut at each later
// frame boundary — must recover whole statements: the checkpointed
// partition takes only what lies above its horizon, the others everything.
func TestStatementReplaysAbovePartitionHorizon(t *testing.T) {
	dir := t.TempDir()
	spec := shard.Spec{Kind: shard.Hash, Col: "k", N: 3}
	cat := plan.NewCatalog(device.PaperSystem())
	s := openStore(t, dir, cat, SyncAlways)
	defer s.Close()
	if _, err := cat.CreatePartitionedTable("pt", kvDefs, spec); err != nil {
		t.Fatal(err)
	}
	ops := []crashOp{
		{table: "pt", rows: kvBatch(0, 12)},
		{table: "pt", rows: kvBatch(12, 30)},
		{table: "pt", preds: []plan.Filter{{Col: "k", Lo: 5, Hi: 15}}},
		// partition 1 checkpoints here
		{table: "pt", rows: kvBatch(30, 41)},
		{table: "pt", preds: []plan.Filter{{Col: "v", Lo: 0, Hi: 30}}},
		{table: "pt", rows: kvBatch(41, 50)},
	}
	const before = 3
	for _, op := range ops[:before] {
		op.apply(t, cat)
	}
	if _, err := s.Checkpoint(nil, shard.PartName("pt", 1), false); err != nil {
		t.Fatal(err)
	}
	// Every statement so far touched a partition that has not checkpointed:
	// all of them stay in the log, behind the create record.
	if got := s.Stats().WALRecords; got != 1+before {
		t.Fatalf("log holds %d records after one partition checkpointed, want %d", got, 1+before)
	}
	for _, op := range ops[before:] {
		op.apply(t, cat)
	}

	live := copyDir(t, dir)
	walBytes, err := os.ReadFile(WALPath(live))
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	probe := filepath.Join(t.TempDir(), "probe.log")
	if err := os.WriteFile(probe, walBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	pw, _, err := openWAL(probe, SyncOff, 0, nil, 0, func(_ Record, end int64) error {
		ends = append(ends, end)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if len(ends) != 1+len(ops) {
		t.Fatalf("log holds %d frames, want %d", len(ends), 1+len(ops))
	}

	oracle := plan.NewCatalog(device.PaperSystem())
	if _, err := oracle.CreatePartitionedTable("pt", kvDefs, spec); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[:before] {
		op.apply(t, oracle)
	}
	// A crash cannot leave less than the checkpoint's horizon in the log:
	// the segment was written after those frames were fsynced.
	for committed := before; committed <= len(ops); committed++ {
		if committed > before {
			ops[committed-1].apply(t, oracle)
		}
		if err := os.WriteFile(WALPath(live), walBytes[:ends[committed]], 0o644); err != nil {
			t.Fatal(err)
		}
		got, rs := reopen(t, copyDir(t, live))
		rec := rs.Recovery()
		if rec.TablesFromSegments != 1 || rec.Failed != 0 || int(rec.Replayed) != 1+committed {
			t.Fatalf("%d statements committed: %s", committed, rec)
		}
		samePartitions(t, "above the horizon", oracle, got, "pt", spec.N)
	}
}

// TestIdlePartitionDoesNotPinWAL: on a range-partitioned table fed a
// monotone key only one partition ever takes rows. Statement frames carry
// the wrapper's name, which has no horizon of its own — the partitions that
// were never touched must not hold them in the log once the hot partition
// has checkpointed.
func TestIdlePartitionDoesNotPinWAL(t *testing.T) {
	dir := t.TempDir()
	cat := plan.NewCatalog(device.PaperSystem())
	s := openStore(t, dir, cat, SyncAlways)
	defer s.Close()
	if _, err := cat.CreatePartitionedTable("ev", kvDefs, shard.Spec{Kind: shard.Range, Col: "k", N: 4}); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		if _, err := cat.InsertRows(nil, "ev", kvBatch(i*8, i*8+8)); err != nil {
			t.Fatal(err)
		}
	}
	lens := partLens(t, cat, "ev")
	hot := -1
	for i, n := range lens {
		switch {
		case n == 160:
			hot = i
		case n != 0:
			t.Fatalf("partition sizes %v: the key was meant to route to one partition", lens)
		}
	}
	if got := s.Stats().WALRecords; got != 21 {
		t.Fatalf("log holds %d records before the checkpoint, want 21", got)
	}
	if _, err := s.Checkpoint(nil, shard.PartName("ev", hot), false); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().WALRecords; got != 1 {
		t.Fatalf("log holds %d records after the hot partition checkpointed, want 1 (the wrapper create): an idle partition pins the log", got)
	}
	got, _ := reopen(t, copyDir(t, dir))
	samePartitions(t, "idle partitions", cat, got, "ev", 4)
}

// TestInFlightStatementSurvivesRewrite: a statement whose frame is in the
// log but not applied yet has moved no partition's horizon. Another table's
// checkpoint rewriting the log at that moment must keep the frame: a crash
// right after has to recover the acknowledged statement.
func TestInFlightStatementSurvivesRewrite(t *testing.T) {
	dir := t.TempDir()
	cat := plan.NewCatalog(device.PaperSystem())
	s := openStore(t, dir, cat, SyncAlways)
	defer s.Close()
	if _, err := cat.CreatePartitionedTable("pt", kvDefs, shard.Spec{Kind: shard.Hash, Col: "k", N: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateTable("other", kvDefs); err != nil {
		t.Fatal(err)
	}
	// Every partition of pt checkpointed and clean; other has something to
	// checkpoint, so its checkpoint rewrites the log.
	if _, err := cat.InsertRows(nil, "pt", kvBatch(0, 9)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Checkpoint(nil, shard.PartName("pt", i), false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cat.InsertRows(nil, "other", kvBatch(0, 4)); err != nil {
		t.Fatal(err)
	}

	var crashed string
	s.afterAppend = func() {
		s.afterAppend = nil
		if got := partLens(t, cat, "pt"); got[0]+got[1]+got[2] != 9 {
			t.Errorf("the seam ran after the apply: partitions hold %v", got)
		}
		if _, err := s.Checkpoint(nil, "other", false); err != nil {
			t.Error(err)
		}
		crashed = copyDir(t, dir)
	}
	if _, err := cat.InsertRows(nil, "pt", kvBatch(9, 30)); err != nil {
		t.Fatal(err)
	}
	if crashed == "" {
		t.Fatal("the seam between append and apply never ran")
	}
	got, rs := reopen(t, crashed)
	if rec := rs.Recovery(); rec.Replayed != 2 { // the wrapper's create record and the statement
		t.Fatalf("recovery after the mid-statement rewrite: %s", rec)
	}
	samePartitions(t, "in-flight statement", cat, got, "pt", 3)
}
