package durable

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/plan"
	"repro/internal/shard"
	"repro/internal/store"
)

// TestPropPartitionedCrashCuts extends the crash-recovery property test to
// partitioned tables: a hash-partitioned table runs wrapper DML while every
// partition merges concurrently, then the WAL is hard-cut at every frame
// boundary of that tail and inside every one of its frames. A statement is
// one frame, whatever the number of partitions it touches, so each cut must
// recover the table to a whole-statement prefix — the checkpointed state plus
// exactly the statements whose frame lies within the cut, every partition
// holding its share of each (computed by an oracle running the same
// statements) — re-create the wrapper spec from its create record, and
// answer queries byte-identically in classic and A&R mode. The name carries
// "Prop" so CI's focused -race job covers the concurrent merges.
func TestPropPartitionedCrashCuts(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { partCrashCuts(t, seed) })
	}
}

func partCrashCuts(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	cat := plan.NewCatalog(device.PaperSystem())
	s := openStore(t, dir, cat, SyncAlways)
	spec := shard.Spec{Kind: shard.Hash, Col: "k", N: 3}
	if _, err := cat.CreatePartitionedTable("pt", kvDefs, spec); err != nil {
		t.Fatal(err)
	}

	// Phase 1: wrapper DML and fan-out merges, a decomposition of both
	// columns, then a checkpoint of every partition — each partition's
	// state persists in its own segment file at its own horizon.
	ctr := new(int64)
	var phase1 []crashOp
	for i := 0; i < 40; i++ {
		op := randOp(rng, "pt", ctr)
		op.apply(t, cat)
		phase1 = append(phase1, op)
		if rng.Intn(8) == 0 {
			if _, err := cat.MergeTable(nil, "pt", false); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, col := range []string{"k", "v"} {
		if _, err := cat.Decompose("pt", col, 6); err != nil {
			t.Fatal(err)
		}
	}
	p, ok := cat.Partitioned("pt")
	if !ok {
		t.Fatal("pt is not partitioned")
	}
	for i := range p.Parts {
		if _, err := s.Checkpoint(nil, shard.PartName("pt", i), false); err != nil {
			t.Fatal(err)
		}
	}
	// After checkpointing every partition only the wrapper's create record
	// remains in the WAL (it carries no horizon and survives rewrites).
	if st := s.Stats(); st.WALRecords != 1 {
		t.Fatalf("WAL holds %d records after checkpointing every partition, want 1 (the wrapper create)", st.WALRecords)
	}

	// Phase 2: wrapper inserts/deletes while every partition merges
	// concurrently — the merge path races the append+apply path. No
	// checkpoints: the WAL tail is the statements, one frame each, in order.
	// It ends on a DELETE that removes rows from several partitions, so the
	// cuts inside and after its frame are a multi-partition DELETE's.
	phase2 := make([]crashOp, 0, 26)
	for i := 0; i < 25; i++ {
		phase2 = append(phase2, randOp(rng, "pt", ctr))
	}
	phase2 = append(phase2, crashOp{table: "pt", preds: []plan.Filter{{Col: "v", Lo: 0, Hi: 499}}})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, op := range phase2 {
			op.apply(t, cat)
		}
	}()
	for i := range p.Parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 6; j++ {
				if _, err := cat.MergeTable(nil, shard.PartName("pt", i), false); err != nil {
					t.Error(err)
				}
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Decode the final WAL's frame layout.
	walBytes, err := os.ReadFile(WALPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	type frame struct {
		rec Record
		end int64
	}
	var frames []frame
	{
		probe := filepath.Join(t.TempDir(), "probe.log")
		if err := os.WriteFile(probe, walBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		w, _, err := openWAL(probe, SyncOff, 0, nil, 0, func(rec Record, end int64) error {
			frames = append(frames, frame{rec, end})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
	}
	if len(frames) != 1+len(phase2) || frames[0].rec.Type != recCreatePart {
		t.Fatalf("WAL holds %d frames, want the wrapper create record and one frame per statement (%d)", len(frames), 1+len(phase2))
	}
	for i, op := range phase2 {
		rec := frames[1+i].rec
		want := Record{LSN: rec.LSN, Type: recDelete, Table: "pt"}
		if op.rows != nil {
			want.Type, want.Rows = recInsert, op.rows
		}
		for _, f := range op.preds {
			want.Preds = append(want.Preds, store.Range{Col: f.Col, Lo: f.Lo, Hi: f.Hi})
		}
		if !sameRecord(want, rec) {
			t.Fatalf("frame %d is %+v, want statement %d as it was written: %+v", 1+i, rec, i, want)
		}
	}

	// Hard-cut the WAL at every statement frame's end and at three places
	// inside it: a torn header, a torn body, one byte short. Cuts never land
	// before the create record's end: it was fsynced long before the crash
	// window, so a shorter prefix is corruption, not a torn tail.
	type cutAt struct {
		at        int64
		committed int // statements of phase 2 wholly within the cut
	}
	cuts := []cutAt{{frames[0].end, 0}}
	for i := range phase2 {
		start, end := frames[i].end, frames[1+i].end
		cuts = append(cuts, cutAt{start + 1, i}, cutAt{(start + end) / 2, i}, cutAt{end - 1, i}, cutAt{end, i + 1})
	}
	// The oracle runs the statements themselves, one more per frame.
	oracle := plan.NewCatalog(device.PaperSystem())
	if _, err := oracle.CreatePartitionedTable("pt", kvDefs, spec); err != nil {
		t.Fatal(err)
	}
	for _, op := range phase1 {
		op.apply(t, oracle)
	}
	applied := 0
	for _, c := range cuts {
		cut := c.at
		cutDir := copyDir(t, dir)
		if err := os.Truncate(WALPath(cutDir), cut); err != nil {
			t.Fatal(err)
		}
		for ; applied < c.committed; applied++ {
			before := partLens(t, oracle, "pt")
			phase2[applied].apply(t, oracle)
			if applied == len(phase2)-1 {
				shrunk := 0
				for i, n := range partLens(t, oracle, "pt") {
					if n < before[i] {
						shrunk++
					}
				}
				if shrunk < 2 {
					t.Fatalf("the closing DELETE removed rows from %d partitions; the test needs a multi-partition one", shrunk)
				}
			}
		}

		recovered := plan.NewCatalog(device.PaperSystem())
		rs, err := Open(cutDir, recovered, Config{Policy: SyncAlways})
		if err != nil {
			t.Fatalf("cut at %d: open: %v", cut, err)
		}
		if got := int(rs.Recovery().Replayed); got != 1+c.committed {
			t.Fatalf("cut at %d: replayed %d records, want %d", cut, got, 1+c.committed)
		}
		rp, ok := recovered.Partitioned("pt")
		if !ok {
			t.Fatalf("cut at %d: wrapper not recovered", cut)
		}
		if rp.Spec != spec {
			t.Fatalf("cut at %d: recovered spec %v, want %v", cut, rp.Spec, spec)
		}
		// A whole-statement prefix: every partition holds its share of
		// exactly the committed statements.
		for i := range rp.Parts {
			pn := shard.PartName("pt", i)
			want := tableRows(t, oracle, pn)
			got := tableRows(t, recovered, pn)
			if !sameRows(want, got) {
				t.Fatalf("cut at %d (%d statements committed): %s recovered %d rows, oracle has %d (content mismatch)", cut, c.committed, pn, len(got), len(want))
			}
		}
		// The recovered table answers scatter-gather queries identically in
		// both modes (decompositions survived in the segment files).
		q := plan.Query{
			Table:   "pt",
			Filters: []plan.Filter{{Col: "v", Lo: 0, Hi: plan.NoHi}},
			GroupBy: nil,
			Aggs: []plan.AggSpec{
				{Name: "n", Func: plan.Count},
				{Name: "s", Func: plan.Sum, Expr: plan.Col("k")},
			},
		}
		ar, err := recovered.ExecAR(context.Background(), q, plan.ExecOpts{})
		if err != nil {
			t.Fatalf("cut at %d: AR: %v", cut, err)
		}
		cl, err := recovered.ExecClassic(context.Background(), q, plan.ExecOpts{})
		if err != nil {
			t.Fatalf("cut at %d: classic: %v", cut, err)
		}
		if !plan.EqualResults(ar.Rows, cl.Rows) {
			t.Fatalf("cut at %d: A&R %v != classic %v", cut, ar.Rows, cl.Rows)
		}
		rs.Close()
	}
}

// partLens returns the live row count of every partition of a table.
func partLens(t *testing.T, cat *plan.Catalog, table string) []int {
	t.Helper()
	p, ok := cat.Partitioned(table)
	if !ok {
		t.Fatalf("%s is not partitioned", table)
	}
	out := make([]int, len(p.Parts))
	for i, pt := range p.Parts {
		out[i] = pt.Len()
	}
	return out
}
