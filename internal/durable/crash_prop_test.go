package durable

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/bwd/bwdtest"
	"repro/internal/device"
	"repro/internal/plan"
)

// TestPropDurableCrashCuts is the crash-recovery property test: a random
// interleaving of INSERTs, DELETEs and merges runs on two tables (phase 1
// sequential and fully checkpointed, phase 2 concurrent and WAL-only),
// then the WAL is hard-cut at random byte offsets — including mid-frame —
// and each cut must recover to exactly the committed prefix: checkpointed
// state plus the WAL records fully within the cut, as computed by an
// independent in-memory oracle. The name carries "Prop" so CI's focused
// -race job runs the concurrent phase under the race detector.
func TestPropDurableCrashCuts(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { propCrashCuts(t, seed) })
	}
}

// crashOp is one logical write, replayable against any catalog.
type crashOp struct {
	table string
	rows  [][]int64     // insert when non-nil
	preds []plan.Filter // delete otherwise
}

func (o crashOp) apply(t *testing.T, cat *plan.Catalog) {
	t.Helper()
	var err error
	if o.rows != nil {
		_, err = cat.InsertRows(nil, o.table, o.rows)
	} else {
		_, err = cat.DeleteRows(nil, o.table, o.preds)
	}
	if err != nil {
		t.Error(err)
	}
}

// randOp draws an op: mostly inserts of deterministic rows (the counter
// keeps values unique per table), sometimes a ranged delete.
func randOp(rng *rand.Rand, table string, ctr *int64) crashOp {
	if rng.Intn(4) == 0 {
		lo := rng.Int63n(1000)
		return crashOp{table: table, preds: []plan.Filter{{Col: "v", Lo: lo, Hi: lo + rng.Int63n(50)}}}
	}
	n := 1 + rng.Intn(8)
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{*ctr, (*ctr * 7) % 1000}
		*ctr++
	}
	return crashOp{table: table, rows: rows}
}

func propCrashCuts(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	cat := plan.NewCatalog(device.PaperSystem())
	s := openStore(t, dir, cat, SyncAlways)
	tables := []string{"t0", "t1"}
	ctrs := map[string]*int64{"t0": new(int64), "t1": new(int64)}
	var phase1 []crashOp
	for _, name := range tables {
		if _, err := cat.CreateTable(name, kvDefs); err != nil {
			t.Fatal(err)
		}
	}

	// Phase 1: sequential ops, a decomposition, scattered merges, then a
	// checkpoint of everything — this state persists as segments.
	for i := 0; i < 30; i++ {
		name := tables[rng.Intn(2)]
		op := randOp(rng, name, ctrs[name])
		op.apply(t, cat)
		phase1 = append(phase1, op)
		if rng.Intn(10) == 0 {
			if _, err := cat.MergeTable(nil, name, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := cat.Decompose("t0", "v", 5); err != nil {
		t.Fatal(err)
	}
	for _, name := range tables {
		if _, err := s.Checkpoint(nil, name, false); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.WALRecords != 0 {
		t.Fatalf("WAL holds %d records after checkpointing everything", st.WALRecords)
	}
	// The granule bounds are derived, not persisted: remember what the
	// checkpointed column had so a recovery that replays nothing can be
	// held to it.
	atCheckpoint, err := cat.Decomposition("t0", "v")
	if err != nil {
		t.Fatal(err)
	}
	bwdtest.CheckGranules(t, "checkpointed t0.v", atCheckpoint)
	checkpointRecords := slices.Clone(atCheckpoint.Splits())

	// Phase 2: concurrent per-table writers (group commit + per-table lock
	// under -race), merges allowed, no checkpoints — pure WAL tail.
	phase2 := make(map[string][]crashOp)
	for _, name := range tables {
		phase2[name] = nil
		wseed := rng.Int63()
		for i, ops := 0, rand.New(rand.NewSource(wseed)); i < 15; i++ {
			phase2[name] = append(phase2[name], randOp(ops, name, ctrs[name]))
		}
	}
	var wg sync.WaitGroup
	for _, name := range tables {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for i, op := range phase2[name] {
				op.apply(t, cat)
				if i%7 == 3 {
					if _, err := cat.MergeTable(nil, name, false); err != nil {
						t.Error(err)
					}
				}
			}
		}(name)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Snapshot the on-disk state (SyncAlways: everything durable) and the
	// frame layout of the final WAL. Decoding through openWAL also verifies
	// each table's frames are exactly its op sequence, in order.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
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
	seen := map[string]int{}
	for _, f := range frames {
		ops := phase2[f.rec.Table]
		i := seen[f.rec.Table]
		if i >= len(ops) {
			t.Fatalf("WAL holds %d+ frames for %s, ops only %d", i+1, f.rec.Table, len(ops))
		}
		want := ops[i]
		if (want.rows != nil) != (f.rec.Type == recInsert) {
			t.Fatalf("%s frame %d: kind %s does not match op", f.rec.Table, i, f.rec.kindString())
		}
		seen[f.rec.Table]++
	}
	for _, name := range tables {
		if seen[name] != len(phase2[name]) {
			t.Fatalf("%s: %d frames in WAL, want %d", name, seen[name], len(phase2[name]))
		}
	}

	// Hard-cut the WAL at random offsets (plus the exact torn edges) and
	// check recovery against the oracle.
	cuts := []int64{int64(len(walMagic)), int64(len(walBytes))}
	if len(frames) > 0 {
		mid := frames[len(frames)/2]
		cuts = append(cuts, mid.end-1, mid.end) // mid-frame and exact boundary
	}
	for i := 0; i < 8; i++ {
		cuts = append(cuts, int64(len(walMagic))+rng.Int63n(int64(len(walBytes))-int64(len(walMagic))+1))
	}
	for _, cut := range cuts {
		cutDir := t.TempDir()
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if e.Name() == filepath.Base(WALPath(dir)) {
				data = data[:cut]
			}
			if err := os.WriteFile(filepath.Join(cutDir, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		// Oracle: phase 1 in full, then the committed phase-2 records — the
		// frames wholly inside the cut — in frame order.
		oracle := plan.NewCatalog(device.PaperSystem())
		for _, name := range tables {
			if _, err := oracle.CreateTable(name, kvDefs); err != nil {
				t.Fatal(err)
			}
		}
		for _, op := range phase1 {
			op.apply(t, oracle)
		}
		committed := 0
		for _, f := range frames {
			if f.end > cut {
				break
			}
			committed++
			op := crashOp{table: f.rec.Table, rows: f.rec.Rows}
			if f.rec.Type == recDelete {
				op.rows = nil
				for _, p := range f.rec.Preds {
					op.preds = append(op.preds, plan.Filter{Col: p.Col, Lo: p.Lo, Hi: p.Hi})
				}
			}
			op.apply(t, oracle)
		}

		recovered := plan.NewCatalog(device.PaperSystem())
		rs, err := Open(cutDir, recovered, Config{Policy: SyncAlways})
		if err != nil {
			t.Fatalf("cut at %d: open: %v", cut, err)
		}
		if int(rs.Recovery().Replayed) != committed {
			t.Fatalf("cut at %d: replayed %d records, want %d", cut, rs.Recovery().Replayed, committed)
		}
		for _, name := range tables {
			want := tableRows(t, oracle, name)
			got := tableRows(t, recovered, name)
			if !sameRows(want, got) {
				t.Fatalf("cut at %d: %s recovered %d rows, oracle has %d (content mismatch)", cut, name, len(got), len(want))
			}
		}
		// The decomposition from phase 1 must survive every cut, with
		// granule bounds that describe the restored plane — the very bounds
		// of the checkpointed column when no record was replayed over it.
		d, err := recovered.Decomposition("t0", "v")
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		bwdtest.CheckGranules(t, fmt.Sprintf("cut at %d: recovered t0.v", cut), d)
		if committed == 0 && !slices.Equal(d.Splits(), checkpointRecords) {
			t.Fatalf("cut at %d: restored granule records differ from the checkpointed column's", cut)
		}
		rs.Close()
	}
}
