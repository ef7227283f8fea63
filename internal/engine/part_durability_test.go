package engine

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/plan"
)

// TestEnginePartKillHelper is the subprocess body for the partitioned
// kill -9 test: it opens the engine on AR_CRASH_DIR with aggressive
// background merging (each partition merges and checkpoints on its own
// schedule) and ingests deterministic batches through the partitioned
// wrapper forever, acking each durable batch on stdout. The parent
// SIGKILLs it mid-flight. Skipped as a no-op in a normal test run.
func TestEnginePartKillHelper(t *testing.T) {
	if os.Getenv("AR_PART_CRASH_HELPER") != "1" {
		t.Skip("subprocess helper for TestEnginePartitionedKillIngest")
	}
	ctx := context.Background()
	eng, err := Open(plan.NewCatalog(device.PaperSystem()), Options{
		DataDir:        os.Getenv("AR_CRASH_DIR"),
		Fsync:          "always",
		MergeThreshold: 64,
		MergeInterval:  2 * time.Millisecond,
	})
	if err != nil {
		fmt.Printf("helper: %v\n", err)
		return
	}
	eng.StartMaintenance(ctx)
	if _, ok := eng.Catalog().Partitioned("ps"); !ok {
		// Seed enough distinct keys that every partition gets rows before
		// the bwdecompose fan-out (empty partitions skip decomposition).
		var seed []string
		for i := 0; i < 12; i++ {
			seed = append(seed, fmt.Sprintf("(%d, %d)", i, (i*7)%997))
		}
		for _, stmt := range []string{
			"create table ps (k int, v int) partition by hash(k) partitions 3",
			"insert into ps values " + strings.Join(seed, ", "),
			"select bwdecompose(k, 8), bwdecompose(v, 8) from ps",
		} {
			if _, err := eng.Query(ctx, stmt); err != nil {
				fmt.Printf("helper: %s: %v\n", stmt, err)
				return
			}
		}
	}
	res, err := eng.Query(ctx, "select count(*) from ps")
	if err != nil {
		fmt.Printf("helper: %v\n", err)
		return
	}
	n := int(res.Rows[0].Vals[0])
	deadline := time.Now().Add(60 * time.Second) // safety net if the parent dies
	for time.Now().Before(deadline) {
		var vals []string
		for i := 0; i < 4; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d)", n+i, ((n+i)*7)%997))
		}
		if _, err := eng.Query(ctx, "insert into ps values "+strings.Join(vals, ", ")); err != nil {
			fmt.Printf("helper: insert: %v\n", err)
			return
		}
		n += 4
		// The wrapper insert is one WAL record, fsynced before Query returns
		// (fsync=always) and recovered whole or not at all, so this ack is
		// a durable lower bound and every recovery a whole-batch prefix.
		fmt.Printf("acked ps %d\n", n)
	}
}

// TestEnginePartitionedKillIngest is the partitioned acceptance crash
// test: kill -9 a subprocess mid-ingest through a hash-partitioned table
// (background merges and checkpoints racing the writer on every
// partition), reopen the data directory, and require that the wrapper is
// re-created, every partition recovers to its own checkpoint horizon plus
// its WAL suffix — together exactly a whole-batch prefix of the
// deterministic row sequence — and that classic and A&R scatter-gather
// agree byte-for-byte on the recovered state.
func TestEnginePartitionedKillIngest(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	acked := 0
	for round := 0; round < 2; round++ {
		cmd := exec.Command(os.Args[0], "-test.run=TestEnginePartKillHelper$", "-test.v")
		cmd.Env = append(os.Environ(), "AR_PART_CRASH_HELPER=1", "AR_CRASH_DIR="+dir)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		ackedRound := 0
		done := make(chan struct{})
		go func() {
			defer close(done)
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				var n int
				if _, err := fmt.Sscanf(sc.Text(), "acked ps %d", &n); err == nil {
					mu.Lock()
					if n > acked {
						acked = n
					}
					ackedRound++
					mu.Unlock()
				}
			}
		}()
		killAt := time.Now().Add(15 * time.Second)
		for {
			mu.Lock()
			enough := ackedRound >= 6
			mu.Unlock()
			if enough || time.Now().After(killAt) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		time.Sleep(time.Duration(rng.Intn(120)) * time.Millisecond)
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		cmd.Wait() // expected to report the kill
		<-done
		mu.Lock()
		enough := ackedRound >= 1
		mu.Unlock()
		if !enough {
			t.Fatalf("round %d: helper acked nothing; stderr:\n%s", round, stderr.String())
		}
	}

	eng := openDurable(t, dir)
	defer eng.Close()
	if acked == 0 {
		t.Fatal("no acks recorded")
	}
	p, ok := eng.Catalog().Partitioned("ps")
	if !ok {
		t.Fatal("wrapper ps not recovered")
	}
	sess := eng.Session()
	k := mustCount(t, sess, "select count(*) from ps")
	if int(k) < acked {
		t.Fatalf("recovered %d rows, but %d were acked durable", k, acked)
	}
	if k%4 != 0 {
		t.Fatalf("recovered %d rows, not whole 4-row batches", k)
	}
	// The scatter count must agree with the partitions themselves.
	var direct int64
	for _, pt := range p.Parts {
		direct += int64(pt.Snapshot().Len())
	}
	if direct != k {
		t.Fatalf("partitions hold %d rows, wrapper count says %d", direct, k)
	}
	// Prefix-exactness across the whole partitioned table: sums of both
	// columns must match the closed forms for rows (i, (i*7)%997), i < k.
	var sumK, sumV int64
	for i := int64(0); i < k; i++ {
		sumK += i
		sumV += (i * 7) % 997
	}
	res, err := sess.Query(context.Background(), "select sum(k), sum(v) from ps")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0].Vals; got[0] != sumK || got[1] != sumV {
		t.Fatalf("sums (%d, %d) after recovery, want (%d, %d) — not the row prefix", got[0], got[1], sumK, sumV)
	}
	sess.Close()
	renderBoth(t, eng, "select count(*), sum(v) from ps where v < 500")
	rec := eng.Durability().Recovery()
	t.Logf("partitioned recovery after kill -9: %s", rec.String())
}
