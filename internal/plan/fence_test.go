package plan

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/shard"
)

// TestStatementFence: every partition publishes its own snapshot, so an
// INSERT or DELETE over several becomes visible leg by leg. A reader that
// pins in the middle — started at the seam between two legs' applies — must
// see all of the statement or none of it. Without the fence the Pin runs at
// once and pins one leg after the statement and the others before it; with
// it, the Pin waits until the statement's last leg has published.
func TestStatementFence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := make([][]int64, 600)
	for i := range rows {
		rows[i] = partPropRow(rng)
	}
	c := partPropCatalog(t, 3, shard.Hash, rows[:300])
	pl, err := c.Plan(Query{
		Table:   "fact",
		Filters: []Filter{{Col: "v", Lo: 0, Hi: NoHi}},
		Aggs:    []AggSpec{{Name: "n", Func: Count}},
	}, ModeClassic)
	if err != nil {
		t.Fatal(err)
	}
	count := func(x *Pinned) int64 {
		t.Helper()
		res, err := c.Run(context.Background(), x, ExecOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0].Vals[0]
	}
	// pinAtSeam runs one statement with a reader parked at its first seam
	// and returns the row count that reader pinned.
	pinAtSeam := func(statement func()) int64 {
		t.Helper()
		pinned := make(chan *Pinned, 1)
		seams := 0
		c.betweenLegs = func() {
			if seams++; seams > 1 {
				return
			}
			started := make(chan struct{})
			go func() {
				close(started)
				x, err := c.Pin(pl)
				if err != nil {
					t.Error(err)
				}
				pinned <- x
			}()
			<-started
			// Let the reader run as far as it can: unfenced, it finishes its
			// Pin here, between two legs' applies; fenced, it blocks.
			for i := 0; i < 1000 && len(pinned) == 0; i++ {
				runtime.Gosched()
			}
		}
		statement()
		c.betweenLegs = nil
		if seams < 2 {
			t.Fatalf("the statement touched %d partitions; the test needs all 3", seams+1)
		}
		return count(<-pinned)
	}

	if got := pinAtSeam(func() {
		if _, err := c.InsertRows(nil, "fact", rows[300:]); err != nil {
			t.Fatal(err)
		}
	}); got != 300 && got != 600 {
		t.Fatalf("a reader pinned mid-INSERT sees %d rows: neither the 300 before the statement nor the 600 after it", got)
	}

	var deleted int64
	if got := pinAtSeam(func() {
		if deleted, err = c.DeleteRows(nil, "fact", []Filter{{Col: "w", Lo: 0, Hi: 2047}}); err != nil {
			t.Fatal(err)
		}
	}); got != 600 && got != 600-deleted {
		t.Fatalf("a reader pinned mid-DELETE sees %d rows: neither the 600 before the statement nor the %d after it", got, 600-deleted)
	}
}
