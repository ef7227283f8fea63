package plan

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bat"
	"repro/internal/bulk"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/par"
	"repro/internal/store"
)

// The classic selection keeps its survivors in a mask and settles most
// granules from the bounds of a decomposed column, but what it selects and
// what it bills are the bulk operators': the id list, in row order, and every
// meter field must equal the reference chain bulk.SelectRange → SelectOIDs
// per further conjunct → a fetch-and-filter pass per disjunction group → the
// deletion-bitmap probe, over decomposed and plain columns, clustered and
// uniform, with deleted rows, a base length that is no multiple of 64, and
// 1, 2 and 4 threads over morsels whose edges fall on granule boundaries and
// between them.

// classicFixture is a fact table of n rows: a run-clustered column and a
// uniform one, both decomposed (one with residual bits, one without), and a
// plain column that never was.
func classicFixture(t testing.TB, n int, seed int64) *Catalog {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := NewCatalog(device.PaperSystem())
	tbl := NewTable("fact")
	runs, uniform, plain := make([]int64, n), make([]int64, n), make([]int64, n)
	for i, at, left := 0, int64(0), 0; i < n; i++ {
		if left == 0 {
			at, left = rng.Int63n(1<<20)-1<<19, 50+rng.Intn(150) // a new run starts anywhere, at any row
		}
		at += rng.Int63n(21) - 10
		left--
		runs[i], uniform[i], plain[i] = at, rng.Int63n(4096), rng.Int63n(1000)
	}
	for _, col := range []struct {
		name string
		vals []int64
	}{{"runs", runs}, {"uniform", uniform}, {"plain", plain}} {
		if err := tbl.AddColumn(col.name, bat.NewDense(col.vals, bat.Width32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	for col, bits := range map[string]uint{"runs": 14, "uniform": 12} {
		if _, err := c.Decompose("fact", col, bits); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// refClassicSelect is the reference: the bulk operators, id list to id list.
func refClassicSelect(p par.P, m *device.Meter, fs *store.Snapshot, q Query) []bat.OID {
	col := func(name string) *bat.BAT {
		b, err := fs.Column(name)
		if err != nil {
			panic(err)
		}
		return b
	}
	var ids []bat.OID
	for i, f := range q.Filters {
		if i == 0 {
			ids = bulk.SelectRange(p, m, col(f.Col), f.Lo, f.Hi)
		} else {
			ids = bulk.SelectOIDs(p, m, col(f.Col), ids, f.Lo, f.Hi)
		}
	}
	if len(q.Filters) == 0 {
		ids = make([]bat.OID, fs.BaseLen())
		for i := range ids {
			ids[i] = bat.OID(i)
		}
		m.CPUWork(p.NThreads(), int64(len(ids))*4, 0, int64(len(ids)))
	}
	for _, group := range q.Or {
		vals := make([][]int64, len(group))
		for k, f := range group {
			vals[k] = bulk.Fetch(p, m, col(f.Col), ids)
		}
		kept := ids[:0:0]
		for i, id := range ids {
			for k, f := range group {
				if v := vals[k][i]; v >= f.Lo && v <= f.Hi {
					kept = append(kept, id)
					break
				}
			}
		}
		m.CPUWork(p.NThreads(), int64(len(group))*int64(len(ids))*8, 0, int64(len(group))*int64(len(ids)))
		ids = kept
	}
	if fs.BaseDeletedCount() > 0 {
		kept := ids[:0:0]
		for _, id := range ids {
			if !fs.BaseDeleted(int(id)) {
				kept = append(kept, id)
			}
		}
		m.CPUWork(p.NThreads(), int64(len(ids))*8+int64(fs.BaseLen()+7)/8, 0, int64(len(ids)))
		ids = kept
	}
	return ids
}

func TestClassicSelectMatchesBulkReference(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{64*40 + 37, 64 * 64, 1} {
		c := classicFixture(t, n, int64(n))
		rng := rand.New(rand.NewSource(int64(n) + 1))
		for round := 0; round < 2; round++ {
			if round == 1 {
				// Deleted base rows: a slice of the clustered column, a slice
				// of the plain one, and a decomposition left untouched by it.
				for _, f := range []Filter{{Col: "runs", Lo: -1 << 17, Hi: 0}, {Col: "plain", Lo: 100, Hi: 180}} {
					if _, err := c.DeleteRows(nil, "fact", []Filter{f}); err != nil {
						t.Fatal(err)
					}
				}
			}
			tbl, err := c.Table("fact")
			if err != nil {
				t.Fatal(err)
			}
			fs := tbl.Snapshot()
			if round == 1 && n > 64 && fs.BaseDeletedCount() == 0 {
				t.Fatal("fixture: nothing deleted")
			}
			runs, _ := fs.Column("runs")
			for trial := 0; trial < 12; trial++ {
				// A box around some row's run, tight or wide; a band of the
				// uniform column; a band of the plain one.
				at := runs.Tail(rng.Intn(n))
				half := int64(1) << uint(4+rng.Intn(14))
				onRuns := Filter{Col: "runs", Lo: at - half, Hi: at + half}
				ulo := rng.Int63n(4096)
				onUniform := Filter{Col: "uniform", Lo: ulo, Hi: ulo + rng.Int63n(2048)}
				plo := rng.Int63n(1000)
				onPlain := Filter{Col: "plain", Lo: plo, Hi: plo + rng.Int63n(600)}
				count := []AggSpec{{Name: "n", Func: Count}}
				for qi, q := range []Query{
					{Table: "fact", Filters: []Filter{onRuns}, Aggs: count},
					{Table: "fact", Filters: []Filter{onRuns, onUniform}, Aggs: count},
					{Table: "fact", Filters: []Filter{onUniform, onRuns, onPlain}, Aggs: count},
					{Table: "fact", Filters: []Filter{onPlain, onRuns}, Aggs: count},
					{Table: "fact", Filters: []Filter{onRuns}, Or: [][]Filter{{onUniform, onPlain}}, Aggs: count},
					{Table: "fact", Or: [][]Filter{{onRuns, onPlain}, {onUniform, onRuns}}, Aggs: count},
					{Table: "fact", Filters: []Filter{{Col: "runs", Lo: 5, Hi: 4}, onUniform}, Aggs: count},
					{Table: "fact", Aggs: count},
				} {
					for _, opts := range []ExecOpts{
						{Threads: 1},
						{Threads: 2, Morsel: 64},
						{Threads: 4, Morsel: 640},
						{Threads: 4, Workers: 2, Morsel: 100}, // rounded up to whole granules
					} {
						label := fmt.Sprintf("n=%d round %d trial %d query %d opts %+v", n, round, trial, qi, opts)
						pl, err := c.Plan(q, ModeClassic)
						if err != nil {
							t.Fatal(err)
						}
						x, err := c.Pin(pl)
						if err != nil {
							t.Fatal(err)
						}
						lg := &x.legs[0]
						lg.st = c.newState(ctx, opts, pl.nOps)
						sel, _, err := lg.pl.selectClassic(&lg.st)
						if err != nil {
							t.Fatal(err)
						}
						got := sel.IDs()
						ref := device.NewMeter(c.sys)
						want := refClassicSelect(opts.par(ctx), ref, lg.pl.snap.fact, q)
						if sel.Len() != len(want) || !slices.Equal(got, want) {
							t.Fatalf("%s: %d rows selected, the bulk chain keeps %d (or other rows, or another order)", label, sel.Len(), len(want))
						}
						if m := lg.st.m; m.GPU != ref.GPU || m.CPU != ref.CPU || m.PCI != ref.PCI {
							t.Fatalf("%s: meter %v, the bulk chain charges %v", label, m, ref)
						}
						sel.Release()

						// The statement itself counts what the chain kept.
						res, err := c.ExecClassic(ctx, q, opts)
						if err != nil {
							t.Fatal(err)
						}
						if live := int64(len(want)); res.Rows[0].Vals[0] != live {
							t.Fatalf("%s: count(*) = %d, the bulk chain keeps %d", label, res.Rows[0].Vals[0], live)
						}
					}
				}
			}
		}
	}
}

// A statement that only counts its rows never lists them: its scan asks the
// arena for the n/64 words of the survivor mask and the per-morsel counts and
// nothing else — no id buffer — however many rows qualify. (The third buffer
// is the aggregation's accumulators.) A statement that sums a column asks for
// exactly one buffer more, the fold's partial state with its sink group: the
// column is read by mask where it lies, never gathered, and no id list is
// made either.
func TestClassicSelectCountAsksForNoIDBuffer(t *testing.T) {
	const n = 64 * 1024
	c := classicFixture(t, n, 5)
	q := Query{
		Table:   "fact",
		Filters: []Filter{{Col: "uniform", Lo: 0, Hi: 3000}, {Col: "runs", Lo: NoLo, Hi: NoHi}},
		Aggs:    []AggSpec{{Name: "n", Func: Count}},
	}
	gets := func(q Query) (uint64, int64) {
		before := mem.Stats()
		res, err := c.ExecClassic(context.Background(), q, ExecOpts{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		after := mem.Stats()
		return after.Hits + after.Misses - before.Hits - before.Misses, res.Rows[0].Vals[0]
	}
	counted, rows := gets(q)
	if rows < n/2 {
		t.Fatalf("fixture: %d of %d rows qualify", rows, n)
	}
	if counted != 3 {
		t.Fatalf("a count-only statement over %d qualifying rows took %d arena buffers, want the mask, the morsel counts and the accumulators", rows, counted)
	}
	q.Aggs = []AggSpec{{Name: "s", Func: Sum, Expr: Col("plain")}}
	if summed, _ := gets(q); summed != counted+1 {
		t.Fatalf("a statement that sums one column took %d arena buffers, the count-only one %d: want one more, the fold's partial state", summed, counted)
	}
}
