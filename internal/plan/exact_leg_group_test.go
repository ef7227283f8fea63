package plan

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ar"
	"repro/internal/bat"
	"repro/internal/bitpack"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/par"
)

// residentColumn is a fully device-resident column of width-bit codes over
// base: row i's value is base + codes[i].
func residentColumn(t *testing.T, width uint, base int64, codes []uint64) *bwd.Column {
	t.Helper()
	dec := bwd.Decomposition{Base: base, TotalBits: width, ApproxBits: width, Width: 8}
	col, err := bwd.Restore(dec, bitpack.Pack(width, codes), bitpack.New(0, len(codes)), nil)
	if err != nil {
		t.Fatal(err)
	}
	return col
}

// driftingKeys is n packed keys of bits bits, split into one column per width
// of widths, the leading column highest: mostly a key near one that drifts
// with the row — so that a work-group meets new keys granule after granule
// and each work-group meets them in an order of its own — and now and then
// any key.
func driftingKeys(t *testing.T, rng *rand.Rand, n int, widths []uint) []*bwd.Column {
	t.Helper()
	var bits uint
	for _, w := range widths {
		bits += w
	}
	size := 1 << bits
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64((i/3000 + rng.Intn(3)) % size)
		if rng.Intn(5) == 0 {
			keys[i] = uint64(rng.Intn(size))
		}
	}
	cols := make([]*bwd.Column, len(widths))
	shift := bits
	for k, w := range widths {
		shift -= w
		codes := make([]uint64, n)
		for i, key := range keys {
			codes[i] = key >> shift & bitpack.Mask(w)
		}
		cols[k] = residentColumn(t, w, 0, codes)
	}
	return cols
}

// TestExactLegGroupsInItsFold: an exact leg folds per key and numbers its
// groups itself (segments.fold). On one candidate set its grouping — the
// groups' key order and NGroups — and every aggregate of every group must
// equal a serial pass over the candidates in candidate order. Keys of 1, 2,
// 3, 6, 7 and 12 bits in one to three columns, which take the direct table,
// and of 13 and 44 bits, which take the hash table; selections that take
// nothing, under 1 %, about half (folded by mask), 95 % (dense blocks taken
// whole, holes inside their granules: the dropped rows go to the sink) and
// everything; one work-group and six (the device's work-groups are sealed in
// a permuted order, so the blocks must be merged in the set's order, not by
// index); one, two and five workers; pooled and unpooled; and cancelled
// before it starts, when it must number nothing. An exact leg grouped by a
// 13-bit key answers what the classic scan answers.
func TestExactLegGroupsInItsFold(t *testing.T) {
	defer mem.SetPooling(mem.SetPooling(true))
	const chunk = 64 << 10 // the device's work-group
	rng := rand.New(rand.NewSource(39))
	aggs := []AggSpec{
		{Name: "n", Func: Count},
		{Name: "s1", Func: Sum, Expr: Col("v1")},
		{Name: "m2", Func: Min, Expr: Col("v2")},
		{Name: "x1", Func: Max, Expr: Col("v1")},
		{Name: "a2", Func: Avg, Expr: Col("v2")},
	}
	pg := compileAggs(aggs)
	for _, n := range []int{3000, 5*chunk + 1000} {
		sel, c1, c2 := make([]uint64, n), make([]uint64, n), make([]uint64, n)
		for i := range sel {
			sel[i], c1[i], c2[i] = uint64(rng.Intn(1000)), uint64(rng.Intn(1<<20)), uint64(rng.Intn(32))
		}
		selCol := residentColumn(t, 10, 0, sel)
		v1, v2 := residentColumn(t, 20, -300_000, c1), residentColumn(t, 5, -7, c2)
		value := func(col *bwd.Column, row int) int64 { return col.Dec.Base + int64(col.Approx.Get(row)) }
		for _, widths := range [][]uint{{1}, {2}, {2, 1}, {1, 2, 3}, {6}, {3, 4}, {12}, {4, 5, 3}, {13}, {6, 7}, {20, 24}} {
			seg := segment{binds: map[ColRef]colBind{{Name: "v1"}: {col: v1}, {Name: "v2"}: {col: v2}}}
			cols := driftingKeys(t, rng, n, widths)
			names := make([]string, len(cols))
			for k, col := range cols {
				names[k] = fmt.Sprint("k", k)
				seg.binds[ColRef{Name: names[k]}] = colBind{col: col}
			}
			shift := make([]uint, len(widths)) // the leading column highest
			for k := len(widths) - 2; k >= 0; k-- {
				shift[k] = shift[k+1] + widths[k+1]
			}
			for _, r := range []struct {
				name string
				rng  bwd.ApproxRange
			}{
				{"empty", bwd.ApproxRange{Lo: 1001, Hi: 1023}},
				{"0.5%", bwd.ApproxRange{Lo: 0, Hi: 4}},
				{"50%", bwd.ApproxRange{Lo: 0, Hi: 499}},
				{"95%", bwd.ApproxRange{Lo: 0, Hi: 949}},
				{"full", bwd.ApproxRange{Full: true}},
			} {
				name := fmt.Sprintf("%d rows, key %v, %s", n, widths, r.name)
				cands := ar.SelectApprox(selCol, r.rng)
				if wg := cands.WorkGroups(); n > chunk && wg < 5 {
					t.Fatalf("%s: fixture spans %d work-groups", name, wg)
				}
				seg.set = cands

				// The serial pass: keys numbered as the candidates meet them.
				gid := map[uint64]int{}
				var order []uint64
				var want [][]int64 // per group: count, sum v1, min v2, max v1, sum v2
				for _, id := range cands.IDs() {
					row := int(id)
					var key uint64
					for k, col := range cols {
						key |= col.Approx.Get(row) << shift[k]
					}
					g, ok := gid[key]
					if !ok {
						g = len(order)
						gid[key] = g
						order = append(order, key)
						want = append(want, []int64{0, 0, 1 << 62, -1 << 62, 0})
					}
					a, b := value(v1, row), value(v2, row)
					w := want[g]
					w[0], w[1], w[2], w[3], w[4] = w[0]+1, w[1]+a, min(w[2], b), max(w[3], a), w[4]+b
				}
				codes := make([][]uint64, len(cols))
				for k, col := range cols {
					codes[k] = make([]uint64, len(order))
					for g, key := range order {
						codes[k][g] = key >> shift[k] & bitpack.Mask(col.Dec.ApproxBits)
					}
				}
				check := func(how string, acc *aggAcc, groups int, got [][]uint64) {
					t.Helper()
					if groups != len(order) || !reflect.DeepEqual(got, codes) {
						t.Fatalf("%s, %s: %d groups with codes %v, the serial pass numbers %d: %v", name, how, groups, got, len(order), codes)
					}
					for g, w := range want {
						exp := []int64{w[0], w[1], w[2], w[3], w[4] / w[0]}
						for k := range aggs {
							if v := pg.value(acc, k, g); v != exp[k] {
								t.Fatalf("%s, %s: group %d (key %#x) %s = %d, the serial pass says %d", name, how, g, order[g], aggs[k].Name, v, exp[k])
							}
						}
					}
				}

				for _, workers := range []int{1, 2, 5} {
					for _, pooled := range []bool{true, false} {
						mem.SetPooling(pooled)
						var acc aggAcc
						keys := segments{seg}.fold(par.P{Threads: 1, Workers: workers}, pg, &acc, names...)
						how := fmt.Sprintf("folded per key on %d workers, pooled %v", workers, pooled)
						check(how, &acc, acc.groups, codesOf(cols, keys))
						acc.release()
					}
				}
				mem.SetPooling(true)

				// A fold cancelled before it walks a work-group numbers no key
				// for it, whatever the arena buffer held before.
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				var acc aggAcc
				segments{seg}.fold(par.P{Threads: 1, Workers: 2, Ctx: ctx}, pg, &acc, names...)
				if acc.groups != 0 {
					t.Fatalf("%s: a fold cancelled before it began numbers %d groups", name, acc.groups)
				}
				acc.release()
				cands.Release()
			}
		}
	}

	// A 13-bit key is wider than the direct table: the exact leg folds it
	// through the hash table, and still answers what the classic scan
	// answers.
	wide := driftingKeys(t, rng, 20_000, []uint{6, 7})
	if bits := ar.GroupKeyBits(wide); bits <= ar.DirectBits {
		t.Fatalf("a %d-bit key fits the direct table", bits)
	}
	c := NewCatalog(device.PaperSystem())
	tbl := NewTable("t")
	for k, name := range []string{"g", "h"} {
		col := wide[k]
		vals := make([]int64, col.Len())
		for i := range vals {
			vals[i] = int64(col.Approx.Get(i))
		}
		if err := tbl.AddColumn(name, vals, bat.Width32); err != nil {
			t.Fatal(err)
		}
	}
	v := make([]int64, 20_000)
	for i := range v {
		v[i] = int64(rng.Intn(1 << 16))
	}
	if err := tbl.AddColumn("v", v, bat.Width32); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"g", "h", "v"} {
		if _, err := c.Decompose("t", col, 32); err != nil {
			t.Fatal(err)
		}
	}
	q := Query{Table: "t", Filters: []Filter{{Col: "v", Lo: 100, Hi: 60_000}}, GroupBy: []string{"g", "h"},
		Aggs: []AggSpec{{Name: "n", Func: Count}, {Name: "s", Func: Sum, Expr: Col("v")}}}
	if bits := ar.GroupKeyBits([]*bwd.Column{mustDecomposition(t, c, "g"), mustDecomposition(t, c, "h")}); bits != 13 {
		t.Fatalf("the statement's key is %d bits, want 13", bits)
	}
	got, err := c.ExecAR(context.Background(), q, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	classic, err := c.ExecClassic(context.Background(), q, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !degenerate(got.Approx) || len(got.Rows) < 100 || !reflect.DeepEqual(got.Rows, classic.Rows) {
		t.Fatalf("13-bit exact leg: %d rows, exact %v; classic %d rows", len(got.Rows), degenerate(got.Approx), len(classic.Rows))
	}
}

// mustDecomposition is table t's decomposed column col.
func mustDecomposition(t *testing.T, c *Catalog, col string) *bwd.Column {
	t.Helper()
	d, err := c.Decomposition("t", col)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// codesOf is the code of every group's key value per column of cols.
func codesOf(cols []*bwd.Column, keys [][]int64) [][]uint64 {
	codes := make([][]uint64, len(cols))
	for k, col := range cols {
		codes[k] = make([]uint64, len(keys[k]))
		for g, v := range keys[k] {
			codes[k][g] = uint64(v - col.Dec.Base)
		}
	}
	return codes
}
