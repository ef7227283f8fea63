package plan_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/bulk"
	"repro/internal/device"
	"repro/internal/par"
	"repro/internal/plan"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/tpch"
)

// joinChainData is the star schema of the join tests as plain slices — what
// the row oracle reads — beside the catalog loaded from it: fact(v, w, g,
// fk1, fk2) with v and w decomposed with residual bits and the rest device
// resident, dim1(id, a, r) keyed densely from 100 and dim2(id, b, s) from 0,
// a and b decomposed with residual bits, r and s resident.
type joinChainData struct {
	c    *plan.Catalog
	fact map[string][]int64
	dims map[string]map[string][]int64
}

var (
	joinChainFactCols = []string{"v", "w", "g", "fk1", "fk2"}
	joinChainDims     = []struct {
		name, attr, res string
		n               int
		base            int64
	}{{"dim1", "a", "r", 40, 100}, {"dim2", "b", "s", 25, 0}}
)

func addJoinChainTable(t testing.TB, c *plan.Catalog, name string, order []string, cols map[string][]int64, bits map[string]uint) {
	t.Helper()
	tbl := plan.NewTable(name)
	for _, col := range order {
		if err := tbl.AddColumn(col, bat.NewDense(cols[col], bat.Width32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	for _, col := range order {
		if b, ok := bits[col]; ok {
			if _, err := c.Decompose(name, col, b); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func buildJoinChainData(t testing.TB, n int, seed int64) *joinChainData {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := &joinChainData{c: plan.NewCatalog(device.PaperSystem()), fact: map[string][]int64{}, dims: map[string]map[string][]int64{}}
	for _, dim := range joinChainDims {
		cols := map[string][]int64{"id": make([]int64, dim.n), dim.attr: make([]int64, dim.n), dim.res: make([]int64, dim.n)}
		for i := 0; i < dim.n; i++ {
			cols["id"][i] = dim.base + int64(i)
			cols[dim.attr][i] = int64(rng.Intn(100))
			cols[dim.res][i] = int64(rng.Intn(8))
		}
		d.dims[dim.name] = cols
		addJoinChainTable(t, d.c, dim.name, []string{"id", dim.attr, dim.res}, cols, map[string]uint{dim.attr: 5, dim.res: 32})
		if err := d.c.BuildFKIndex(dim.name, "id"); err != nil {
			t.Fatal(err)
		}
	}
	for _, col := range joinChainFactCols {
		d.fact[col] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		d.fact["v"][i] = int64(rng.Intn(4096))
		d.fact["w"][i] = int64(rng.Intn(4096))
		d.fact["g"][i] = int64(rng.Intn(5))
		d.fact["fk1"][i] = 100 + int64(rng.Intn(40))
		d.fact["fk2"][i] = int64(rng.Intn(25))
	}
	addJoinChainTable(t, d.c, "fact", joinChainFactCols, d.fact, map[string]uint{"v": 8, "w": 6, "g": 32, "fk1": 32, "fk2": 32})
	return d
}

// executionModel renders everything the simulated execution of one statement
// is defined by: the meter field by field, the candidate counts, the phase-A
// answer, and per operator of \explain analyze its stage, text, rows,
// estimate and meter split — no wall-clock time.
func executionModel(r *plan.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "gpu=%d cpu=%d pci=%d candidates=%d refined=%d approx=%v\n",
		r.Meter.GPU, r.Meter.CPU, r.Meter.PCI, r.Candidates, r.Refined, r.Approx)
	for _, ev := range r.Trace.Events {
		fmt.Fprintf(&sb, "[%s] %s rows=%d est=%d gpu=%d cpu=%d pci=%d\n", ev.Stage, ev.Op, ev.Rows, ev.Est, ev.GPU, ev.CPU, ev.PCI)
	}
	return sb.String()
}

// TestJoinChainExecutionModelPinned pins what a joined statement is billed
// and lists, under both executors, to the constants recorded at 739b4af —
// where every join carried a position list beside its candidates: the
// simulated device and CPU are billed for the execution model, not for the
// host's passes (DESIGN.md §7), at every worker count and morsel size.
func TestJoinChainExecutionModelPinned(t *testing.T) {
	star := buildJoinChainData(t, 20000, 11)
	starDel := buildJoinChainData(t, 20000, 11)
	if _, err := starDel.c.DeleteRows(nil, "dim1", []plan.Filter{{Col: "id", Lo: 103, Hi: 109}}); err != nil {
		t.Fatal(err)
	}
	if _, err := starDel.c.DeleteRows(nil, "fact", []plan.Filter{{Col: "w", Lo: 0, Hi: 300}}); err != nil {
		t.Fatal(err)
	}
	h := plan.NewCatalog(device.PaperSystem())
	d := tpch.Generate(0.01, 1)
	if err := d.Load(h); err != nil {
		t.Fatal(err)
	}
	if err := d.DecomposeAll(h, true); err != nil {
		t.Fatal(err)
	}
	q14, err := tpch.Q14(1995, 9)
	if err != nil {
		t.Fatal(err)
	}
	join1 := plan.JoinSpec{FKCol: "fk1", Dim: "dim1", DimPK: "id"}
	join2 := plan.JoinSpec{FKCol: "fk2", Dim: "dim2", DimPK: "id"}
	with := func(j plan.JoinSpec, fs ...plan.Filter) plan.JoinSpec { j.DimFilters = fs; return j }
	for _, tc := range []struct {
		name string
		c    *plan.Catalog
		q    plan.Query
		want map[string]string
	}{
		{"Q14, l_shipdate space constrained", h, q14, pinnedQ14},
		{"two joins", star.c, plan.Query{
			Table:   "fact",
			Filters: []plan.Filter{{Col: "v", Lo: 500, Hi: 2500}},
			Joins: []plan.JoinSpec{
				with(join1, plan.Filter{Col: "a", Lo: 20, Hi: 70}, plan.Filter{Col: "r", Lo: 1, Hi: 6}),
				with(join2, plan.Filter{Col: "b", Lo: 10, Hi: 90})},
			GroupBy: []string{"g"},
			Aggs: []plan.AggSpec{
				{Name: "n", Func: plan.Count},
				{Name: "s", Func: plan.Sum, Expr: plan.Add(plan.DimCol("dim1", "a"), plan.DimCol("dim2", "s"))},
				{Name: "m", Func: plan.Max, Expr: plan.Col("w")},
			},
		}, pinnedTwoJoins},
		{"dimension and fact deletions", starDel.c, plan.Query{
			Table:   "fact",
			Filters: []plan.Filter{{Col: "v", Lo: 0, Hi: 3000}},
			Joins:   []plan.JoinSpec{with(join1, plan.Filter{Col: "a", Lo: 0, Hi: 80})},
			Aggs: []plan.AggSpec{
				{Name: "n", Func: plan.Count},
				{Name: "s", Func: plan.Sum, Expr: plan.DimCol("dim1", "r")},
			},
		}, pinnedDimDeletion},
		{"disjunction and join", star.c, plan.Query{
			Table:   "fact",
			Filters: []plan.Filter{{Col: "g", Lo: 0, Hi: 3}},
			Or:      [][]plan.Filter{{{Col: "v", Lo: 0, Hi: 700}, {Col: "w", Lo: 3000, Hi: plan.NoHi}}},
			Joins:   []plan.JoinSpec{with(join2, plan.Filter{Col: "b", Lo: 30, Hi: 99})},
			Aggs: []plan.AggSpec{
				{Name: "n", Func: plan.Count},
				{Name: "s", Func: plan.Sum, Expr: plan.MulScaled(plan.Col("w"), plan.DimCol("dim2", "b"), 1)},
			},
		}, pinnedOrJoin},
	} {
		for _, mode := range []struct {
			name string
			exec func(context.Context, plan.Query, plan.ExecOpts) (*plan.Result, error)
		}{{"ar", tc.c.ExecAR}, {"classic", tc.c.ExecClassic}} {
			for _, opts := range []plan.ExecOpts{{Trace: true}, {Threads: 1, Workers: 4, Morsel: 1000, Trace: true}} {
				res, err := mode.exec(context.Background(), tc.q, opts)
				if err != nil {
					t.Fatalf("%s %s: %v", tc.name, mode.name, err)
				}
				if got := executionModel(res); got != tc.want[mode.name] {
					t.Errorf("%s, %s, workers %d:\n%s\nthe parent's execution model:\n%s", tc.name, mode.name, opts.Workers, got, tc.want[mode.name])
				}
			}
		}
	}
}

// ---- The row oracle ----

// joinChainAgg is an aggregate the oracle can evaluate: fn over the sum of
// the referenced columns (count when there are none).
type joinChainAgg struct {
	fn   plan.AggFunc
	refs []plan.ColRef
}

func (a joinChainAgg) spec(name string) plan.AggSpec {
	var e plan.Expr
	for _, ref := range a.refs {
		term := plan.Col(ref.Name)
		if ref.IsDim() {
			term = plan.DimCol(ref.Dim, ref.Name)
		}
		if e == nil {
			e = term
		} else {
			e = plan.Add(e, term)
		}
	}
	return plan.AggSpec{Name: name, Func: a.fn, Expr: e}
}

func inFilter(v int64, f plan.Filter) bool { return v >= f.Lo && v <= f.Hi }

// oracle answers q over the oracle's copy of the tables — live marks the fact
// rows (base then inserted) no DELETE took, dead the dimension rows one did —
// row at a time for the fact predicates and with the bulk operators for the
// joins: the pre-built index probe (bulk.FKJoin) for dim1, a generic hash
// join of the key values against the dimension's primary key
// (bulk.HashJoin) for dim2, and bulk.Fetch for every dimension attribute.
func (d *joinChainData) oracle(t testing.TB, q plan.Query, aggs []joinChainAgg, live []bool, dead map[string][]bool) []plan.Row {
	t.Helper()
	var rows []bat.OID
	for i := range live {
		ok := live[i]
		for _, f := range q.Filters {
			ok = ok && inFilter(d.fact[f.Col][i], f)
		}
		for _, group := range q.Or {
			any := false
			for _, f := range group {
				any = any || inFilter(d.fact[f.Col][i], f)
			}
			ok = ok && any
		}
		if ok {
			rows = append(rows, bat.OID(i))
		}
	}
	pos := map[string][]bat.OID{} // dimension positions aligned with rows
	for _, j := range q.Joins {
		fks := bulk.Fetch(par.P{}, nil, bat.NewDense(d.fact[j.FKCol], bat.Width32), rows)
		var at []bat.OID
		hit := make([]bool, len(rows))
		if j.Dim == "dim1" {
			ix, err := d.c.FKIndex(j.Dim, j.DimPK)
			if err != nil {
				t.Fatal(err)
			}
			at, hit = bulk.FKJoin(par.P{}, nil, ix, fks)
		} else {
			at = make([]bat.OID, len(rows))
			lids, rids := bulk.HashJoin(nil, 1, fks, d.dims[j.Dim][j.DimPK])
			for k := range lids {
				at[lids[k]], hit[lids[k]] = rids[k], true
			}
		}
		keep := make([]bool, len(rows))
		for i := range rows {
			keep[i] = hit[i] && !dead[j.Dim][at[i]]
		}
		for _, f := range j.DimFilters {
			vals := bulk.Fetch(par.P{}, nil, bat.NewDense(d.dims[j.Dim][f.Col], bat.Width32), at)
			for i := range rows {
				keep[i] = keep[i] && (!hit[i] || inFilter(vals[i], f))
			}
		}
		pos[j.Dim] = at
		n := 0
		for i := range rows {
			if keep[i] {
				rows[n] = rows[i]
				for _, list := range pos {
					list[n] = list[i]
				}
				n++
			}
		}
		rows = rows[:n]
		for dim := range pos {
			pos[dim] = pos[dim][:n]
		}
	}
	type state struct {
		n    int64
		vals []int64
	}
	groups := map[int64]*state{}
	for i, row := range rows {
		var key int64
		if len(q.GroupBy) > 0 {
			key = d.fact[q.GroupBy[0]][row]
		}
		st := groups[key]
		if st == nil {
			st = &state{vals: make([]int64, len(aggs))}
			groups[key] = st
		}
		for k, a := range aggs {
			var v int64
			for _, ref := range a.refs {
				if ref.IsDim() {
					v += d.dims[ref.Dim][ref.Name][pos[ref.Dim][i]]
				} else {
					v += d.fact[ref.Name][row]
				}
			}
			switch {
			case a.fn == plan.Count:
				st.vals[k]++
			case a.fn == plan.Sum:
				st.vals[k] += v
			case st.n == 0 || v > st.vals[k]: // plan.Max
				st.vals[k] = v
			}
		}
		st.n++
	}
	if len(q.GroupBy) == 0 {
		if st := groups[0]; st != nil {
			return []plan.Row{{Vals: st.vals}}
		}
		return []plan.Row{{Vals: make([]int64, len(aggs))}}
	}
	var keys []int64
	for key := range groups {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	out := make([]plan.Row, len(keys))
	for i, key := range keys {
		out[i] = plan.Row{Keys: []int64{key}, Vals: groups[key].vals}
	}
	return out
}

// randJoinChainQuery draws one statement: 0–2 joins in either written order,
// each with 0–2 dimension filters on its decomposed and its resident
// attribute, after 0–2 fact conjuncts and maybe a disjunction; grouped or
// not; and now and then a dimension filter nothing satisfies.
func randJoinChainQuery(rng *rand.Rand) (plan.Query, []joinChainAgg) {
	q := plan.Query{Table: "fact"}
	for _, col := range []string{"v", "w"}[:rng.Intn(3)] {
		lo := int64(rng.Intn(3000))
		q.Filters = append(q.Filters, plan.Filter{Col: col, Lo: lo, Hi: lo + int64(500+rng.Intn(3000))})
	}
	if rng.Intn(2) == 0 {
		q.Or = [][]plan.Filter{{
			{Col: "v", Lo: 0, Hi: int64(rng.Intn(2500))},
			{Col: "w", Lo: int64(1500 + rng.Intn(2500)), Hi: plan.NoHi},
		}}
	}
	aggs := []joinChainAgg{{fn: plan.Count}, {fn: plan.Sum, refs: []plan.ColRef{{Name: "w"}}}}
	order := rng.Perm(len(joinChainDims))[:rng.Intn(len(joinChainDims)+1)]
	for ji, di := range order {
		dim := joinChainDims[di]
		j := plan.JoinSpec{FKCol: fmt.Sprintf("fk%d", di+1), Dim: dim.name, DimPK: "id"}
		if rng.Intn(3) > 0 {
			lo := int64(rng.Intn(60))
			j.DimFilters = append(j.DimFilters, plan.Filter{Col: dim.attr, Lo: lo, Hi: lo + int64(20+rng.Intn(60))})
		}
		if rng.Intn(3) == 0 {
			j.DimFilters = append(j.DimFilters, plan.Filter{Col: dim.res, Lo: int64(rng.Intn(3)), Hi: int64(3 + rng.Intn(5))})
		}
		if rng.Intn(10) == 0 {
			j.DimFilters = append(j.DimFilters, plan.Filter{Col: dim.attr, Lo: 200, Hi: 300}) // an empty result
		}
		q.Joins = append(q.Joins, j)
		refs := []plan.ColRef{{Name: dim.attr, Dim: dim.name}, {Name: "v"}}
		if ji == 1 {
			refs = append(refs, plan.ColRef{Name: joinChainDims[order[0]].res, Dim: joinChainDims[order[0]].name})
		}
		aggs = append(aggs, joinChainAgg{fn: []plan.AggFunc{plan.Sum, plan.Max}[rng.Intn(2)], refs: refs})
	}
	if rng.Intn(2) == 0 {
		q.GroupBy = []string{"g"}
	}
	for k, a := range aggs {
		q.Aggs = append(q.Aggs, a.spec(fmt.Sprintf("a%d", k)))
	}
	return q, aggs
}

// TestJoinChainMatchesRowOracle is the property test of the one join: over
// generated statements, on tables with fact and dimension deletions and live
// delta rows (some of them with a key that has no partner), the A&R and the
// classic scan return rows byte-identical to each other and to the row
// oracle, at 1 and 4 workers and with a morsel that cuts the work-groups and
// is no multiple of a granule.
func TestJoinChainMatchesRowOracle(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := buildJoinChainData(t, 70_000+rng.Intn(5000), seed) // two device work-groups
		n := len(d.fact["v"])
		live := make([]bool, n, n+400)
		for i := range live {
			live[i] = true
		}
		dead := map[string][]bool{}
		for _, dim := range joinChainDims {
			dead[dim.name] = make([]bool, dim.n)
		}
		check := func(stage string) {
			t.Helper()
			for k := 0; k < 12; k++ {
				q, aggs := randJoinChainQuery(rng)
				want := d.oracle(t, q, aggs, live, dead)
				for _, opts := range []plan.ExecOpts{{}, {Threads: 1, Workers: 4, Morsel: 1000}} {
					for _, mode := range []struct {
						name string
						exec func(context.Context, plan.Query, plan.ExecOpts) (*plan.Result, error)
					}{{"ar", d.c.ExecAR}, {"classic", d.c.ExecClassic}} {
						res, err := mode.exec(context.Background(), q, opts)
						if err != nil {
							t.Fatalf("seed %d %s, %s, workers %d, %+v: %v", seed, stage, mode.name, opts.Workers, q, err)
						}
						if got := plan.FormatRows(res.Rows); got != plan.FormatRows(want) {
							t.Fatalf("seed %d %s, %s, workers %d, %+v:\n%s\nthe row oracle:\n%s", seed, stage, mode.name, opts.Workers, q, got, plan.FormatRows(want))
						}
					}
				}
			}
		}
		check("loaded")

		// Fact and dimension deletions.
		wlo := int64(rng.Intn(3000))
		if _, err := d.c.DeleteRows(nil, "fact", []plan.Filter{{Col: "w", Lo: wlo, Hi: wlo + 400}}); err != nil {
			t.Fatal(err)
		}
		for i := range live {
			live[i] = live[i] && !inFilter(d.fact["w"][i], plan.Filter{Lo: wlo, Hi: wlo + 400})
		}
		for _, dim := range joinChainDims {
			lo := dim.base + int64(rng.Intn(dim.n-6))
			if _, err := d.c.DeleteRows(nil, dim.name, []plan.Filter{{Col: "id", Lo: lo, Hi: lo + 5}}); err != nil {
				t.Fatal(err)
			}
			for i := lo - dim.base; i <= lo-dim.base+5; i++ {
				dead[dim.name][i] = true
			}
		}
		check("after deletions")

		// Live delta rows, one in eight with a key past its dimension.
		rows := make([][]int64, 400)
		for i := range rows {
			row := []int64{int64(rng.Intn(4096)), int64(rng.Intn(4096)), int64(rng.Intn(5)), 100 + int64(rng.Intn(40)), int64(rng.Intn(25))}
			if i%8 == 0 {
				row[3+rng.Intn(2)] = 999
			}
			rows[i] = row
			for k, col := range joinChainFactCols {
				d.fact[col] = append(d.fact[col], row[k])
			}
			live = append(live, true)
		}
		if _, err := d.c.InsertRows(nil, "fact", rows); err != nil {
			t.Fatal(err)
		}
		check("with delta rows")
	}
}

// ---- The three join bugs of ISSUE 24 ----

var joinChainModes = []plan.Mode{plan.ModeAR, plan.ModeAuto, plan.ModeClassic}

// runMode plans, pins and runs q under mode; the pinned plan comes back when
// the statement got that far.
func runMode(c *plan.Catalog, q plan.Query, mode plan.Mode) (*plan.Result, *plan.Pinned, error) {
	pl, err := c.Plan(q, mode)
	if err != nil {
		return nil, nil, err
	}
	x, err := c.Pin(pl)
	if err != nil {
		return nil, nil, err
	}
	res, err := c.Run(context.Background(), x, plan.ExecOpts{})
	return res, x, err
}

// keyedDim starts a catalog with dim(id, pay), keyed as given — pay = 10·id,
// every bit of it on the device — and no FK index yet.
func keyedDim(t testing.TB, ids []int64) *plan.Catalog {
	t.Helper()
	c := plan.NewCatalog(device.PaperSystem())
	pay := make([]int64, len(ids))
	for i, id := range ids {
		pay[i] = 10 * id
	}
	addJoinChainTable(t, c, "dim", []string{"id", "pay"}, map[string][]int64{"id": ids, "pay": pay}, map[string]uint{"pay": 32})
	return c
}

// addKeyedFact loads fact(fk, v) with fkBits device bits of its key column
// and vBits of v.
func addKeyedFact(t testing.TB, c *plan.Catalog, fk, v []int64, fkBits, vBits uint) {
	t.Helper()
	addJoinChainTable(t, c, "fact", []string{"fk", "v"}, map[string][]int64{"fk": fk, "v": v}, map[string]uint{"fk": fkBits, "v": vBits})
}

var keyedJoin = plan.Query{
	Table: "fact",
	Joins: []plan.JoinSpec{{FKCol: "fk", Dim: "dim", DimPK: "id"}},
	Aggs: []plan.AggSpec{
		{Name: "n", Func: plan.Count},
		{Name: "s", Func: plan.Sum, Expr: plan.DimCol("dim", "pay")},
		{Name: "v", Func: plan.Sum, Expr: plan.Col("v")},
	},
}

// TestJoinChainRequiresIndexedDenseKey: a join is key − base, which is the
// join only over a dense primary key, and the FK index is where the store
// verifies that — so every mode refuses a dimension without one, as classic
// always did. (At 739b4af the A&R scan took the first key for the base and
// summed the wrong rows.)
func TestJoinChainRequiresIndexedDenseKey(t *testing.T) {
	const n = 1000
	for _, tc := range []struct {
		name string
		ids  []int64
	}{
		{"keyed 0,2,4,…", []int64{0, 2, 4, 6, 8, 10, 12, 14}},
		{"keyed 3,1,2", []int64{3, 1, 2}},
		{"dense", []int64{5, 6, 7, 8, 9, 10, 11, 12}},
	} {
		fk, v := make([]int64, n), make([]int64, n)
		var want plan.Row
		want.Vals = make([]int64, 3)
		for i := range fk {
			// Keys of the first half only: all inside [ids[0], ids[0]+len(ids)).
			fk[i], v[i] = tc.ids[i%((len(tc.ids)+1)/2)], int64(i)
			want.Vals[0]++
			want.Vals[1] += 10 * fk[i]
			want.Vals[2] += v[i]
		}
		c := keyedDim(t, tc.ids)
		addKeyedFact(t, c, fk, v, 32, 32)
		for _, mode := range joinChainModes {
			if _, _, err := runMode(c, keyedJoin, mode); err == nil || !strings.Contains(err.Error(), "no FK index on dim.id") {
				t.Errorf("%s, %v: a join without an FK index returned %v", tc.name, mode, err)
			}
		}
		if err := c.BuildFKIndex("dim", "id"); (err == nil) != (tc.name == "dense") {
			t.Fatalf("%s: BuildFKIndex: %v", tc.name, err)
		}
		for _, mode := range joinChainModes {
			res, _, err := runMode(c, keyedJoin, mode)
			switch {
			case tc.name != "dense":
				if err == nil {
					t.Errorf("%s, %v: a join over a key that is not dense answered %v", tc.name, mode, res.Rows)
				}
			case err != nil:
				t.Errorf("%s, %v: %v", tc.name, mode, err)
			case !plan.EqualResults(res.Rows, []plan.Row{want}):
				t.Errorf("%s, %v: %v, want %v", tc.name, mode, res.Rows, want)
			}
		}
	}
}

// TestJoinChainDropsKeyWithoutPartner: an inner join drops a row whose key
// joins nothing — in the base as in the delta, under A&R as under classic,
// before and after a merge — and a dangling row that is only a false-positive
// candidate of a filter it does not satisfy disturbs nobody. (At 739b4af the
// A&R scan failed the whole statement on the first such candidate.)
func TestJoinChainDropsKeyWithoutPartner(t *testing.T) {
	ids := []int64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	const n = 2000
	fk, v := make([]int64, n), make([]int64, n)
	for i := range fk {
		fk[i], v[i] = 10+int64(i%10), int64(i%1024)
	}
	fk[7], v[7] = 99, 150    // dangling, inside the filter
	fk[8], v[8] = 5, 150     // dangling below the dimension
	fk[900], v[900] = 99, 97 // dangling, outside the filter but in its first bucket
	c := keyedDim(t, ids)
	addKeyedFact(t, c, fk, v, 32, 6)
	if err := c.BuildFKIndex("dim", "id"); err != nil {
		t.Fatal(err)
	}
	q := keyedJoin
	q.Filters = []plan.Filter{{Col: "v", Lo: 100, Hi: 200}} // 16-value buckets: 96..111 is cut
	check := func(stage string) {
		t.Helper()
		want := plan.Row{Vals: make([]int64, 3)}
		for i := range fk {
			if v[i] >= 100 && v[i] <= 200 && fk[i] >= 10 && fk[i] <= 19 {
				want.Vals[0]++
				want.Vals[1] += 10 * fk[i]
				want.Vals[2] += v[i]
			}
		}
		for _, mode := range joinChainModes {
			res, _, err := runMode(c, q, mode)
			if err != nil {
				t.Fatalf("%s, %v: %v", stage, mode, err)
			}
			if !plan.EqualResults(res.Rows, []plan.Row{want}) {
				t.Errorf("%s, %v: %v, want %v", stage, mode, res.Rows, want)
			}
		}
	}
	check("dangling rows in the base")
	rows := [][]int64{{12, 120}, {99, 130}, {0, 140}, {19, 97}}
	for _, row := range rows {
		fk, v = append(fk, row[0]), append(v, row[1])
	}
	if _, err := c.InsertRows(nil, "fact", rows); err != nil {
		t.Fatal(err)
	}
	check("dangling rows in the delta")
	if _, err := c.MergeTable(nil, "fact", false); err != nil {
		t.Fatal(err)
	}
	check("after the merge")
}

// TestJoinChainResidualKeyIsAnARIncapability: the device cannot join through
// a key column that keeps residual bits on the CPU, and that is judged where
// capability is judged — forced A&R is refused at Pin, auto scans classically
// on the same snapshot and asks for no device stream, classic answers — over
// a plain and over a partitioned fact table. (At 739b4af auto acquired a
// stream and failed in the probe.)
func TestJoinChainResidualKeyIsAnARIncapability(t *testing.T) {
	ids := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	const n = 3000
	fk, v := make([]int64, n), make([]int64, n)
	rows := make([][]int64, n)
	want := plan.Row{Vals: make([]int64, 3)}
	for i := range fk {
		fk[i], v[i] = int64(i%16), int64(i)
		rows[i] = []int64{fk[i], v[i]}
		want.Vals[0]++
		want.Vals[1] += 10 * fk[i]
		want.Vals[2] += v[i]
	}
	plain, parted := keyedDim(t, ids), keyedDim(t, ids)
	addKeyedFact(t, plain, fk, v, 2, 32)
	defs := []store.ColumnDef{{Name: "fk", Scale: 1, Width: bat.Width32}, {Name: "v", Scale: 1, Width: bat.Width32}}
	if _, err := parted.CreatePartitionedTable("fact", defs, shard.Spec{Kind: shard.Hash, Col: "v", N: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := parted.InsertRows(nil, "fact", rows); err != nil {
		t.Fatal(err)
	}
	for col, bits := range map[string]uint{"fk": 2, "v": 32} {
		if _, err := parted.Decompose("fact", col, bits); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		c    *plan.Catalog
	}{{"plain", plain}, {"partitioned", parted}} {
		if err := tc.c.BuildFKIndex("dim", "id"); err != nil {
			t.Fatal(err)
		}
		for _, mode := range joinChainModes {
			res, x, err := runMode(tc.c, keyedJoin, mode)
			if mode == plan.ModeAR {
				if x != nil || err == nil || !strings.Contains(err.Error(), "ar: FK join needs a fully device-resident key column") {
					t.Errorf("%s, ar: pinned %v, %v; want the key column refused at Pin", tc.name, x != nil, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s, %v: %v", tc.name, mode, err)
			}
			if !x.Choice().Classic || x.ARLegs() != 0 {
				t.Errorf("%s, %v: chose %v with %d A&R legs, want the classic scan and no device stream", tc.name, mode, x.Choice(), x.ARLegs())
			}
			if !plan.EqualResults(res.Rows, []plan.Row{want}) {
				t.Errorf("%s, %v: %v, want %v", tc.name, mode, res.Rows, want)
			}
		}
	}
}
