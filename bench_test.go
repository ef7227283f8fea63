// Package repro's root benchmarks: the per-operator wall-clock lines
// perf PRs cite as before/after (BenchmarkOp*, real Go implementations, nil
// meters) and the ingest-while-query stream. The paper's figures are
// `go run ./cmd/arbench`, pinned by internal/experiments' golden test;
// end-to-end performance is recorded by bench/ (DESIGN.md §3).
package repro_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/ar"
	"repro/internal/bat"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/par"
	"repro/internal/plan"
	"repro/internal/spatial"
	"repro/internal/sql"
	"repro/internal/tpch"
)

const benchN = 1 << 20

func benchColumn(bits uint) (*bwd.Column, *bat.BAT) {
	rng := rand.New(rand.NewSource(9))
	vals := make([]int64, benchN)
	for i := range vals {
		vals[i] = int64(rng.Intn(benchN))
	}
	b := bat.NewDense(vals, bat.Width32)
	col, err := bwd.Decompose(b, bits, nil)
	if err != nil {
		panic(err)
	}
	return col, b
}

// BenchmarkOpSelectApprox times an approximate selection through to its
// output: a set keeps only its survivor mask until a position is read, and
// the lines have always included the materialised ids and the selected
// column's codes, which materialise lists.
func BenchmarkOpSelectApprox(b *testing.B) {
	b.Run("uniform", func(b *testing.B) {
		col, _ := benchColumn(12)
		r := col.Relax(0, benchN/10)
		b.SetBytes(col.Approx.Bytes())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			materialise(ar.SelectApprox(col, r), col)
		}
	})

	// ingest_mixed's read at its shape: uniform 17-bit values at 16 device
	// bits, four codes to a word, and a 0.5 % range that no granule's bounds
	// settle, so every granule is compared.
	b.Run("lanes16", func(b *testing.B) {
		rng := rand.New(rand.NewSource(16))
		vals := make([]int64, benchN)
		for i := range vals {
			vals[i] = rng.Int63n(1 << 17)
		}
		col, err := bwd.Decompose(bat.NewDense(vals, bat.Width32), 16, nil)
		if err != nil {
			b.Fatal(err)
		}
		r := col.Relax(1<<16, 1<<16+(1<<17)/200)
		b.SetBytes(col.Approx.Bytes())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := ar.SelectApprox(col, r)
			materialise(c, col)
			c.Release()
		}
	})

	// The regimes of the granule scan at the spatial workload's shape (23
	// bits x 2 M rows, a 1 % range): trip-like clustered rows in runs of 128
	// that start on a granule edge, where almost every granule is skipped
	// from its code bounds; the same values shuffled, where every granule
	// overlaps the range and must be decoded; and runs of 50–200 rows that
	// start at any row, as trips do, where most granules straddle a run break
	// and it is the bounds of their two parts that settle them. A later
	// kernel change has a before/after for each.
	const n, span = 2_000_000, 1 << 23
	rng := rand.New(rand.NewSource(9))
	clustered := make([]int64, n)
	for i, at := 0, int64(span/2); i < n; i++ {
		if i%128 == 0 {
			at = rng.Int63n(span) // a new trip starts somewhere else
		}
		at = min(max(at+rng.Int63n(41)-20, 0), span-1)
		clustered[i] = at
	}
	shuffled := append([]int64(nil), clustered...)
	rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	runs := benchRuns(rng, n, span)
	for _, reg := range []struct {
		name string
		vals []int64
	}{{"clustered", clustered}, {"shuffled", shuffled}, {"runs", runs}} {
		b.Run(reg.name, func(b *testing.B) {
			col, err := bwd.Decompose(bat.NewDense(reg.vals, bat.Width32), 23, nil)
			if err != nil {
				b.Fatal(err)
			}
			r := col.Relax(span/2, span/2+span/100)
			b.SetBytes(col.Approx.Bytes())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := ar.SelectApprox(col, r)
				materialise(c, col)
				c.Release()
			}
		})
	}

	// The spatial statement's shape: a 1 % range on one clustered column,
	// then a 1 % range on a second one that drifts with it, as a trip's
	// latitude does with its longitude. Only calls both sides of the change
	// that moved narrowing onto the mask have, so the line runs on either.
	b.Run("conjunction", func(b *testing.B) {
		second := make([]int64, n)
		for i, v := range clustered {
			second[i] = min(max(v+rng.Int63n(2001)-1000, 0), span-1)
		}
		colA, err := bwd.Decompose(bat.NewDense(clustered, bat.Width32), 23, nil)
		if err != nil {
			b.Fatal(err)
		}
		colB, err := bwd.Decompose(bat.NewDense(second, bat.Width32), 23, nil)
		if err != nil {
			b.Fatal(err)
		}
		rA, rB := colA.Relax(span/2, span/2+span/100), colB.Relax(span/2, span/2+span/100)
		b.SetBytes(colA.Approx.Bytes() + colB.Approx.Bytes())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			first := ar.SelectApprox(colA, rA)
			both := ar.SelectApproxOver(colB, nil, rB, first)
			materialise(both, colB)
			if both != first {
				first.Release()
			}
			both.Release()
		}
	})
}

// materialise lists a candidate set's ids and col's codes of its candidates.
func materialise(c *ar.Candidates, col *bwd.Column) {
	c.IDs()
	ar.ProjectApprox(col, nil, c).Codes()
}

// BenchmarkOpSelectRefine refines a 10 % selection over a column with 8
// residual bits. A refinement narrows its input in place, so every iteration
// refines a fresh approximate set, built and released outside the timer.
func BenchmarkOpSelectRefine(b *testing.B) {
	col, _ := benchColumn(12)
	r := col.Relax(0, benchN/10)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cands := ar.SelectApprox(col, r)
		b.SetBytes(int64(cands.Len()) * 8)
		b.StartTimer()
		if err := ar.SelectRefine(par.P{}, col, nil, 0, benchN/10, cands); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		cands.Release()
		b.StartTimer()
	}
}

// benchRuns draws n values in runs of 50–200 rows, each a slow drift from a
// start anywhere in [0, span): the trips table's shape, run breaks at any row.
func benchRuns(rng *rand.Rand, n int, span int64) []int64 {
	vals := make([]int64, n)
	for i, at, left := 0, int64(0), 0; i < n; i++ {
		if left == 0 {
			at, left = rng.Int63n(span), 50+rng.Intn(150)
		}
		at = min(max(at+rng.Int63n(41)-20, 0), span-1)
		left--
		vals[i] = at
	}
	return vals
}

// BenchmarkOpSelectClassic is the classic selection as a statement runs it: a
// count over two wide conjuncts (each keeps ~40 % of its column's domain, the
// scan_range workload's wide boxes) on 2 M rows of two decomposed columns,
// through Catalog.ExecClassic, so the line measures whatever the executor
// does between the conjuncts. "uniform" draws both columns at random — no
// granule's bounds settle anything — and "runs" in the trips shape, the
// second column drifting with the first.
func BenchmarkOpSelectClassic(b *testing.B) {
	const n, span = 2_000_000, 1 << 23
	rng := rand.New(rand.NewSource(9))
	uniform := func() []int64 {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(span)
		}
		return vals
	}
	runs := benchRuns(rng, n, span)
	drift := make([]int64, n)
	for i, v := range runs {
		drift[i] = min(max(v+rng.Int63n(2001)-1000, 0), span-1)
	}
	for _, reg := range []struct {
		name string
		a, b []int64
	}{{"uniform", uniform(), uniform()}, {"runs", runs, drift}} {
		b.Run(reg.name, func(b *testing.B) {
			c := plan.NewCatalog(device.PaperSystem())
			tbl := plan.NewTable("t")
			for _, col := range []struct {
				name string
				vals []int64
			}{{"a", reg.a}, {"b", reg.b}} {
				if err := tbl.AddColumn(col.name, bat.NewDense(col.vals, bat.Width32)); err != nil {
					b.Fatal(err)
				}
			}
			if err := c.AddTable(tbl); err != nil {
				b.Fatal(err)
			}
			for _, col := range []string{"a", "b"} {
				if _, err := c.Decompose("t", col, 23); err != nil {
					b.Fatal(err)
				}
			}
			q := plan.Query{
				Table:   "t",
				Filters: []plan.Filter{{Col: "a", Lo: span / 4, Hi: span/4 + span*2/5}, {Col: "b", Lo: span / 3, Hi: span/3 + span*2/5}},
				Aggs:    []plan.AggSpec{{Name: "n", Func: plan.Count}},
			}
			b.SetBytes(2 * n * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.ExecClassic(context.Background(), q, plan.ExecOpts{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOpScanRangeMix runs the scan_range workload's statement mix in
// process — 2 M trips, 15 % wide boxes (side 15–40°), a quarter of the rest
// on the hot spot, sides 0.05–2° — through a session in auto mode, and
// reports what the approximate scans did with the granules they visited
// (ar.ScanStats): the share skipped or settled from the bounds and the share
// that had codes compared.
func BenchmarkOpScanRangeMix(b *testing.B) {
	sess := tripsSession(b)
	defer sess.Close()
	rng := rand.New(rand.NewSource(1))
	next := func() string {
		switch p := rng.Float64(); {
		case p < 0.15:
			return tripsBox(rng, boxWide)
		case p < 0.15+0.85/4:
			return tripsBox(rng, boxHot)
		}
		return tripsBox(rng, boxAny)
	}
	runScanRange(b, sess, next)
}

// BenchmarkOpScanRangeBoxes runs the scan_range mix one box class at a time,
// so a change to the scans says which class it moved: wide (side 15–40°,
// which the planner sends to the classic scan), hot (sides 0.05–2° on the
// hot spot) and any (sides 0.05–2° anywhere). It uses only the engine's
// session API, like BenchmarkOpScanRangeMix.
func BenchmarkOpScanRangeBoxes(b *testing.B) {
	sess := tripsSession(b)
	defer sess.Close()
	for _, class := range []struct {
		name string
		box  int
	}{{"wide", boxWide}, {"hot", boxHot}, {"any", boxAny}} {
		b.Run(class.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			runScanRange(b, sess, func() string { return tripsBox(rng, class.box) })
		})
	}
}

// tripsSession loads scan_range's 2 M trips, decomposed as Table I says, and
// opens a session on them in auto mode.
func tripsSession(b *testing.B) *engine.Session {
	c := plan.NewCatalog(device.PaperSystem())
	d := spatial.Generate(2_000_000, 1)
	if err := d.Load(c); err != nil {
		b.Fatal(err)
	}
	if err := d.Decompose(c); err != nil {
		b.Fatal(err)
	}
	return engine.New(c, engine.Options{}).Session()
}

// The box classes of the scan_range mix.
const (
	boxWide = iota // side 15–40°, anywhere it fits
	boxHot         // side 0.05–2°, centred near the hot spot
	boxAny         // side 0.05–2°, anywhere
)

// tripsBox draws one range count over a box of class box.
func tripsBox(rng *rand.Rand, box int) string {
	const (
		lonMin, lonMax = -12.62427, 29.64975
		latMin, latMax = 27.09371, 70.13643
		hotLon, hotLat = 2.69258, 50.43535
	)
	uniform := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
	narrow := func() float64 { return 0.05 * math.Pow(2/0.05, rng.Float64()) }
	var lon, lat, side float64
	switch box {
	case boxWide:
		side = uniform(15, 40)
		lon, lat = uniform(lonMin+side/2, lonMax-side/2), uniform(latMin+side/2, latMax-side/2)
	case boxHot:
		side = narrow()
		lon, lat = hotLon+uniform(-side/4, side/4), hotLat+uniform(-side/4, side/4)
	default:
		lon, lat, side = uniform(lonMin, lonMax), uniform(latMin, latMax), narrow()
	}
	return fmt.Sprintf("select count(lon) from trips where lon between %.5f and %.5f and lat between %.5f and %.5f",
		lon-side/2, lon+side/2, lat-side/2, lat+side/2)
}

// runScanRange runs b.N statements from next through sess and reports the
// share of the granules the approximate scans visited that had codes
// compared, and how many they visited per statement.
func runScanRange(b *testing.B, sess *engine.Session, next func() string) {
	before := ar.ScanStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Query(context.Background(), next()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := ar.ScanStats()
	decoded := float64(after.Decoded - before.Decoded)
	if total := decoded + float64(after.Skipped-before.Skipped) + float64(after.Inside-before.Inside); total > 0 {
		b.ReportMetric(100*decoded/total, "decoded-%")
		b.ReportMetric(total/float64(b.N), "granules/op")
	}
}

// BenchmarkOpProjectApproxRefine projects a second column over a refined 10 %
// selection and reconstructs its exact values: ProjectApprox, then
// ProjectRefine, over the set the refinement left.
func BenchmarkOpProjectApproxRefine(b *testing.B) {
	selCol, _ := benchColumn(12)
	prjCol, _ := benchColumn(12)
	refined := ar.SelectApprox(selCol, selCol.Relax(0, benchN/10))
	if err := ar.SelectRefine(par.P{}, selCol, nil, 0, benchN/10, refined); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(refined.Len()) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proj := ar.ProjectApprox(prjCol, nil, refined)
		vals, err := ar.ProjectRefine(par.P{}, proj)
		if err != nil {
			b.Fatal(err)
		}
		mem.I64.Put(vals)
	}
}

func BenchmarkOpGroupApprox(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	keys := make([]int64, benchN)
	for i := range keys {
		keys[i] = int64(rng.Intn(100))
	}
	col, err := bwd.Decompose(bat.NewDense(keys, bat.Width32), 32, nil)
	if err != nil {
		b.Fatal(err)
	}
	cands := ar.SelectApprox(col, bwd.ApproxRange{Full: true})
	b.SetBytes(int64(benchN) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ar.GroupApprox([]*bwd.Column{col}, cands)
	}
}

// BenchmarkOpExprAggregate is TPC-H Q1 over 240 k lineitem rows (SF 0.04, the
// olap_tail workload's table): 2 group keys, 8 aggregates, two nested
// fixed-point products. "bounds" runs it A&R with every column device
// resident — an exact leg: the program folds once, in phase A, straight off
// the packed columns. "bounds-sc" runs it A&R over the space-constrained
// decomposition, where l_shipdate keeps residual bits — the general path:
// the interval program for the phase-A answer, refinement, and the exact
// program over the refined values, read by mask as code and residual. "exact"
// runs it classic, the exact program alone over the columns' values read by
// mask. "sql" is the statement the olap_tail workload sends, compiled by
// sql.Compile over the resident catalog and run through ExecAR: the binder
// multiplies its two decimal columns at scale 1 where tpch.Q1 divides by 100,
// so it is the line of the text the server executes; "sql-classic" is that
// text run classic, the aggregate a statement routed to the CPU runs. All go
// through the exported executors only, so the same line measures any commit.
func BenchmarkOpExprAggregate(b *testing.B) {
	d := tpch.Generate(0.04, 1)
	load := func(spaceConstrained bool) *plan.Catalog {
		c := plan.NewCatalog(device.PaperSystem())
		if err := d.Load(c); err != nil {
			b.Fatal(err)
		}
		if err := d.DecomposeAll(c, spaceConstrained); err != nil {
			b.Fatal(err)
		}
		return c
	}
	c, sc := load(false), load(true)
	q := tpch.Q1(90)
	served, err := sql.Compile(c, fmt.Sprintf("select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty, sum(l_extendedprice) as sum_base_price, "+
		"sum(l_extendedprice * (1.00 - l_discount)) as sum_disc_price, "+
		"sum(l_extendedprice * (1.00 - l_discount) * (1.00 + l_tax)) as sum_charge, "+
		"avg(l_quantity) as avg_qty, avg(l_extendedprice) as avg_price, avg(l_discount) as avg_disc, count(*) as count_order "+
		"from lineitem where l_shipdate <= %d group by l_returnflag, l_linestatus", tpch.Day(1998, 12, 1)-90))
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		q    plan.Query
		exec func(context.Context, plan.Query, plan.ExecOpts) (*plan.Result, error)
	}{{"bounds", q, c.ExecAR}, {"bounds-sc", q, sc.ExecAR}, {"exact", q, c.ExecClassic}, {"sql", served.Query, c.ExecAR}, {"sql-classic", served.Query, c.ExecClassic}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mode.exec(context.Background(), mode.q, plan.ExecOpts{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOpJoin is the foreign-key join with a dimension filter over 240 k
// lineitem and 8 k part rows (SF 0.04), every column device resident: "q14" is
// the statement olap_tail issues every fourth time — one month of l_shipdate,
// ≈ 3 k candidates, carried into the probe of part and the PROMO range on
// p_type — and "wide" the same without the fact filter, so that all 240 k rows
// reach the join. "paper" is tpch.Q14 itself, the paper's statement, which
// also projects p_type through the key into its CASE: the one of the three
// that reads a dimension column in the fold. Each runs A&R and classic
// through the exported executors only, so the same line measures any commit.
func BenchmarkOpJoin(b *testing.B) {
	d := tpch.Generate(0.04, 1)
	c := plan.NewCatalog(device.PaperSystem())
	if err := d.Load(c); err != nil {
		b.Fatal(err)
	}
	if err := d.DecomposeAll(c, false); err != nil {
		b.Fatal(err)
	}
	wide := plan.Query{
		Table: "lineitem",
		Joins: []plan.JoinSpec{{FKCol: "l_partkey", Dim: "part", DimPK: "p_partkey",
			DimFilters: []plan.Filter{{Col: "p_type", Lo: 75, Hi: 99}}}},
		Aggs: []plan.AggSpec{
			{Name: "promo_revenue", Func: plan.Sum, Expr: plan.MulScaled(plan.Col("l_extendedprice"),
				plan.Sub(plan.Const(100), plan.Col("l_discount")), 100)},
			{Name: "n", Func: plan.Count},
		},
	}
	q14 := wide
	q14.Filters = []plan.Filter{{Col: "l_shipdate", Lo: tpch.Day(1995, 9, 1), Hi: tpch.Day(1995, 9, 30)}}
	paper, err := tpch.Q14(1995, 9)
	if err != nil {
		b.Fatal(err)
	}
	for _, shape := range []struct {
		name string
		q    plan.Query
	}{{"q14", q14}, {"wide", wide}, {"paper", paper}} {
		for _, mode := range []struct {
			name string
			exec func(context.Context, plan.Query, plan.ExecOpts) (*plan.Result, error)
		}{{"ar", c.ExecAR}, {"classic", c.ExecClassic}} {
			b.Run(shape.name+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := mode.exec(context.Background(), shape.q, plan.ExecOpts{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkOpOlapTail is the olap_tail workload's three statement texts at
// fixed parameters over its table (SF 0.04, 240 k lineitem rows, every column
// device resident, so each runs as an exact leg): "q1" (90 days before the
// end, every other statement the workload sends), "q6" (1994, discount
// 0.05–0.07) and "q14" (September 1995, PROMO part types). "widekey" groups a
// year of lineitem by l_shipdate, whose codes are 12 bits wide: the widest
// key the grouped fold's direct table takes, 365 groups; "hashkey" by
// l_shipdate and l_linestatus, 13 bits, which the fold keys through its hash
// table. Each text is compiled by sql.Compile and run through ExecAR only,
// so the same line measures any commit.
func BenchmarkOpOlapTail(b *testing.B) {
	d := tpch.Generate(0.04, 1)
	c := plan.NewCatalog(device.PaperSystem())
	if err := d.Load(c); err != nil {
		b.Fatal(err)
	}
	if err := d.DecomposeAll(c, false); err != nil {
		b.Fatal(err)
	}
	q14From := tpch.Day(1995, 9, 1)
	for _, shape := range []struct{ name, text string }{
		{"q1", fmt.Sprintf("select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty, sum(l_extendedprice) as sum_base_price, "+
			"sum(l_extendedprice * (1.00 - l_discount)) as sum_disc_price, "+
			"sum(l_extendedprice * (1.00 - l_discount) * (1.00 + l_tax)) as sum_charge, "+
			"avg(l_quantity) as avg_qty, avg(l_extendedprice) as avg_price, avg(l_discount) as avg_disc, count(*) as count_order "+
			"from lineitem where l_shipdate <= %d group by l_returnflag, l_linestatus", tpch.Day(1998, 12, 1)-90)},
		{"q6", fmt.Sprintf("select sum(l_extendedprice * l_discount) as revenue from lineitem "+
			"where l_shipdate between %d and %d and l_discount between 0.05 and 0.07 and l_quantity < 24",
			tpch.Day(1994, 1, 1), tpch.Day(1995, 1, 1)-1)},
		{"q14", fmt.Sprintf("select sum(l_extendedprice * (1.00 - l_discount)) as promo_revenue, count(*) as n "+
			"from lineitem join part on lineitem.l_partkey = part.p_partkey "+
			"where l_shipdate between %d and %d and part.p_type between 75 and 99", q14From, q14From+30)},
		{"widekey", fmt.Sprintf("select l_shipdate, sum(l_quantity) as sum_qty, sum(l_extendedprice * (1.00 - l_discount)) as sum_disc_price, "+
			"count(*) as n from lineitem where l_shipdate between %d and %d group by l_shipdate",
			tpch.Day(1995, 1, 1), tpch.Day(1996, 1, 1)-1)},
		// A 13-bit key, past ar.DirectBits: the exact leg keys it through the
		// hash table.
		{"hashkey", fmt.Sprintf("select l_shipdate, l_linestatus, sum(l_quantity) as sum_qty, count(*) as n from lineitem "+
			"where l_shipdate between %d and %d group by l_shipdate, l_linestatus", tpch.Day(1995, 1, 1), tpch.Day(1996, 1, 1)-1)},
	} {
		compiled, err := sql.Compile(c, shape.text)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.ExecAR(context.Background(), compiled.Query, plan.ExecOpts{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIngestWhileQuery drives a concurrent INSERT stream against an
// A&R query stream over the mutable column store: a writer session appends
// batches into the delta segment while the timed loop runs range counts,
// and the background merger compacts deltas past the threshold. The
// reported merge-MB vs redecomp-MB metrics show the write path's
// amortization: an incremental merge ships only the merged rows'
// approximation codes across the bus, a full re-decomposition would ship
// the whole column every time.
func BenchmarkIngestWhileQuery(b *testing.B) {
	sys := device.PaperSystem()
	c := plan.NewCatalog(sys)
	tbl := plan.NewTable("stream")
	n := 200_000
	rng := rand.New(rand.NewSource(11))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(65536))
	}
	// Pin the domain ends so in-range inserts keep the decomposition
	// parameters stable and merges stay incremental.
	vals[0], vals[1] = 0, 65535
	if err := tbl.AddColumn("v", bat.NewDense(vals, bat.Width32)); err != nil {
		b.Fatal(err)
	}
	if err := c.AddTable(tbl); err != nil {
		b.Fatal(err)
	}
	if _, err := c.Decompose("stream", "v", 10); err != nil {
		b.Fatal(err)
	}

	eng := engine.New(c, engine.Options{MergeThreshold: 8192, MergeInterval: time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng.StartMaintenance(ctx)

	// Writer: one INSERT statement per loop, 64 rows each, through the
	// full SQL front end (write bindings are compiled per execution).
	var sb strings.Builder
	sb.WriteString("insert into stream values ")
	for i := 0; i < 64; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d)", rng.Intn(65536))
	}
	insertStmt := sb.String()
	writer := eng.Session()
	defer writer.Close()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := writer.Query(ctx, insertStmt); err != nil {
				b.Error(err)
				return
			}
		}
	}()

	reader := eng.SessionFor(engine.ModeAR)
	defer reader.Close()
	const q = "select count(*) from stream where v between 100 and 5000"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reader.Query(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	<-done

	st, err := c.Table("stream")
	if err != nil {
		b.Fatal(err)
	}
	stats := st.Stats()
	b.ReportMetric(float64(stats.Inserts)/float64(b.N), "rows-ingested/op")
	b.ReportMetric(float64(stats.MergeShippedBytes)/1e6, "merge-MB")
	b.ReportMetric(float64(stats.MergeFullBytes)/1e6, "redecomp-MB")
	if stats.MergeFullBytes > 0 {
		b.ReportMetric(float64(stats.MergeShippedBytes)/float64(stats.MergeFullBytes), "merge-byte-frac")
	}
}
