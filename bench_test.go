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
	"repro/internal/par"
	"repro/internal/plan"
	"repro/internal/spatial"
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
// output: CodesFor is there because a set keeps only its survivor mask until
// a position is read, and the lines have always included the materialised
// ids and codes.
func BenchmarkOpSelectApprox(b *testing.B) {
	b.Run("uniform", func(b *testing.B) {
		col, _ := benchColumn(12)
		r := col.Relax(0, benchN/10)
		b.SetBytes(col.Approx.Bytes())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ar.SelectApprox(nil, col, r).CodesFor(col)
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
				c := ar.SelectApprox(nil, col, r)
				c.CodesFor(col)
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
			first := ar.SelectApprox(nil, colA, rA)
			both := ar.SelectApproxOver(nil, colB, nil, rB, first)
			both.CodesFor(colB)
			if both != first {
				first.Release()
			}
			both.Release()
		}
	})
}

func BenchmarkOpSelectRefine(b *testing.B) {
	col, _ := benchColumn(12)
	cands := ar.SelectApprox(nil, col, col.Relax(0, benchN/10))
	b.SetBytes(int64(cands.Len()) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ar.SelectRefine(par.P{}, nil, col, nil, 0, benchN/10, cands)
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
	c := plan.NewCatalog(device.PaperSystem())
	d := spatial.Generate(2_000_000, 1)
	if err := d.Load(c); err != nil {
		b.Fatal(err)
	}
	if err := d.Decompose(c); err != nil {
		b.Fatal(err)
	}
	eng := engine.New(c, engine.Options{})
	sess := eng.Session()
	defer sess.Close()
	const (
		lonMin, lonMax = -12.62427, 29.64975
		latMin, latMax = 27.09371, 70.13643
		hotLon, hotLat = 2.69258, 50.43535
	)
	rng := rand.New(rand.NewSource(1))
	uniform := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
	narrow := func() float64 { return 0.05 * math.Pow(2/0.05, rng.Float64()) }
	next := func() string {
		var lon, lat, side float64
		switch p := rng.Float64(); {
		case p < 0.15:
			side = uniform(15, 40)
			lon, lat = uniform(lonMin+side/2, lonMax-side/2), uniform(latMin+side/2, latMax-side/2)
		case p < 0.15+0.85/4:
			side = narrow()
			lon, lat = hotLon+uniform(-side/4, side/4), hotLat+uniform(-side/4, side/4)
		default:
			lon, lat, side = uniform(lonMin, lonMax), uniform(latMin, latMax), narrow()
		}
		return fmt.Sprintf("select count(lon) from trips where lon between %.5f and %.5f and lat between %.5f and %.5f",
			lon-side/2, lon+side/2, lat-side/2, lat+side/2)
	}
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

func BenchmarkOpProjectApproxRefine(b *testing.B) {
	selCol, _ := benchColumn(12)
	prjCol, _ := benchColumn(12)
	cands := ar.SelectApprox(nil, selCol, selCol.Relax(0, benchN/10))
	refined, _ := ar.SelectRefine(par.P{}, nil, selCol, nil, 0, benchN/10, cands)
	b.SetBytes(int64(refined.Len()) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proj := ar.ProjectApprox(nil, prjCol, nil, cands)
		if _, err := ar.ProjectRefine(par.P{}, nil, proj, refined); err != nil {
			b.Fatal(err)
		}
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
	cands := ar.SelectApprox(nil, col, bwd.ApproxRange{Full: true})
	b.SetBytes(int64(benchN) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ar.GroupApprox(nil, []*bwd.Column{col}, cands)
	}
}

func BenchmarkOpTranslucentJoin(b *testing.B) {
	col, _ := benchColumn(12)
	cands := ar.SelectApprox(nil, col, col.Relax(0, benchN/2))
	refined, _ := ar.SelectRefine(par.P{}, nil, col, nil, 0, benchN/4, cands)
	b.SetBytes(int64(cands.Len()) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ar.TranslucentJoin(cands.IDs(), refined.IDs()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpExprAggregate is TPC-H Q1 over 240 k lineitem rows (SF 0.04, the
// olap_tail workload's table): 2 group keys, 8 aggregates, two nested
// fixed-point products. "bounds" runs it A&R with every column device
// resident — an exact leg: the program folds once, in phase A, straight off
// the packed columns. "bounds-sc" runs it A&R over the space-constrained
// decomposition, where l_shipdate keeps residual bits — the general path:
// the interval program for the phase-A answer, refinement, and the exact
// program over the refined values. "exact" runs it classic, the exact
// program alone. All go through the exported executors only, so the same
// line measures any commit.
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
	for _, mode := range []struct {
		name string
		exec func(context.Context, plan.Query, plan.ExecOpts) (*plan.Result, error)
	}{{"bounds", c.ExecAR}, {"bounds-sc", sc.ExecAR}, {"exact", c.ExecClassic}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mode.exec(context.Background(), q, plan.ExecOpts{}); err != nil {
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
// reach the join. Each runs A&R and classic through the exported executors
// only, so the same line measures any commit.
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
	for _, shape := range []struct {
		name string
		q    plan.Query
	}{{"q14", q14}, {"wide", wide}} {
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
