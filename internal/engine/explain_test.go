package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/device"
	"repro/internal/plan"
	"repro/internal/store"
)

// starEngineCatalog builds a two-dimension star schema for the explain
// and multi-join cache tests.
func starEngineCatalog(t *testing.T) *plan.Catalog {
	t.Helper()
	c := plan.NewCatalog(device.PaperSystem())
	addDim := func(name, attr string, dimN int) {
		d := plan.NewTable(name)
		pk := make([]int64, dimN)
		av := make([]int64, dimN)
		for i := range pk {
			pk[i] = int64(i)
			av[i] = int64(i % 10)
		}
		if err := d.AddColumn("id", pk, bat.Width32); err != nil {
			t.Fatal(err)
		}
		if err := d.AddColumn(attr, av, bat.Width32); err != nil {
			t.Fatal(err)
		}
		if err := c.AddTable(d); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Decompose(name, attr, 4); err != nil {
			t.Fatal(err)
		}
		if err := c.BuildFKIndex(name, "id"); err != nil {
			t.Fatal(err)
		}
	}
	addDim("d1", "a", 20)
	addDim("d2", "b", 10)
	fact := plan.NewTable("f")
	n := 2000
	for _, col := range []string{"v", "fk1", "fk2"} {
		vals := make([]int64, n)
		for i := range vals {
			switch col {
			case "fk1":
				vals[i] = int64(i % 20)
			case "fk2":
				vals[i] = int64(i % 10)
			default:
				vals[i] = int64(i % 1000)
			}
		}
		if err := fact.AddColumn(col, vals, bat.Width32); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddTable(fact); err != nil {
		t.Fatal(err)
	}
	for col, bits := range map[string]uint{"v": 8, "fk1": 32, "fk2": 32} {
		if _, err := c.Decompose("f", col, bits); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

const starQuery = `select count(*) as n from f join d1 on f.fk1 = d1.id join d2 on f.fk2 = d2.id where v < 500 and d1.a < 5`

// TestExplainMeta checks the \explain meta command renders the assembled
// pipeline — scan strategy, selectivity-ordered filters, join chain,
// delta marker — without executing the statement, and follows the
// session's executor mode.
func TestExplainMeta(t *testing.T) {
	eng := New(starEngineCatalog(t), Options{})
	sess := eng.Session()
	defer sess.Close()
	ctx := context.Background()

	lines, quit, handled, err := sess.Meta(ctx, `\explain `+starQuery)
	if err != nil || quit || !handled {
		t.Fatalf("Meta explain: lines=%v quit=%v handled=%v err=%v", lines, quit, handled, err)
	}
	text := strings.Join(lines, "\n")
	for _, want := range []string{
		"mode=ar", "a&r bit-sliced base of f", "est sel",
		"join 1/2: f.fk1 -> d1.id", "join 2/2: f.fk2 -> d2.id",
		"filter d1.a", "delta: none",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("\\explain output missing %q:\n%s", want, text)
		}
	}
	// Forced classic mode explains the classic scan strategy.
	sess.SetMode(ModeClassic)
	lines, _, _, err = sess.Meta(ctx, `\explain `+starQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "classic row-major base") {
		t.Errorf("classic \\explain missing scan strategy:\n%s", strings.Join(lines, "\n"))
	}
	// Write statements have no pipeline.
	if _, _, _, err := sess.Meta(ctx, `\explain insert into f values (1, 2, 3)`); err == nil {
		t.Error("\\explain of a write statement did not fail")
	}
	// The engine-level programmatic entry agrees with the meta surface.
	direct, err := eng.DescribeStatement(starQuery, ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(direct, "\n"), "mode=ar") {
		t.Errorf("DescribeStatement(auto) did not pick the A&R strategy:\n%s", strings.Join(direct, "\n"))
	}
}

// TestExplainShowsExactLeg: \explain names the leg that has nothing to
// refine — every column it reads fully device resident, no delta segment —
// from the same predicate the executor asks, so the line follows the data:
// absent for a statement that filters a column with residual bits, gone
// after an INSERT, back after \merge. \explain analyze carries it above a
// trace whose operators are the general path's.
func TestExplainShowsExactLeg(t *testing.T) {
	eng := New(starEngineCatalog(t), Options{})
	sess := eng.Session()
	defer sess.Close()
	ctx := context.Background()
	const exactLine = "refine: nothing to refine"
	const resident = `select count(*) as n, max(d1.a) as top from f join d1 on f.fk1 = d1.id where d1.a < 5`
	explain := func(cmd, stmt string) string {
		t.Helper()
		lines, _, _, err := sess.Meta(ctx, cmd+" "+stmt)
		if err != nil {
			t.Fatalf("%s %s: %v", cmd, stmt, err)
		}
		return strings.Join(lines, "\n")
	}
	if text := explain(`\explain`, resident); !strings.Contains(text, exactLine) || !strings.Contains(text, "delta: none") {
		t.Errorf("\\explain of a statement over resident columns:\n%s", text)
	}
	if text := explain(`\explain`, starQuery); strings.Contains(text, exactLine) {
		t.Errorf("\\explain shows an exact leg though f.v holds residual bits:\n%s", text)
	}
	sess.SetMode(ModeClassic)
	if text := explain(`\explain`, resident); strings.Contains(text, exactLine) {
		t.Errorf("\\explain shows an exact leg under classic:\n%s", text)
	}
	sess.SetMode(ModeAR)

	analyzed := explain(`\explain analyze`, resident)
	for _, want := range []string{exactLine, "trace:", "bwd.leftjoinapproximate", "ship(", "bwd.leftjoinrefine(f.fk1 -> d1)", "bwd.uselectrefine(d1.a)", "bwd.maxrefine(top)", "candidates 1000 -> refined 1000"} {
		if !strings.Contains(analyzed, want) {
			t.Errorf("\\explain analyze missing %q:\n%s", want, analyzed)
		}
	}

	if _, err := sess.Query(ctx, `insert into f values (1, 2, 3)`); err != nil {
		t.Fatal(err)
	}
	if text := explain(`\explain`, resident); strings.Contains(text, exactLine) || !strings.Contains(text, "delta: 1 rows") {
		t.Errorf("\\explain after an INSERT:\n%s", text)
	}
	if _, _, _, err := sess.Meta(ctx, `\merge f`); err != nil {
		t.Fatal(err)
	}
	if text := explain(`\explain`, resident); !strings.Contains(text, exactLine) {
		t.Errorf("\\explain after \\merge:\n%s", text)
	}
}

// TestPlanCacheMultiJoinDeps checks that a cached multi-join binding
// records every joined dimension as a dependency: dropping and
// re-creating the second dimension must invalidate the entry instead of
// serving a stale binding.
func TestPlanCacheMultiJoinDeps(t *testing.T) {
	cat := starEngineCatalog(t)
	eng := New(cat, Options{})
	ctx := context.Background()

	if _, err := eng.Query(ctx, starQuery); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(ctx, starQuery); err != nil {
		t.Fatal(err)
	}
	if st := eng.cache.Stats(); st.Hits == 0 {
		t.Fatalf("expected a cache hit before the schema change, got %+v", st)
	}

	// Drop and re-create the second dimension with a different schema.
	if err := cat.DropTable("d2"); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateTable("d2", []store.ColumnDef{
		{Name: "id", Scale: 1, Width: bat.Width32},
		{Name: "b", Scale: 1, Width: bat.Width32},
	}); err != nil {
		t.Fatal(err)
	}
	inval := eng.cache.Stats().Invalidations
	// The stale entry must not serve: the re-created d2 is empty, so the
	// join now fails validation — but through a fresh compile, not the
	// cached binding.
	if _, err := eng.Query(ctx, starQuery); err == nil {
		t.Fatal("query against re-created empty dimension should fail validation")
	}
	if got := eng.cache.Stats().Invalidations; got <= inval {
		t.Fatalf("second-dimension schema change did not invalidate the cached plan (invalidations %d -> %d)", inval, got)
	}
}

// TestWideGroupKeysMatchClassic: the device grouping table holds one 64-bit
// word per entry, so an A&R statement pre-groups on the device only while
// its grouping columns' approximation bits sum to at most 64; a wider key
// groups on the host. Either way the rows equal the classic engine's, and
// \explain names the path that runs.
func TestWideGroupKeysMatchClassic(t *testing.T) {
	const (
		host = "host rebuild over combined tuples"
		dev  = "device pre-group + refine"
	)
	for _, tc := range []struct {
		name string
		bits []uint // approximation bits per grouping column
		how  string
	}{
		{"24+24+24", []uint{24, 24, 24}, host},
		{"32+32", []uint{32, 32}, dev},
		{"33+32", []uint{33, 32}, host},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := New(plan.NewCatalog(device.PaperSystem()), Options{})
			sess := eng.Session()
			defer sess.Close()
			ctx := context.Background()
			run := func(src string) *Result {
				t.Helper()
				res, err := sess.Query(ctx, src)
				if err != nil {
					t.Fatalf("%s: %v", src, err)
				}
				return res
			}
			// Column k cycles through k+3 values that differ in their high
			// bits and span more bits than it is decomposed at, so each
			// keeps a residual: 60 groups over three columns, 12 over two.
			names := []string{"a", "b", "d"}[:len(tc.bits)]
			var rows, decompose []string
			for i := 0; i < 600; i++ {
				vals := make([]string, 0, len(names)+1)
				for k, bits := range tc.bits {
					vals = append(vals, fmt.Sprint(int64(i%(k+3))<<(bits-1)|int64(i%3)))
				}
				rows = append(rows, "("+strings.Join(append(vals, fmt.Sprint(i)), ", ")+")")
			}
			for k, name := range names {
				decompose = append(decompose, fmt.Sprintf("bwdecompose(%s, %d)", name, tc.bits[k]))
			}
			keys := strings.Join(names, ", ")
			run("create table w (" + strings.Join(names, " int, ") + " int, v int)")
			run("insert into w values " + strings.Join(rows, ", "))
			run("select " + strings.Join(decompose, ", ") + ", bwdecompose(v, 8) from w")
			q := "select " + keys + ", count(*) as n, sum(v) as s from w group by " + keys

			sess.SetMode(ModeClassic)
			want := run(q).Rows
			sess.SetMode(ModeAR)
			got := run(q).Rows
			if !plan.EqualResults(got, want) {
				t.Errorf("a&r returned %d groups, classic %d:\n got %v\nwant %v", len(got), len(want), got, want)
			}
			lines, _, _, err := sess.Meta(ctx, `\explain `+q)
			if err != nil {
				t.Fatal(err)
			}
			if text := strings.Join(lines, "\n"); !strings.Contains(text, tc.how) {
				t.Errorf("\\explain does not say %q:\n%s", tc.how, text)
			}
		})
	}
}
