package bulk

import (
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/mem"
	"repro/internal/par"
)

// Bulk kernel steady-state allocation guards: selection and the grouped
// aggregates draw every output and partial from the arena, so repeated
// queries over a resident table allocate nothing.

func allocFixture(t testing.TB, n int) (*bat.BAT, []int64, *Grouping) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]int64, n)
	keys := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(10000))
		keys[i] = int64(rng.Intn(8))
	}
	g := GroupBy(par.P{}, nil, keys)
	return bat.NewDense(vals, bat.Width32), vals, g
}

func TestSelectFetchZeroAlloc(t *testing.T) {
	b, _, _ := allocFixture(t, 50000)
	run := func() {
		ids := SelectRange(par.P{}, nil, b, 2000, 7000)
		out := Fetch(par.P{}, nil, b, ids)
		mem.I64.Put(out)
		bat.OIDPool.Put(ids)
	}
	for i := 0; i < 5; i++ {
		run()
	}
	if n := testing.AllocsPerRun(50, run); n != 0 {
		if mem.RaceEnabled {
			t.Skipf("%.2f allocs/op under -race (sync.Pool drops Puts); strict guard runs in normal builds", n)
		}
		t.Fatalf("select+fetch allocates %.2f/op in steady state, want 0", n)
	}
}

func TestGroupedAggregatesZeroAlloc(t *testing.T) {
	_, vals, g := allocFixture(t, 50000)
	run := func() {
		mem.I64.Put(SumGrouped(par.P{}, nil, vals, g))
		mem.I64.Put(CountGrouped(par.P{}, nil, g))
		mem.I64.Put(MinGrouped(par.P{}, nil, vals, g))
		mem.I64.Put(MaxGrouped(par.P{}, nil, vals, g))
	}
	for i := 0; i < 5; i++ {
		run()
	}
	if n := testing.AllocsPerRun(50, run); n != 0 {
		if mem.RaceEnabled {
			t.Skipf("%.2f allocs/op under -race (sync.Pool drops Puts); strict guard runs in normal builds", n)
		}
		t.Fatalf("grouped aggregates allocate %.2f/op in steady state, want 0", n)
	}
}

func TestGlobalAggregatesZeroAlloc(t *testing.T) {
	_, vals, _ := allocFixture(t, 50000)
	run := func() {
		Sum(par.P{}, nil, vals)
		Min(par.P{}, nil, vals)
		Max(par.P{}, nil, vals)
	}
	for i := 0; i < 5; i++ {
		run()
	}
	if n := testing.AllocsPerRun(50, run); n != 0 {
		if mem.RaceEnabled {
			t.Skipf("%.2f allocs/op under -race (sync.Pool drops Puts); strict guard runs in normal builds", n)
		}
		t.Fatalf("global aggregates allocate %.2f/op in steady state, want 0", n)
	}
}
