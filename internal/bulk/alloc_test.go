package bulk

import (
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/mem"
	"repro/internal/par"
)

// Bulk kernel steady-state allocation guards: selection and the global
// aggregates draw every output and partial from the arena, so repeated
// queries over a resident table allocate nothing.

func allocFixture(n int) (*bat.BAT, []int64) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(10000))
	}
	return bat.NewDense(vals, bat.Width32), vals
}

func TestSelectFetchZeroAlloc(t *testing.T) {
	b, _ := allocFixture(50000)
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

func TestGlobalAggregatesZeroAlloc(t *testing.T) {
	_, vals := allocFixture(50000)
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
