package bulk

import (
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/mem"
	"repro/internal/par"
)

// Bulk kernel steady-state allocation guard: selection and fetch draw every
// output from the arena, so repeated queries over a resident table allocate
// nothing.

func allocFixture(n int) *bat.BAT {
	rng := rand.New(rand.NewSource(11))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(10000))
	}
	return bat.NewDense(vals, bat.Width32)
}

func TestSelectFetchZeroAlloc(t *testing.T) {
	b := allocFixture(50000)
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
