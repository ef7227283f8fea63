package mem

import (
	"sync"
	"testing"
)

func TestGetNReturnsRequestedLength(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 1 << 21} {
		s := U64.GetN(n)
		if len(s) != n {
			t.Fatalf("GetN(%d): len %d", n, len(s))
		}
		if cap(s) < n {
			t.Fatalf("GetN(%d): cap %d", n, cap(s))
		}
		U64.Put(s)
	}
}

func TestOversizeFallsThrough(t *testing.T) {
	n := (1 << maxClassBits) + 1
	s := Ints.GetN(n)
	if len(s) != n {
		t.Fatalf("oversize GetN: len %d want %d", len(s), n)
	}
	Ints.Put(s) // dropped for the GC, must not panic
}

func TestPutGetRecycles(t *testing.T) {
	s := I64.GetN(100)
	p0 := &s[:1][0]
	I64.Put(s)
	// The recycled buffer serves the next same-class Get. sync.Pool gives
	// no hard guarantee, but single-goroutine put-then-get is stable in
	// practice; tolerate a miss rather than flake.
	g := I64.GetN(100)
	if &g[:1][0] != p0 {
		t.Log("pool did not serve the recycled buffer (GC ran?)")
	}
	I64.Put(g)
}

func TestSetPoolingOff(t *testing.T) {
	prev := SetPooling(false)
	defer SetPooling(prev)
	s := U64.GetN(64)
	p0 := &s[:1][0]
	U64.Put(s)
	g := U64.GetN(64)
	if &g[:1][0] == p0 {
		t.Fatal("pooling disabled but buffer was recycled")
	}
}

func TestGetPutZeroAlloc(t *testing.T) {
	// Warm the class and the box pool.
	for i := 0; i < 10; i++ {
		U64.Put(U64.GetN(1024))
	}
	if n := testing.AllocsPerRun(200, func() {
		b := U64.GetN(1024)
		U64.Put(b)
	}); n != 0 {
		if RaceEnabled {
			t.Skipf("%.1f allocs/op under -race (sync.Pool drops Puts); strict guard runs in normal builds", n)
		}
		t.Fatalf("Get/Put cycle allocates %.1f/op in steady state", n)
	}
}

func TestStatsAdvance(t *testing.T) {
	before := Stats()
	b := Ints.GetN(64)
	Ints.Put(b)
	Ints.Put(Ints.GetN(64))
	after := Stats()
	if gets := (after.Hits + after.Misses) - (before.Hits + before.Misses); gets < 2 {
		t.Fatalf("expected >=2 gets recorded, got %d", gets)
	}
	if after.Puts-before.Puts < 2 {
		t.Fatalf("expected >=2 puts recorded, got %d", after.Puts-before.Puts)
	}
}

func TestScratchCarveAndReset(t *testing.T) {
	s := GetScratch()
	defer PutScratch(s)
	a := s.U64(100)
	if len(a) != 100 {
		t.Fatalf("carve len %d", len(a))
	}
	b := s.U64(50)
	if &a[0] == &b[0] {
		t.Fatal("second carve aliases the first")
	}
	// The backing array has converged by now: identical carve sequences
	// after a Reset must reuse it without reallocating.
	s.Reset()
	c := s.U64(100)
	s.Reset()
	c2 := s.U64(100)
	if &c[0] != &c2[0] {
		t.Fatal("carve after Reset did not reuse the backing array")
	}
	if len(s.I64(10)) != 10 || len(s.U32(10)) != 10 {
		t.Fatal("typed carves broken")
	}
}

func TestPoolConcurrent(t *testing.T) {
	// Race-detector exercise: many goroutines hammer the shared pools.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b := U64.GetN(64 + (g+i)%4096)
				for j := range b {
					b[j] = uint64(g)
				}
				U64.Put(b)
				s := GetScratch()
				_ = s.U32(128)
				PutScratch(s)
			}
		}(g)
	}
	wg.Wait()
}
