package bwd

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/bat"
	"repro/internal/bitpack"
	"repro/internal/device"
)

func mustDecompose(t *testing.T, vals []int64, approxBits uint) *Column {
	t.Helper()
	c, err := Decompose(vals, bat.Width32, approxBits, nil)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	return c
}

func TestDecomposePaperExample(t *testing.T) {
	// Fig 2 of the paper: 747979 decomposed into 13 major and 7 minor bits
	// (of its 20 significant bits).
	vals := []int64{747979, 0, 1 << 19}
	c := mustDecompose(t, vals, 13)
	if c.Dec.TotalBits != 20 {
		t.Fatalf("TotalBits = %d, want 20", c.Dec.TotalBits)
	}
	if c.Dec.ApproxBits != 13 || c.Dec.ResBits != 7 {
		t.Fatalf("split = %d/%d, want 13/7", c.Dec.ApproxBits, c.Dec.ResBits)
	}
	for i, want := range vals {
		if got := c.Reconstruct(i); got != want {
			t.Errorf("Reconstruct(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestDecomposeReconstructRoundTrip(t *testing.T) {
	f := func(raw []int32, bits uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v)
		}
		approxBits := uint(bits%63) + 1
		c, err := Decompose(vals, bat.Width32, approxBits, nil)
		if err != nil {
			return false
		}
		for i, want := range vals {
			if c.Reconstruct(i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// A column decomposed block by block must be the column decomposed whole:
// across a block boundary and a short last block, values spanning all 64 bits
// and a constant column, Decode must give back every value over any
// granule-aligned range, and Redecompose at another width — read from the
// code and residual, no full-width copy — must build the planes, parameters
// and summaries Decompose builds from the values.
func TestRedecomposeMatchesDecompose(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, tc := range []struct {
		n    int
		vals func(i int) int64
	}{
		{BlockRows + 100, func(i int) int64 { return int64(i/300)*1000 + rng.Int63n(900) }},
		{2*BlockRows + 1, func(int) int64 { return int64(rng.Uint64()) }},
		{130, func(int) int64 { return -7 }},
		{1, func(int) int64 { return 42 }},
	} {
		vals := make([]int64, tc.n)
		for i := range vals {
			vals[i] = tc.vals(i)
		}
		for _, from := range []uint{0, 1, 8, 63} { // 0: no device bits
			c, err := Decompose(vals, bat.Width64, from, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, lo := range []int{0, 64, (tc.n / 128) * 64} {
				hi := min(tc.n, lo+rng.Intn(tc.n)+1)
				for i, v := range c.Decode(make([]int64, max(hi-lo, 0)), lo) {
					if v != vals[lo+i] {
						t.Fatalf("n=%d, %d bits: Decode[%d] = %d, want %d", tc.n, from, lo+i, v, vals[lo+i])
					}
				}
			}
			for _, to := range []uint{0, 2, 17, 63} {
				got, err := c.Redecompose(to, nil)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Decompose(vals, bat.Width64, to, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got.Dec != want.Dec || (got.Approx == nil) != (want.Approx == nil) ||
					got.Approx != nil && !got.Approx.Equal(want.Approx) || !got.Residual.Equal(want.Residual) ||
					!reflect.DeepEqual(got.splits, want.splits) || !reflect.DeepEqual(got.hist, want.hist) || !reflect.DeepEqual(got.parts, want.parts) {
					t.Fatalf("n=%d: %d bits redecomposed at %d differs from a decomposition of the values", tc.n, from, to)
				}
			}
		}
	}
}

func TestApproxErrorBound(t *testing.T) {
	f := func(raw []int32, bits uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v)
		}
		approxBits := uint(bits%20) + 1
		c, err := Decompose(vals, bat.Width32, approxBits, nil)
		if err != nil {
			return false
		}
		for i, v := range vals {
			lo := c.ReconstructFrom(c.Approx.Get(i), 0) // the code with an all-zero residual
			if v < lo || v > lo+c.Dec.Err() {
				return false // true value escaped the error bound
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecomposeNegativeValues(t *testing.T) {
	vals := []int64{-1262427, 2964975, 0, -5}
	c := mustDecompose(t, vals, 24)
	if c.Dec.Base != -1262427 {
		t.Errorf("Base = %d, want -1262427", c.Dec.Base)
	}
	for i, want := range vals {
		if got := c.Reconstruct(i); got != want {
			t.Errorf("Reconstruct(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestDecomposeFullyGPUResident(t *testing.T) {
	// 6-bit range with 24 requested bits: everything lands on the GPU,
	// like l_quantity in §VI-D1.
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i%50) + 1
	}
	c := mustDecompose(t, vals, 24)
	if c.Dec.ResBits != 0 {
		t.Errorf("ResBits = %d, want 0 (fully GPU resident)", c.Dec.ResBits)
	}
	if c.Dec.Err() != 0 {
		t.Errorf("Err = %d, want 0", c.Dec.Err())
	}
	if c.CPUBytes() != 0 {
		t.Errorf("CPUBytes = %d, want 0", c.CPUBytes())
	}
}

func TestDecomposeConstantColumn(t *testing.T) {
	c := mustDecompose(t, []int64{42, 42, 42}, 8)
	for i := 0; i < 3; i++ {
		if c.Reconstruct(i) != 42 {
			t.Errorf("Reconstruct(%d) = %d, want 42", i, c.Reconstruct(i))
		}
	}
}

func TestDecomposeErrors(t *testing.T) {
	if _, err := Decompose(nil, bat.Width32, 8, nil); err == nil {
		t.Error("empty column did not error")
	}
	if c, err := Decompose(nil, bat.Width32, 0, nil); err != nil || c.Len() != 0 {
		t.Errorf("empty column with no device bits: %v", err)
	}
	if _, err := Decompose([]int64{1}, bat.Width32, 64, nil); err == nil {
		t.Error("approxBits 64 did not error")
	}
	// A persisted decomposition is refused a 0-bit approximation, which no
	// constructor makes and the per-row reads cannot index.
	dec := Decomposition{TotalBits: 4, ResBits: 4, Width: 4}
	if _, err := Restore(dec, bitpack.New(0, 3), bitpack.New(4, 3), nil); err == nil {
		t.Error("Restore of a 0-bit approximation did not error")
	}
}

func TestDecomposeDeviceAccounting(t *testing.T) {
	sys := device.PaperSystem()
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i)
	}
	c, err := Decompose(vals, bat.Width32, 6, sys)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	if sys.GPU.Used() != c.GPUBytes() {
		t.Errorf("GPU used = %d, want %d", sys.GPU.Used(), c.GPUBytes())
	}
	if sys.CPU.Used() != c.CPUBytes() {
		t.Errorf("CPU used = %d, want %d", sys.CPU.Used(), c.CPUBytes())
	}
	c.Release()
	if sys.GPU.Used() != 0 || sys.CPU.Used() != 0 {
		t.Error("Release did not return device memory")
	}
}

func TestDecomposeGPUOutOfMemory(t *testing.T) {
	sys := device.PaperSystem()
	sys.GPU.Capacity = 16 // pathological tiny device
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i)
	}
	_, err := Decompose(vals, bat.Width32, 10, sys)
	if !errors.Is(err, device.ErrOutOfMemory) {
		t.Errorf("err = %v, want ErrOutOfMemory", err)
	}
	if sys.GPU.Used() != 0 {
		t.Error("failed decomposition leaked GPU memory")
	}
}

func TestCompressionRatioSpatialStyle(t *testing.T) {
	// Wide-range 32-bit data: prefix compression saves roughly the leading
	// byte, the ~25 % the paper reports for the spatial set (§VI-C2).
	rng := rand.New(rand.NewSource(7))
	vals := make([]int64, 10000)
	for i := range vals {
		vals[i] = int64(rng.Intn(4227402)) - 1262427 // lon range, 1e-5 fixed point
	}
	c := mustDecompose(t, vals, 24)
	ratio := c.CompressionRatio()
	if ratio < 0.20 || ratio > 0.40 {
		t.Errorf("compression ratio = %.2f, want ~0.25-0.30", ratio)
	}
}

func TestReconstructFrom(t *testing.T) {
	c := mustDecompose(t, []int64{0, 1023}, 5) // 10 bits total, 5/5
	for i, want := range []int64{0, 1023} {
		a := c.Approx.Get(i)
		r := c.Residual.Get(i)
		if got := c.ReconstructFrom(a, r); got != want {
			t.Errorf("ReconstructFrom(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestDecompositionString(t *testing.T) {
	c := mustDecompose(t, []int64{0, 1023}, 5)
	if c.Dec.String() == "" {
		t.Error("empty Decomposition.String()")
	}
}
