package bwd

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bat"
	"repro/internal/device"
)

func mustDecompose(t *testing.T, vals []int64, approxBits uint) *Column {
	t.Helper()
	c, err := Decompose(bat.NewDense(vals, bat.Width32), approxBits, nil)
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
		c, err := Decompose(bat.NewDense(vals, bat.Width32), approxBits, nil)
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
		c, err := Decompose(bat.NewDense(vals, bat.Width32), approxBits, nil)
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
	if _, err := Decompose(bat.NewDense(nil, bat.Width32), 8, nil); err == nil {
		t.Error("empty column did not error")
	}
	b := bat.NewDense([]int64{1}, bat.Width32)
	if _, err := Decompose(b, 0, nil); err == nil {
		t.Error("approxBits 0 did not error")
	}
	if _, err := Decompose(b, 64, nil); err == nil {
		t.Error("approxBits 64 did not error")
	}
}

func TestDecomposeDeviceAccounting(t *testing.T) {
	sys := device.PaperSystem()
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i)
	}
	c, err := Decompose(bat.NewDense(vals, bat.Width32), 6, sys)
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
	_, err := Decompose(bat.NewDense(vals, bat.Width32), 10, sys)
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

func TestValueToApprox(t *testing.T) {
	vals := []int64{100, 200, 300}
	c := mustDecompose(t, vals, 4) // span 200 -> 8 total bits -> 4/4 split
	if c.Dec.ResBits != 4 {
		t.Fatalf("ResBits = %d, want 4", c.Dec.ResBits)
	}
	if code, ok := c.ValueToApprox(100); !ok || code != 0 {
		t.Errorf("ValueToApprox(100) = %d,%v, want 0,true", code, ok)
	}
	if _, ok := c.ValueToApprox(99); ok {
		t.Error("value below base reported ok")
	}
	if _, ok := c.ValueToApprox(1000); ok {
		t.Error("value above range reported ok")
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

func TestChooseBits(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i) // 10 total bits
	}
	b := bat.NewDense(vals, bat.Width32)
	// Plenty of budget: full resolution.
	if got := ChooseBits(b, 1<<20); got != 10 {
		t.Errorf("ChooseBits(ample) = %d, want 10", got)
	}
	// Half the footprint: fewer bits.
	full := (int64(1000)*10 + 63) / 64 * 8
	got := ChooseBits(b, full/2)
	if got == 0 || got >= 10 {
		t.Errorf("ChooseBits(half) = %d, want within (0,10)", got)
	}
	// The chosen width must actually fit.
	need := (int64(1000)*int64(got) + 63) / 64 * 8
	if need > full/2 {
		t.Errorf("chosen width %d needs %d bytes > budget %d", got, need, full/2)
	}
	// No budget at all.
	if got := ChooseBits(b, 0); got != 0 {
		t.Errorf("ChooseBits(0) = %d, want 0", got)
	}
	if got := ChooseBits(bat.NewDense(nil, bat.Width32), 100); got != 0 {
		t.Errorf("ChooseBits(empty) = %d, want 0", got)
	}
	// Constant column still reports one bit.
	c := bat.NewDense([]int64{5, 5, 5}, bat.Width32)
	if got := ChooseBits(c, 1<<10); got != 1 {
		t.Errorf("ChooseBits(constant) = %d, want 1", got)
	}
}
