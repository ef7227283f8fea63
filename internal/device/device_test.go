package device

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestAllocAccounting(t *testing.T) {
	d := &Device{Name: "test", Capacity: 100}
	a, err := d.Alloc(60)
	if err != nil {
		t.Fatalf("Alloc(60): %v", err)
	}
	if d.Used() != 60 {
		t.Errorf("Used = %d, want 60", d.Used())
	}
	b, err := d.Alloc(40)
	if err != nil {
		t.Fatalf("Alloc(40): %v", err)
	}
	a.Free()
	b.Free()
	if d.Used() != 0 {
		t.Errorf("Used after frees = %d, want 0", d.Used())
	}
}

func TestAllocOOM(t *testing.T) {
	d := &Device{Name: "small", Capacity: 100}
	if _, err := d.Alloc(101); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("Alloc(101) err = %v, want ErrOutOfMemory", err)
	}
	a, _ := d.Alloc(80)
	if _, err := d.Alloc(30); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("Alloc beyond remaining capacity err = %v, want ErrOutOfMemory", err)
	}
	a.Free()
	if _, err := d.Alloc(100); err != nil {
		t.Errorf("Alloc after free: %v", err)
	}
}

func TestAllocNegative(t *testing.T) {
	d := &Device{Name: "d", Capacity: 10}
	if _, err := d.Alloc(-1); err == nil {
		t.Error("negative alloc succeeded")
	}
}

func TestDoubleFreeIsNoop(t *testing.T) {
	d := &Device{Name: "d", Capacity: 10}
	a, _ := d.Alloc(5)
	a.Free()
	a.Free()
	if d.Used() != 0 {
		t.Errorf("Used after double free = %d, want 0", d.Used())
	}
	var nilAlloc *Alloc
	nilAlloc.Free() // must not panic
}

func TestAllocConcurrent(t *testing.T) {
	d := &Device{Name: "d", Capacity: 1000}
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if a, err := d.Alloc(10); err == nil {
				a.Free()
			}
		}()
	}
	wg.Wait()
	if d.Used() != 0 {
		t.Errorf("Used after concurrent alloc/free = %d, want 0", d.Used())
	}
}

func TestEffectiveBWSaturation(t *testing.T) {
	d := &Device{PerThreadBW: 2e9, AggregateBW: 16e9}
	if got := d.EffectiveBW(1); got != 2e9 {
		t.Errorf("EffectiveBW(1) = %g, want 2e9", got)
	}
	if got := d.EffectiveBW(4); got != 8e9 {
		t.Errorf("EffectiveBW(4) = %g, want 8e9", got)
	}
	// Memory wall: 16 threads and 32 threads see the same aggregate.
	if d.EffectiveBW(16) != d.EffectiveBW(32) {
		t.Errorf("memory wall not flat: %g vs %g", d.EffectiveBW(16), d.EffectiveBW(32))
	}
	if got := d.EffectiveBW(0); got != 2e9 {
		t.Errorf("EffectiveBW(0) = %g, want per-thread floor", got)
	}
}

func TestBusTransferTime(t *testing.T) {
	b := &Bus{BW: 4e9, Latency: 10 * time.Microsecond}
	if got := b.TransferTime(0); got != 0 {
		t.Errorf("TransferTime(0) = %v, want 0", got)
	}
	got := b.TransferTime(4e9)
	want := time.Second + 10*time.Microsecond
	if got != want {
		t.Errorf("TransferTime(4e9) = %v, want %v", got, want)
	}
}

func TestPaperSystemShape(t *testing.T) {
	sys := PaperSystem()
	if sys.GPU.Capacity != 2<<30 {
		t.Errorf("GPU capacity = %d, want 2 GiB", sys.GPU.Capacity)
	}
	if sys.GPU.ScanBW <= sys.CPU.ScanBW {
		t.Error("GPU must out-bandwidth a CPU stream")
	}
	if sys.Bus.BW >= sys.CPU.AggregateBW {
		t.Error("PCI-E must be the bottleneck")
	}
	if sys.CPU.Threads != 32 {
		t.Errorf("CPU threads = %d, want 32", sys.CPU.Threads)
	}
}

func TestMeterCharging(t *testing.T) {
	sys := PaperSystem()
	m := NewMeter(sys)
	m.GPUKernel(30e9, 0, 0) // exactly one second of GPU scan + launch
	wantGPU := time.Second + sys.GPU.Launch
	if m.GPU != wantGPU {
		t.Errorf("GPU = %v, want %v", m.GPU, wantGPU)
	}
	m.Transfer(int64(sys.Bus.BW))
	wantPCI := time.Second + sys.Bus.Latency
	if m.PCI != wantPCI {
		t.Errorf("PCI = %v, want %v", m.PCI, wantPCI)
	}
	m.CPUWork(1, int64(sys.CPU.PerThreadBW), 0, 0)
	wantCPU := time.Second + sys.CPU.Launch
	if m.CPU != wantCPU {
		t.Errorf("CPU = %v, want %v", m.CPU, wantCPU)
	}
	if m.Total() != m.GPU+m.CPU+m.PCI {
		t.Error("Total != sum of buckets")
	}
}

func TestMeterComputeBound(t *testing.T) {
	sys := PaperSystem()
	m := NewMeter(sys)
	// A kernel with huge op count and no bytes must be compute-bound.
	ops := int64(sys.GPU.OpRate) // one second of ops
	m.GPUKernel(0, 0, ops)
	want := time.Second + sys.GPU.Launch
	if m.GPU != want {
		t.Errorf("compute-bound GPU = %v, want %v", m.GPU, want)
	}
}

func TestMeterRandomPenalty(t *testing.T) {
	sys := PaperSystem()
	seq := NewMeter(sys)
	rnd := NewMeter(sys)
	seq.CPUWork(1, 1e9, 0, 0)
	rnd.CPUWork(1, 0, 1e9, 0)
	if rnd.CPU <= seq.CPU {
		t.Errorf("random access (%v) must cost more than sequential (%v)", rnd.CPU, seq.CPU)
	}
}

func TestMeterCPUThreadScaling(t *testing.T) {
	sys := PaperSystem()
	one := NewMeter(sys)
	four := NewMeter(sys)
	one.CPUWork(1, 8e9, 0, 0)
	four.CPUWork(4, 8e9, 0, 0)
	if four.CPU >= one.CPU {
		t.Errorf("4 threads (%v) must be faster than 1 (%v)", four.CPU, one.CPU)
	}
	wall16 := NewMeter(sys)
	wall32 := NewMeter(sys)
	wall16.CPUWork(16, 64e9, 0, 0)
	wall32.CPUWork(32, 64e9, 0, 0)
	if wall32.CPU != wall16.CPU {
		t.Errorf("memory wall: 32 threads (%v) should equal 16 (%v) once saturated", wall32.CPU, wall16.CPU)
	}
}

func TestMeterAdd(t *testing.T) {
	sys := PaperSystem()
	a := NewMeter(sys)
	b := NewMeter(sys)
	a.GPUKernel(30e9, 0, 0)
	b.Transfer(int64(sys.Bus.BW))
	a.Add(b)
	if a.PCI == 0 {
		t.Error("Add did not merge PCI charge")
	}
}

func TestStreamHypothetical(t *testing.T) {
	sys := PaperSystem()
	m := NewMeter(sys)
	// 400 MB of microbenchmark input: the paper's flat ~101 ms line.
	got := m.StreamHypothetical(400e6)
	lo, hi := 95*time.Millisecond, 110*time.Millisecond
	if got < lo || got > hi {
		t.Errorf("StreamHypothetical(400MB) = %v, want ~101ms", got)
	}
}

func TestKindString(t *testing.T) {
	if GPUKind.String() != "GPU" || CPUKind.String() != "CPU" {
		t.Error("Kind.String mismatch")
	}
	if Kind(9).String() == "" {
		t.Error("unknown Kind should still format")
	}
}

func TestRandomFetchBytes(t *testing.T) {
	// Sparse: pays one cache line per touch.
	if got := RandomFetchBytes(100, 4, 1<<30); got != 100*LineBytes {
		t.Errorf("sparse fetch = %d, want %d", got, 100*LineBytes)
	}
	// Dense: degrades to a scan of the array plus the touched units.
	if got := RandomFetchBytes(1<<20, 4, 1<<10); got != 1<<10+4<<20 {
		t.Errorf("dense fetch = %d, want %d", got, 1<<10+4<<20)
	}
	if got := RandomFetchBytes(0, 4, 1<<10); got != 0 {
		t.Errorf("zero accesses = %d, want 0", got)
	}
}

func TestScaledSystem(t *testing.T) {
	base := PaperSystem()
	s := ScaledSystem(10)
	if s.GPU.ScanBW != base.GPU.ScanBW/10 {
		t.Errorf("GPU bandwidth not scaled: %g", s.GPU.ScanBW)
	}
	if s.CPU.AggregateBW != base.CPU.AggregateBW/10 {
		t.Errorf("CPU aggregate not scaled: %g", s.CPU.AggregateBW)
	}
	if s.Bus.BW != base.Bus.BW/10 {
		t.Errorf("bus not scaled: %g", s.Bus.BW)
	}
	// Fixed costs must stay fixed: that is the point of rate scaling.
	if s.GPU.Launch != base.GPU.Launch || s.Bus.Latency != base.Bus.Latency {
		t.Error("fixed costs were scaled")
	}
	if s.GPU.Capacity != base.GPU.Capacity {
		t.Error("capacity should not scale")
	}
	// A workload of size N/10 on the scaled system costs what N costs on
	// the real system (variable part).
	mScaled := NewMeter(s)
	mScaled.GPUKernel(3e9, 0, 0)
	mFull := NewMeter(base)
	mFull.GPUKernel(30e9, 0, 0)
	if mScaled.GPU != mFull.GPU {
		t.Errorf("scaled charge %v != full-scale charge %v", mScaled.GPU, mFull.GPU)
	}
	// Degenerate scales clamp to identity.
	s1 := ScaledSystem(0.5)
	if s1.GPU.ScanBW != base.GPU.ScanBW {
		t.Error("scale < 1 should clamp to 1")
	}
}
