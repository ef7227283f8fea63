// Package device simulates the heterogeneous memory/compute devices of the
// paper's testbed: a discrete GPU with small, fast memory; a large, slower
// CPU memory; and the PCI-E bus between them.
//
// This package is the substitution for real CUDA/OpenCL hardware (see
// DESIGN.md §1). Operators execute for real in Go — producing exact,
// testable results — while the simulator charges analytical time for every
// byte scanned, gathered, or shipped and every tuple-op executed. The
// paper's findings are bandwidth-shape arguments (GPU internal bandwidth ≫
// CPU bandwidth ≫ PCI-E bandwidth), so a calibrated bandwidth/latency model
// reproduces its crossovers and speed-up factors deterministically.
//
// Two classes of constants appear below: hardware data-sheet numbers
// (GeForce GTX 680, dual Xeon E5-2650, measured 3.95 GB/s DMA transfers —
// all quoted from the paper) and effective-rate calibrations that account
// for the paper's explicitly untuned, JIT-generated kernels ("we did not
// perform any hardware-specific tuning", §V-C). Effective rates are what
// the cost model uses; data-sheet numbers are documented for reference.
package device

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Kind distinguishes device types.
type Kind int

// Device kinds.
const (
	GPUKind Kind = iota
	CPUKind
)

func (k Kind) String() string {
	switch k {
	case GPUKind:
		return "GPU"
	case CPUKind:
		return "CPU"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ErrOutOfMemory is returned when an allocation exceeds device capacity.
// The paper's central premise is that hot data generally does NOT fit the
// GPU (§I); the allocator makes that constraint explicit instead of
// silently spilling.
var ErrOutOfMemory = errors.New("device: out of memory")

// Device models one processing device with its attached memory.
type Device struct {
	Name     string
	Kind     Kind
	Capacity int64 // bytes of attached memory

	// ScanBW is the effective sequential scan bandwidth in bytes/second
	// for a single kernel/operator stream.
	ScanBW float64
	// RandomPenalty multiplies the cost of random (gather/scatter)
	// access relative to sequential scans.
	RandomPenalty float64
	// OpRate is the effective simple tuple-operation rate per second for
	// one stream (one thread on the CPU; the whole device on the GPU).
	OpRate float64
	// Launch is the fixed dispatch latency per kernel/operator.
	Launch time.Duration

	// PerThreadBW and AggregateBW describe the memory-wall saturation law
	// for multi-threaded devices: t threads see an effective bandwidth of
	// min(t·PerThreadBW, AggregateBW) (§VI-E, Fig 11). For the GPU both
	// equal ScanBW.
	PerThreadBW float64
	AggregateBW float64
	// Threads is the number of hardware threads (CPU) or lanes (GPU).
	Threads int

	mu   sync.Mutex
	used int64
}

// Alloc reserves n bytes of device memory, failing with ErrOutOfMemory if
// the device cannot hold them. Free the returned allocation when done.
func (d *Device) Alloc(n int64) (*Alloc, error) {
	if n < 0 {
		return nil, fmt.Errorf("device %s: negative allocation %d", d.Name, n)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.used+n > d.Capacity {
		return nil, fmt.Errorf("%w: %s holds %d of %d bytes, cannot add %d",
			ErrOutOfMemory, d.Name, d.used, d.Capacity, n)
	}
	d.used += n
	return &Alloc{dev: d, bytes: n}, nil
}

// Used returns the currently allocated bytes.
func (d *Device) Used() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// Available returns the unallocated capacity in bytes.
func (d *Device) Available() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.Capacity - d.used
}

// EffectiveBW returns the effective bandwidth seen by t concurrent streams
// in total: min(t·PerThreadBW, AggregateBW).
func (d *Device) EffectiveBW(t int) float64 {
	if t < 1 {
		t = 1
	}
	bw := float64(t) * d.PerThreadBW
	if bw > d.AggregateBW {
		bw = d.AggregateBW
	}
	return bw
}

// Alloc is a reservation of device memory.
type Alloc struct {
	dev   *Device
	bytes int64
	freed bool
	mu    sync.Mutex
}

// Free releases the allocation. Freeing twice is a no-op.
func (a *Alloc) Free() {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.freed {
		return
	}
	a.freed = true
	a.dev.mu.Lock()
	a.dev.used -= a.bytes
	a.dev.mu.Unlock()
}

// Bus models the PCI-E interconnect between CPU and GPU memory.
type Bus struct {
	// BW is the achievable DMA bandwidth in bytes/second. The paper
	// measured 3.95 GB/s with AMD's TransferOverlap tool (§VI-A).
	BW float64
	// Latency is the fixed per-transfer setup cost.
	Latency time.Duration
}

// TransferTime returns the simulated time to move n bytes across the bus.
func (b *Bus) TransferTime(n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	return b.Latency + seconds(float64(n)/b.BW)
}

// System bundles the simulated devices of one machine.
type System struct {
	GPU *Device
	CPU *Device
	Bus *Bus
}

// Data-sheet constants from the paper's testbed (§VI-A), documented for
// reference; the cost model uses the effective rates in PaperSystem.
const (
	// GTX680MemoryBW is the GTX 680 data-sheet memory bandwidth.
	GTX680MemoryBW = 192.3e9
	// GTX680Capacity is the GTX 680 device memory (2 GB).
	GTX680Capacity = 2 << 30
	// XeonE5AggregateBW is the theoretical dual-socket DDR3-1600
	// 4-channel bandwidth (2 × 51.2 GB/s).
	XeonE5AggregateBW = 102.4e9
	// MeasuredPCIeBW is the paper's measured DMA bandwidth (§VI-A).
	MeasuredPCIeBW = 3.95e9
)

// PaperSystem returns a fresh simulated instance of the paper's testbed:
// two eight-core Xeon E5-2650 (32 hardware threads, 256 GB RAM) and one
// GeForce GTX 680 (2 GB) behind a 3.95 GB/s PCI-E bus.
//
// Effective-rate calibration (see package comment): the GPU's JIT-generated
// unoptimized kernels reach roughly 30 GB/s of its 192.3 GB/s data-sheet
// bandwidth; one MonetDB bulk-operator stream streams at roughly 2 GB/s and
// the workload-effective memory wall sits near 16 GB/s (Fig 11 saturates at
// ~7× single-thread throughput).
func PaperSystem() *System {
	return &System{
		GPU: &Device{
			Name:          "GeForce GTX 680 (simulated)",
			Kind:          GPUKind,
			Capacity:      GTX680Capacity,
			ScanBW:        30e9,
			RandomPenalty: 3,
			OpRate:        20e9,
			Launch:        30 * time.Microsecond,
			PerThreadBW:   30e9,
			AggregateBW:   30e9,
			Threads:       1536,
		},
		CPU: &Device{
			Name:          "2x Xeon E5-2650 (simulated)",
			Kind:          CPUKind,
			Capacity:      256 << 30,
			ScanBW:        2.0e9,
			RandomPenalty: 4,
			OpRate:        800e6,
			Launch:        2 * time.Microsecond,
			PerThreadBW:   2.0e9,
			AggregateBW:   16e9,
			Threads:       32,
		},
		Bus: &Bus{BW: MeasuredPCIeBW, Latency: 15 * time.Microsecond},
	}
}

func seconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// LineBytes is the memory transfer granularity of a random access: even a
// one-byte gather fetches a full cache line.
const LineBytes = 64

// RandomFetchBytes models the memory traffic of n random accesses of
// `unit` bytes each into an array of arrayBytes total: sparse access pays
// one cache line per touch, but never more than streaming the whole array
// once (plus the touched units) — dense "random" access degenerates into a
// scan.
func RandomFetchBytes(n, unit, arrayBytes int64) int64 {
	sparse := n * LineBytes
	dense := arrayBytes + n*unit
	if sparse < dense {
		return sparse
	}
	return dense
}

// ScaledSystem returns the paper testbed with every rate (bandwidths,
// op rates) divided by scale while fixed costs (launch latencies, transfer
// setup) stay untouched. Running a workload of size N/scale on the scaled
// system charges exactly the variable cost of the full workload on the
// real system plus the true (unscaled) fixed costs — the correct way to
// extrapolate a reduced-scale experiment (used by package experiments).
func ScaledSystem(scale float64) *System {
	if scale < 1 {
		scale = 1
	}
	s := PaperSystem()
	for _, d := range []*Device{s.GPU, s.CPU} {
		d.ScanBW /= scale
		d.OpRate /= scale
		d.PerThreadBW /= scale
		d.AggregateBW /= scale
	}
	s.Bus.BW /= scale
	return s
}
