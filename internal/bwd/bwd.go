// Package bwd implements Bitwise Decomposition/Distribution (BWD), the
// storage model underlying the Approximate & Refine processing paradigm
// (§II-A of the paper, and Pirk et al., DaMoN 2012).
//
// A column's values are vertically partitioned at the granularity of
// individual bits. The partition holding the major bits — the
// *approximation* — is bit-packed and placed in the fast device memory
// (the simulated GPU); the minor bits — the *residual* — stay in CPU
// memory. Leading zeros are removed by a global prefix compression that
// factors out the common value base (the column minimum), which subsumes
// the paper's "factor out the highest value byte" scheme (§VI-C2).
//
// The approximation of value v with r residual bits is
//
//	approx(v) = (v - base) >> r        (bit-packed, GPU resident)
//	res(v)    = (v - base) & (2^r - 1) (bit-packed, CPU resident)
//	v         = base + (approx(v) << r | res(v))
//
// so an approximation understates the true value by at most 2^r - 1: the
// exact error bound that approximate operators propagate and refinement
// operators discharge.
package bwd

import (
	"fmt"
	"math/bits"

	"repro/internal/bat"
	"repro/internal/bitpack"
	"repro/internal/device"
	"repro/internal/mem"
)

// Decomposition describes how a column's bits are split across devices.
type Decomposition struct {
	Base       int64 // prefix-compression base (column minimum)
	TotalBits  uint  // bits needed to represent (max - Base)
	ApproxBits uint  // major bits, device (GPU) resident
	ResBits    uint  // minor bits, host (CPU) resident
	Width      int   // original physical bytes per value (for data-volume comparisons)
}

// Err returns the maximum amount by which an approximation understates the
// true value: 2^ResBits - 1.
func (d Decomposition) Err() int64 {
	return int64(bitpack.Mask(d.ResBits))
}

// MaxApprox returns the largest possible approximation code.
func (d Decomposition) MaxApprox() uint64 {
	return bitpack.Mask(d.ApproxBits)
}

func (d Decomposition) String() string {
	return fmt.Sprintf("bwd(%d bit GPU, %d bit CPU, base %d)", d.ApproxBits, d.ResBits, d.Base)
}

// Column is a bitwise decomposed column: a GPU-resident approximation and a
// CPU-resident residual, positionally aligned with the source column.
type Column struct {
	Dec      Decomposition
	Approx   *bitpack.Array // approximation codes, shifted domain
	Residual *bitpack.Array // residual bits

	n         int
	hist      []int64 // rows per code bucket; bucket of code c is c >> histShift
	histRows  int64   // sum of hist, kept beside it so reading the histogram is O(1)
	histShift uint
	granules  []Bounds // code bounds of rows [64g, 64g+64)
	splits    []Split  // the same rows as two ranges, cut at the largest code jump
	gpuAlloc  *device.Alloc
	cpuAlloc  *device.Alloc
}

// histMaxBits caps the bucket-occupancy histogram at 2^histMaxBits buckets.
// The approximation codes already partition the value domain into equi-width
// cells, so the histogram is just occupancy counts over (possibly coalesced)
// code ranges — the statistics provider reads it through BucketCounts.
const histMaxBits = 8

// histShiftFor returns how many code bits to drop per histogram bucket so
// the bucket count stays within 2^histMaxBits.
func histShiftFor(approxBits uint) uint {
	if approxBits > histMaxBits {
		return approxBits - histMaxBits
	}
	return 0
}

// newSummaries sizes the derived per-column summaries — the bucket
// histogram and the granule bounds and splits (granule.go) — for summarize
// to fill.
func (c *Column) newSummaries() {
	c.histShift = histShiftFor(c.Dec.ApproxBits)
	c.hist = make([]int64, (c.Dec.MaxApprox()>>c.histShift)+1)
	c.granules = make([]Bounds, (c.n+GranuleRows-1)/GranuleRows)
	c.splits = make([]Split, len(c.granules))
}

// summarize folds the approximation codes of rows [lo, lo+len(codes)) into
// the histogram and the granule bounds and splits; lo must be a multiple of
// GranuleRows. It is the one place they are computed, so Decompose and
// Restore — and a merge, which decomposes — agree by construction. No
// summary is persisted and all are immutable once the constructor returns,
// like the planes they describe.
func (c *Column) summarize(lo int, codes []uint64) {
	for len(codes) > 0 {
		g := codes[:min(GranuleRows, len(codes))]
		c.granules[lo/GranuleRows], c.splits[lo/GranuleRows] = summarizeGranule(g, c.hist, c.histShift)
		c.histRows += int64(len(g))
		lo += len(g)
		codes = codes[len(g):]
	}
}

// summaryBlock is how many rows the constructors split or decode between
// summarize calls: a whole number of granules that stays cache-resident.
const summaryBlock = 64 << 10

// Decompose bitwise-decomposes the tail of b, placing approxBits major bits
// on the system's GPU and the rest on the CPU, mirroring the paper's
// `select bwdecompose(A, approxBits) from R`. If the value range needs
// fewer than approxBits bits, the whole column becomes GPU resident
// (ResBits = 0) — exactly what happens to the narrow TPC-H columns in
// §VI-D1. The GPU allocation fails with device.ErrOutOfMemory if the
// approximation does not fit, surfacing the capacity/resolution trade-off.
func Decompose(b *bat.BAT, approxBits uint, sys *device.System) (*Column, error) {
	if b.Len() == 0 {
		return nil, fmt.Errorf("bwd: cannot decompose empty column")
	}
	if approxBits == 0 || approxBits > 63 {
		return nil, fmt.Errorf("bwd: approxBits %d out of range [1,63]", approxBits)
	}
	lo, hi := b.MinMax()
	span := uint64(hi - lo)
	total := uint(bits.Len64(span))
	dec := Decomposition{Base: lo, TotalBits: total, Width: b.Width()}
	if approxBits >= total {
		dec.ApproxBits = total
		dec.ResBits = 0
	} else {
		dec.ApproxBits = approxBits
		dec.ResBits = total - approxBits
	}
	if dec.ApproxBits == 0 {
		// Constant column: keep one bit so the approximation exists as an
		// addressable array.
		dec.ApproxBits = 1
	}

	n := b.Len()
	c := &Column{Dec: dec, n: n}
	c.newSummaries()
	tails := b.Tails()
	// Split the values into code planes through arena scratch, then let
	// bitpack.Pack build whole words with its shift-carry accumulator — one
	// store per output word instead of a read-modify-write per value. The
	// summaries are folded in block by block while the codes are hot.
	codes := mem.U64.GetN(n)
	rcodes := mem.U64.GetN(n)
	rmask := bitpack.Mask(dec.ResBits)
	for lo := 0; lo < n; lo += summaryBlock {
		hi := min(lo+summaryBlock, n)
		for i, v := range tails[lo:hi] {
			shifted := uint64(v - dec.Base)
			codes[lo+i] = shifted >> dec.ResBits
			rcodes[lo+i] = shifted & rmask
		}
		c.summarize(lo, codes[lo:hi])
	}
	approx := bitpack.Pack(dec.ApproxBits, codes)
	res := bitpack.Pack(dec.ResBits, rcodes)
	mem.U64.Put(codes)
	mem.U64.Put(rcodes)
	c.Approx, c.Residual = approx, res
	if sys != nil {
		ga, err := sys.GPU.Alloc(approx.Bytes())
		if err != nil {
			return nil, fmt.Errorf("bwd: approximation does not fit device: %w", err)
		}
		ca, err := sys.CPU.Alloc(res.Bytes())
		if err != nil {
			ga.Free()
			return nil, fmt.Errorf("bwd: residual does not fit host: %w", err)
		}
		c.gpuAlloc, c.cpuAlloc = ga, ca
	}
	return c, nil
}

// Restore reconstructs a decomposed column from persisted parts — the
// decomposition parameters and the bit-packed approximation and residual
// planes — re-acquiring the device allocations Decompose would have made.
// It is the segment-load path of the durability subsystem: the planes were
// serialized verbatim, so no value is re-decomposed at boot.
func Restore(dec Decomposition, approx, res *bitpack.Array, sys *device.System) (*Column, error) {
	if approx == nil || res == nil {
		return nil, fmt.Errorf("bwd: restore: nil plane")
	}
	if res.Len() != approx.Len() {
		return nil, fmt.Errorf("bwd: restore: approximation has %d values, residual %d", approx.Len(), res.Len())
	}
	if approx.Width() != dec.ApproxBits || res.Width() != dec.ResBits {
		return nil, fmt.Errorf("bwd: restore: plane widths %d/%d do not match decomposition %d/%d",
			approx.Width(), res.Width(), dec.ApproxBits, dec.ResBits)
	}
	c := &Column{Dec: dec, Approx: approx, Residual: res, n: approx.Len()}
	// The summaries are not persisted: recompute them with one word-parallel
	// pass over the restored approximation plane (block decode through
	// morsel scratch) so statistics and granule bounds survive reboot
	// unchanged.
	c.newSummaries()
	s := mem.GetScratch()
	for lo := 0; lo < c.n; lo += summaryBlock {
		hi := min(lo+summaryBlock, c.n)
		s.Reset()
		c.summarize(lo, approx.UnpackRange(s.U64(hi - lo)[:0], lo, hi))
	}
	mem.PutScratch(s)
	if sys != nil {
		ga, err := sys.GPU.Alloc(approx.Bytes())
		if err != nil {
			return nil, fmt.Errorf("bwd: approximation does not fit device: %w", err)
		}
		ca, err := sys.CPU.Alloc(res.Bytes())
		if err != nil {
			ga.Free()
			return nil, fmt.Errorf("bwd: residual does not fit host: %w", err)
		}
		c.gpuAlloc, c.cpuAlloc = ga, ca
	}
	return c, nil
}

// Len returns the number of tuples in the column.
func (c *Column) Len() int { return c.n }

// BucketCounts returns the bucket-occupancy histogram maintained at
// decompose time: entry b counts the rows whose approximation code lies in
// [b << BucketShift, (b+1) << BucketShift). The slice is owned by the
// column and must not be mutated.
func (c *Column) BucketCounts() []int64 { return c.hist }

// BucketRows returns the total of BucketCounts: the rows the histogram
// covers. Like the counts it is derived when the column is built (decompose,
// merge, restore) and never persisted.
func (c *Column) BucketRows() int64 { return c.histRows }

// BucketShift returns how many code bits each histogram bucket coalesces:
// a bucket spans 1 << BucketShift approximation codes.
func (c *Column) BucketShift() uint { return c.histShift }

// Granules returns the per-granule code bounds: entry g is the minimum and
// maximum approximation code of rows [g*GranuleRows, (g+1)*GranuleRows).
// An approximate scan reads them to skip granules a relaxed range cannot
// intersect and to accept granules it covers without decoding a row. The
// slice is owned by the column and must not be mutated.
func (c *Column) Granules() []Bounds { return c.granules }

// Splits returns, beside Granules, every granule as two row ranges with
// their own code bounds — what Decide falls back on when a range cuts
// through a granule's bounds as a whole. Owned by the column like Granules.
func (c *Column) Splits() []Split { return c.splits }

// Release frees the simulated device allocations.
func (c *Column) Release() {
	c.gpuAlloc.Free()
	c.cpuAlloc.Free()
}

// GPUBytes returns the device-resident footprint (the approximation).
func (c *Column) GPUBytes() int64 { return c.Approx.Bytes() }

// CPUBytes returns the host-resident footprint (the residual).
func (c *Column) CPUBytes() int64 { return c.Residual.Bytes() }

// OriginalBytes returns the undecomposed column footprint.
func (c *Column) OriginalBytes() int64 { return int64(c.n) * int64(c.Dec.Width) }

// CompressionRatio returns 1 - (decomposed / original) — the cumulative
// data-volume reduction the paper reports for the spatial data set (~25 %,
// §VI-C2).
func (c *Column) CompressionRatio() float64 {
	return 1 - float64(c.GPUBytes()+c.CPUBytes())/float64(c.OriginalBytes())
}

// Reconstruct returns the exact value at position i by bitwise
// concatenation of approximation and residual (the +bw of Algorithm 2).
func (c *Column) Reconstruct(i int) int64 {
	shifted := c.Approx.Get(i) << c.Dec.ResBits
	if c.Dec.ResBits > 0 {
		shifted |= c.Residual.Get(i)
	}
	return c.Dec.Base + int64(shifted)
}

// ReconstructFrom combines an approximation code and a residual code into
// the exact value.
func (c *Column) ReconstructFrom(approx, residual uint64) int64 {
	return c.Dec.Base + int64(approx<<c.Dec.ResBits|residual)
}

// ValueToApprox maps a value into the approximation (shifted) domain,
// clamping to the representable range. ok is false when the value lies
// outside [Base, Base + 2^TotalBits).
func (c *Column) ValueToApprox(v int64) (code uint64, ok bool) {
	if v < c.Dec.Base {
		return 0, false
	}
	shifted := uint64(v - c.Dec.Base)
	code = shifted >> c.Dec.ResBits
	if code > c.Dec.MaxApprox() {
		return c.Dec.MaxApprox(), false
	}
	return code, true
}

// ChooseBits returns the largest device-resident bit width whose
// bit-packed approximation of b fits within budgetBytes, or 0 if not even
// a 1-bit approximation fits. This implements the automatic-decomposition
// direction the paper sketches as future work (§VII-B, "Storage
// Optimization"): given a device-memory budget, pick the resolution.
func ChooseBits(b *bat.BAT, budgetBytes int64) uint {
	if b.Len() == 0 || budgetBytes <= 0 {
		return 0
	}
	lo, hi := b.MinMax()
	total := uint(bits.Len64(uint64(hi - lo)))
	if total == 0 {
		total = 1
	}
	for w := total; w >= 1; w-- {
		need := (int64(b.Len())*int64(w) + 63) / 64 * 8
		if need <= budgetBytes {
			return w
		}
	}
	return 0
}
