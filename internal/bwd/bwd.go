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
//
// A column that was never decomposed is a decomposition with no device bits
// (ApproxBits 0): the MonetDB baseline's column, every bit of each value
// less the base in the host-resident residual. It has no approximation
// plane, no summaries and no device allocation, and the planner reads it as
// not decomposed; its exact values are read from the residual, as every
// decomposed column's are from code and residual.
package bwd

import (
	"fmt"
	"math/bits"
	"unsafe"

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
// CPU-resident residual, positionally aligned with the source column. With
// no device bits Approx is nil.
type Column struct {
	Dec      Decomposition
	Approx   *bitpack.Array // approximation codes, shifted domain; nil with no device bits
	Residual *bitpack.Array // residual bits

	n         int
	hist      []int64 // rows per code bucket; bucket of code c is c >> histShift
	histRows  int64   // sum of hist, kept beside it so reading the histogram is O(1)
	histShift uint
	splits    []Split    // rows [64g, 64g+64) as two ranges cut at the largest code jump, with their bounds
	parts     *partIndex // the granules' parts by low code; nil where too many are wide
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

// summarize derives the per-column summaries — the bucket histogram, the
// granule records and the part index (granule.go) — from the
// approximation codes, read a block of rows at a time: block(lo, hi) returns
// the codes of rows [lo, hi), a whole number of granules but for the last
// block. It is the one place they are computed, so Decompose and Restore —
// and a merge, which decomposes — agree by construction. No summary is
// persisted and all are immutable once the constructor returns, like the
// planes they describe.
func (c *Column) summarize(block func(lo, hi int) []uint64) {
	c.histShift = histShiftFor(c.Dec.ApproxBits)
	c.hist = make([]int64, (c.Dec.MaxApprox()>>c.histShift)+1)
	c.splits = make([]Split, (c.n+GranuleRows-1)/GranuleRows)
	for lo := 0; lo < c.n; lo += BlockRows {
		codes := block(lo, min(lo+BlockRows, c.n))
		for i := 0; i < len(codes); i += GranuleRows {
			c.splits[(lo+i)/GranuleRows] = summarizeGranule(codes[i:min(i+GranuleRows, len(codes))], c.hist, c.histShift)
		}
		c.histRows += int64(len(codes))
	}
	c.parts = c.indexParts()
}

// BlockRows is how many rows the constructors split or decode between
// summarize calls, and how many a reader that decodes a whole column takes at
// a time: a whole number of granules that stays cache-resident, so a block's
// codes fill whole words of a plane at every width.
const BlockRows = 64 << 10

// Decompose bitwise-decomposes the values vals of a column of width bytes
// per value, placing approxBits major bits on the system's GPU and the rest
// on the CPU, mirroring the paper's `select bwdecompose(A, approxBits) from
// R`. If the value range needs fewer than approxBits bits, the whole column
// becomes GPU resident (ResBits = 0) — exactly what happens to the narrow
// TPC-H columns in §VI-D1. The GPU allocation fails with
// device.ErrOutOfMemory if the approximation does not fit, surfacing the
// capacity/resolution trade-off. With approxBits 0 the column is stored as
// the MonetDB baseline's, with no device bits (see the package comment); it
// may be empty. The planes are built a block of BlockRows rows at a time, so
// the only scratch beside them is two block-sized code buffers.
func Decompose(vals []int64, width int, approxBits uint, sys *device.System) (*Column, error) {
	lo, hi := int64(0), int64(0)
	if len(vals) > 0 {
		lo, hi = vals[0], vals[0]
	}
	for _, v := range vals {
		lo, hi = min(lo, v), max(hi, v)
	}
	dec := Decomposition{Base: lo, TotalBits: uint(bits.Len64(uint64(hi - lo))), Width: width}
	return decompose(len(vals), dec, func(lo, hi int) []int64 { return vals[lo:hi] }, approxBits, sys)
}

// Redecompose is Decompose of the values c holds, at approxBits: they are
// read from c's code and residual a block at a time (Decode), so a column
// that keeps no full-width copy can change its resolution. Their range is
// c's own — Base is their least value and TotalBits the width of their span
// — so they are read once.
func (c *Column) Redecompose(approxBits uint, sys *device.System) (*Column, error) {
	room := make([]int64, min(c.n, BlockRows))
	dec := Decomposition{Base: c.Dec.Base, TotalBits: c.Dec.TotalBits, Width: c.Dec.Width}
	return decompose(c.n, dec, func(lo, hi int) []int64 { return c.Decode(room[:hi-lo], lo) }, approxBits, sys)
}

// decompose is Decompose over n values, whose least value and span width
// dec holds, that block(lo, hi) returns a block at a time, lo a multiple of
// BlockRows. It splits each block into two block-sized code buffers that it
// packs straight into its place in the planes (bitpack.PackAt) and
// summarizes while they are hot: nothing n rows long is held beside the
// planes, and no buffer of the column's size enters the arena. A column with
// no device bits is packed through one buffer alone: no summary, no
// allocation.
func decompose(n int, dec Decomposition, block func(lo, hi int) []int64, approxBits uint, sys *device.System) (*Column, error) {
	if approxBits > 63 {
		return nil, fmt.Errorf("bwd: approxBits %d out of range [0,63]", approxBits)
	}
	if n == 0 && approxBits > 0 {
		return nil, fmt.Errorf("bwd: cannot decompose empty column")
	}
	total := dec.TotalBits
	switch {
	case approxBits == 0:
		dec.ResBits = max(total, 1) // a constant column keeps one bit, as below
		return decomposeHost(dec, n, block), nil
	case approxBits >= total:
		dec.ApproxBits = total
		dec.ResBits = 0
	default:
		dec.ApproxBits = approxBits
		dec.ResBits = total - approxBits
	}
	if dec.ApproxBits == 0 {
		// Constant column: keep one bit so the approximation exists as an
		// addressable array.
		dec.ApproxBits = 1
	}

	c := &Column{Dec: dec, n: n, Approx: bitpack.New(dec.ApproxBits, n), Residual: bitpack.New(dec.ResBits, n)}
	scratch := mem.U64.GetN(2 * min(n, BlockRows))
	codes, rcodes := scratch[:len(scratch)/2], scratch[len(scratch)/2:]
	rmask := bitpack.Mask(dec.ResBits)
	c.summarize(func(lo, hi int) []uint64 {
		for i, v := range block(lo, hi) {
			shifted := uint64(v - dec.Base)
			codes[i] = shifted >> dec.ResBits
			rcodes[i] = shifted & rmask
		}
		c.Approx.PackAt(lo, codes[:hi-lo])
		c.Residual.PackAt(lo, rcodes[:hi-lo])
		return codes[:hi-lo]
	})
	mem.U64.Put(scratch)
	if err := c.allocate(sys); err != nil {
		return nil, err
	}
	return c, nil
}

// decomposeHost packs the n values block(lo, hi) returns, less dec.Base, into
// the residual plane of a column with no device bits.
func decomposeHost(dec Decomposition, n int, block func(lo, hi int) []int64) *Column {
	c := &Column{Dec: dec, n: n, Residual: bitpack.New(dec.ResBits, n)}
	if n == 0 {
		return c
	}
	codes := mem.U64.GetN(min(n, BlockRows))
	for lo := 0; lo < n; lo += BlockRows {
		hi := min(lo+BlockRows, n)
		for i, v := range block(lo, hi) {
			codes[i] = uint64(v - dec.Base)
		}
		c.Residual.PackAt(lo, codes[:hi-lo])
	}
	mem.U64.Put(codes)
	return c
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
	if dec.ApproxBits == 0 { // the constructors keep one bit, and the per-row readers (bitpack.At) rely on it
		return nil, fmt.Errorf("bwd: restore: approximation of 0 bits")
	}
	if approx.Width() != dec.ApproxBits || res.Width() != dec.ResBits {
		return nil, fmt.Errorf("bwd: restore: plane widths %d/%d do not match decomposition %d/%d",
			approx.Width(), res.Width(), dec.ApproxBits, dec.ResBits)
	}
	c := &Column{Dec: dec, Approx: approx, Residual: res, n: approx.Len()}
	// The summaries are not persisted: recompute them with one word-parallel
	// pass over the restored approximation plane (block decode through
	// morsel scratch) so statistics, granule bounds and the part index
	// survive reboot unchanged.
	s := mem.GetScratch()
	c.summarize(func(lo, hi int) []uint64 {
		s.Reset()
		return approx.UnpackRange(s.U64(hi - lo)[:0], lo, hi)
	})
	mem.PutScratch(s)
	if err := c.allocate(sys); err != nil {
		return nil, err
	}
	return c, nil
}

// allocate acquires the column's simulated device allocations on sys (none
// without one): the approximation on the GPU, the residual on the CPU.
func (c *Column) allocate(sys *device.System) error {
	if sys == nil {
		return nil
	}
	ga, err := sys.GPU.Alloc(c.Approx.Bytes())
	if err != nil {
		return fmt.Errorf("bwd: approximation does not fit device: %w", err)
	}
	ca, err := sys.CPU.Alloc(c.Residual.Bytes())
	if err != nil {
		ga.Free()
		return fmt.Errorf("bwd: residual does not fit host: %w", err)
	}
	c.gpuAlloc, c.cpuAlloc = ga, ca
	return nil
}

// Whole returns the plane that holds each row's value less Dec.Base whole:
// the approximation of a fully resident column, the residual of one with no
// device bits, nil when the two planes split a value.
func (c *Column) Whole() *bitpack.Array {
	switch {
	case c.Dec.ResBits == 0:
		return c.Approx
	case c.Approx == nil:
		return c.Residual
	}
	return nil
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

// Splits returns the granule records: entry g is rows [g*GranuleRows,
// (g+1)*GranuleRows) cut in two at their largest code jump, with the smallest
// and largest approximation code of each part — of the whole granule in both
// when it is not split. An approximate scan decides from them which granules
// a relaxed range cannot intersect, which it covers without decoding a row,
// and which part it cuts through. The slice is owned by the column and must
// not be mutated.
func (c *Column) Splits() []Split { return c.splits }

// Release frees the simulated device allocations.
func (c *Column) Release() {
	c.gpuAlloc.Free()
	c.cpuAlloc.Free()
}

// GPUBytes returns the device-resident footprint (the approximation): 0
// with no device bits.
func (c *Column) GPUBytes() int64 {
	if c.Approx == nil {
		return 0
	}
	return c.Approx.Bytes()
}

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
	if p := c.Whole(); p != nil {
		return c.Dec.Base + int64(p.Get(i))
	}
	return c.ReconstructFrom(c.Approx.Get(i), c.Residual.Get(i))
}

// Decode writes the exact values of rows [lo, lo+len(out)) into out and
// returns it; lo is a multiple of GranuleRows. Each granule's codes are
// unpacked straight into out (bitpack.Unpack64) — the one plane of a column
// whose values it holds whole, resident or with no device bits, with the
// base added, so they land as values — and a residual's granule beside them
// is folded in as ReconstructFrom does. It is how a stored column, which
// keeps no full-width copy, is read whole: by the fold's dense blocks, a
// merge, an FK index build, a segment write and a re-decomposition.
func (c *Column) Decode(out []int64, lo int) []int64 {
	end := len(out) &^ (GranuleRows - 1)
	if p := c.Whole(); p != nil {
		for at := 0; at < end; at += GranuleRows {
			p.Unpack64(granule(out, at), lo+at, uint64(c.Dec.Base))
		}
	} else {
		var res [GranuleRows]uint64
		for at := 0; at < end; at += GranuleRows {
			c.decodeGranule(granule(out, at), &res, lo+at)
		}
	}
	if end < len(out) { // a last granule out has no room for
		var short, res [GranuleRows]uint64
		c.decodeGranule(&short, &res, lo+end)
		for i := range out[end:] {
			out[end+i] = int64(short[i])
		}
	}
	return out
}

// decodeGranule writes the exact values of the granule at lo into vals, as
// the codes bitpack.Unpack64 writes: a value is its code plus the base,
// modulo 2^64 — the code shifted over the residual read into res when the
// two planes split it.
func (c *Column) decodeGranule(vals, res *[GranuleRows]uint64, lo int) {
	dec := c.Dec
	if p := c.Whole(); p != nil {
		p.Unpack64(vals, lo, uint64(dec.Base))
		return
	}
	c.Approx.Unpack64(vals, lo, 0)
	c.Residual.Unpack64(res, lo, 0)
	for i, code := range vals {
		vals[i] = uint64(dec.Base) + (code<<dec.ResBits | res[i])
	}
}

// granule is the GranuleRows values of out from at on, as decodeGranule and
// bitpack.Unpack64 write them.
func granule(out []int64, at int) *[GranuleRows]uint64 {
	return (*[GranuleRows]uint64)(unsafe.Pointer(&out[at]))
}

// ReconstructFrom combines an approximation code and a residual code into
// the exact value.
func (c *Column) ReconstructFrom(approx, residual uint64) int64 {
	return c.Dec.Base + int64(approx<<c.Dec.ResBits|residual)
}
