package ar

import (
	"repro/internal/bat"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/par"
)

// SelectApproxOver narrows a candidate set with a further relaxed predicate
// on another column (conjunctive selections, e.g. the two BETWEENs of the
// spatial range query) — a column of the scanned table (key nil), or of a
// dimension it joins, read at the position each candidate's key addresses.
// The device gathers col's codes at the candidate positions and keeps the
// matches; on the host that is the scan's mask step over the granules that
// still hold a survivor (bwd.NarrowGranules), its outcome ANDed into the set's
// mask — so in must still carry one, with no position read yet. The set is
// narrowed in place and returned, col attached to it with its key; candidate
// order is the order of the final mask, which is what filtering the list in
// place would have kept.
func SelectApproxOver(m *device.Meter, col *bwd.Column, key *bwd.Key, r bwd.ApproxRange, in *Candidates) *Candidates {
	n := in.Len()
	in.attach = append(in.attach, attachment{col: col, key: key, rng: r, filtered: true})
	in.narrow(in.attach[len(in.attach)-1:], true)
	in.shipped = false // a fresh device-side intermediate
	if m != nil {
		seq := int64(n+in.n)*idBytes(key) + packedBytes(in.n, col.Dec.ApproxBits)
		m.GPUKernel(seq, packedBytes(n, col.Dec.ApproxBits), int64(n)*OpsPackedScan)
	}
	return in
}

// SelectRefine is the refinement of a selection (Algorithm 2): on the CPU,
// each candidate's exact value is reconstructed by bitwise concatenation
// of its shipped approximation code and its host-resident residual, the
// precise predicate lo <= v <= hi is re-evaluated, and false positives are
// eliminated. The translucent join with the residual and the re-evaluation
// are fused into one loop, as the paper prescribes; because the residual
// is a persistent column with dense IDs, that join takes the invisible
// (positional) fast path. A dimension column is refined through the key it
// was approximated through: its residual is the one at the position the
// candidate's key joins.
//
// The result preserves candidate order and compacts every attached code
// column, so further refinements on other columns can run directly on it.
// The exact values of col for the surviving candidates are returned
// alongside.
//
// Morsels reconstruct and re-evaluate independently, each writing
// survivors into its own disjoint region of arena buffers (positions and
// values stay aligned), and the regions left-pack in morsel order — the
// same candidate order for every worker count, with zero allocations in
// steady state. The returned value slice is arena-backed; ownership passes
// to the caller.
func SelectRefine(p par.P, m *device.Meter, col *bwd.Column, key *bwd.Key, lo, hi int64, in *Candidates) (*Candidates, []int64) {
	codes := in.CodesFor(col)
	if codes == nil {
		panic("ar: SelectRefine on a column that was never approximated over these candidates")
	}
	ids := in.IDs()
	n := len(ids)
	keepBuf := mem.Ints.GetN(n)
	valsBuf := mem.I64.GetN(n)
	chunk := p.ChunkSize()
	nchunks := (n + chunk - 1) / chunk
	var counts []int
	var err error
	if p.NWorkers() <= 1 {
		// Single worker: run the morsels on the calling goroutine without
		// materializing a closure — the refinement's steady state allocates
		// nothing.
		counts = mem.Ints.GetN(nchunks)
		for ci := 0; ci < nchunks; ci++ {
			if err = p.Cancelled(); err != nil {
				break
			}
			mlo := ci * chunk
			mhi := mlo + chunk
			if mhi > n {
				mhi = n
			}
			counts[ci] = refineMorsel(col, key, codes, ids, lo, hi, keepBuf, valsBuf, mlo, mhi)
		}
		if err != nil {
			mem.Ints.Put(counts)
			counts = nil
		}
	} else {
		counts, _, err = par.ForCounted(p, n, func(_ *mem.Scratch, _, mlo, mhi int) int {
			return refineMorsel(col, key, codes, ids, lo, hi, keepBuf, valsBuf, mlo, mhi)
		})
	}
	var keep []int
	var vals []int64
	if err != nil {
		// Cancelled mid-pass: the executor discards the result at its next
		// checkpoint, so an empty survivor set stands in for the partial.
		keep, vals = keepBuf[:0], valsBuf[:0]
	} else {
		keep = par.Compact(counts, chunk, keepBuf)
		vals = par.Compact(counts, chunk, valsBuf)
		mem.Ints.Put(counts)
	}
	out := in.filterTo(keep)
	mem.Ints.Put(keepBuf)
	if m != nil && col.Dec.ResBits > 0 {
		// §IV-C: fully device-resident data needs no refinement — exact
		// codes admit no false positives, so that case charges nothing
		// (the candidate list already is the result). Otherwise the fused
		// loop streams IDs and codes and touches the residual at candidate
		// order: cache-line-bounded when sparse, array-bounded when dense.
		// A survivor is written as its id — through a key, as id, position
		// and value.
		resFetch := device.RandomFetchBytes(int64(n), residualBytes(col.Dec.ResBits), col.Residual.Bytes())
		written := int64(len(keep)) * 4
		if key != nil {
			written *= 3
		}
		seq := int64(n)*idBytes(key) + packedBytes(n, col.Dec.ApproxBits) + resFetch + written
		m.CPUWork(p.NThreads(), seq, 0, int64(n)*2)
	}
	return out, vals
}

// refineMorsel reconstructs and re-evaluates one morsel of candidates,
// writing survivor indices and exact values into the morsel's disjoint
// region [mlo, mlo+count) of the overallocated buffers. A named function
// (not a closure) so the single-worker path allocates nothing.
func refineMorsel(col *bwd.Column, key *bwd.Key, codes []uint64, ids []bat.OID, lo, hi int64, keepBuf []int, valsBuf []int64, mlo, mhi int) int {
	res := col.Residual
	resBits := col.Dec.ResBits
	cnt := 0
	for i := mlo; i < mhi; i++ {
		var r uint64
		if resBits > 0 {
			at := int(ids[i])
			if key != nil {
				at, _ = key.At(at)
			}
			r = res.Get(at)
		}
		v := col.ReconstructFrom(codes[i], r)
		if v >= lo && v <= hi {
			keepBuf[mlo+cnt] = i
			valsBuf[mlo+cnt] = v
			cnt++
		}
	}
	return cnt
}
