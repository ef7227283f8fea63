package plan

import (
	"context"
	"math/bits"
	"slices"

	"repro/internal/bat"
	"repro/internal/bulk"
	"repro/internal/bwd"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/par"
)

// ExecClassic plans, pins and runs the query once with the classic
// bulk-processing model on the CPU only (ModeClassic) — the paper's "MonetDB"
// baseline: billed as the fully-materializing tight loops of package bulk
// (its fetches and grouping are those loops; its selections and joins narrow
// a mask, selectClassic and scanClassic); no device or bus time is ever
// charged.
func (c *Catalog) ExecClassic(ctx context.Context, q Query, opts ExecOpts) (*Result, error) {
	return c.execOnce(ctx, q, opts, ModeClassic)
}

// scanClassic is the classic scan strategy: MonetDB-style uselects over the
// row-major base segment (selectClassic), the FK-probe join chain narrowing
// the same mask, and full materialization of every referenced column
// — producing the same exact-value tuple stream as the A&R scan for the
// shared pipeline tail. The delta segment is scanned by the shared delta
// source and returned unmerged.
func (pl pipeline) scanClassic(st *pipeState) (*scanOut, error) {
	q := &pl.q
	snap := pl.snap
	pp := st.pp
	m := st.m
	fact := snap.fact

	sel, err := pl.selectClassic(st)
	if err != nil {
		return nil, err
	}
	defer sel.release()
	// Foreign-key join chain: the probe — the dimension's deletion bitmap with
	// it — and every dimension filter narrow the mask through the join's key
	// like the selections before them, billed as the bulk operators they
	// stand for: the key column fetched at the surviving positions and probed
	// in the pre-built index, a dimension column fetched at the joined
	// positions and filtered.
	keys := make([]bwd.Key, len(pl.joins))
	for ji, js := range pl.joins {
		spec := js.spec
		if err := st.step(StageBulk); err != nil {
			return nil, err
		}
		fkBAT, err := fact.Column(spec.FKCol)
		if err != nil {
			return nil, err
		}
		ds := snap.snapFor(spec.Dim)
		keys[ji] = snap.joinKey(spec, nil, fkBAT.Tails())
		key := &keys[ji]
		in := sel.n
		if err := sel.narrow(false, key.Joined(ds.DeletedWords())); err != nil {
			return nil, err
		}
		bulk.ChargeFetch(pp, m, fkBAT, in)
		bulk.ChargeFKJoin(pp, m, in)
		st.emit(sel.n, -1, obs.Op{Fmt: "algebra.leftjoin(%[1]s.%[2]s)", A: q.Table, B: js.arrow})

		for _, rf := range js.dimFilters {
			db, err := ds.Column(rf.f.Col)
			if err != nil {
				return nil, err
			}
			in := sel.n
			if err := sel.narrow(false, bwd.Exactly(nil, db.Tails(), rf.f.Lo, rf.f.Hi).Through(key)); err != nil {
				return nil, err
			}
			bulk.ChargeFetch(pp, m, db, in)
			m.CPUWork(pp.NThreads(), int64(in)*8, 0, int64(in))
			st.emit(sel.n, st.estApply(rf.estSel()), obs.Op{Fmt: opSelectClassic, A: spec.Dim, B: rf.f.Col})
		}
	}
	// A fetch addresses rows by position and gets the survivors listed, once,
	// in row order; a statement that only counts its rows — joined or not —
	// has the mask's popcount and needs no list.
	need := pl.tailKeys
	nrows := sel.n
	var ids []bat.OID
	if len(need) > 0 {
		if ids, err = sel.ids(); err != nil {
			return nil, err
		}
	}

	// Delta scan: evaluate the predicates over the live delta rows and
	// materialize the needed values in the same pass.
	var dset *deltaSet
	if fact.DeltaLen() > 0 {
		if err := st.step(StageDelta); err != nil {
			return nil, err
		}
		var err error
		dset, err = scanDelta(m, pp, q, snap, need)
		if err != nil {
			return nil, err
		}
		st.emit(dset.n, -1, obs.Op{Fmt: opDeltaScan, A: q.Table, N: int64(dset.n)})
	}
	st.estCapture()
	st.res.Candidates = nrows
	st.res.Refined = nrows

	// Materialize referenced columns at the qualifying base positions — a
	// dimension's at the positions the rows' keys join; grouping keys ride
	// along when a grouping is present.
	ectx := &exprCtx{n: nrows, vals: map[ColRef][]int64{}}
	for _, ref := range need {
		if err := st.step(StageBulk); err != nil {
			return nil, err
		}
		if ref.IsDim() {
			db, err := snap.snapFor(ref.Dim).Column(ref.Name)
			if err != nil {
				return nil, err
			}
			key, pos := pl.keyFor(keys, ref.Dim), bat.OIDPool.GetN(len(ids))
			pp.For(len(ids), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					at, _ := key.At(int(ids[i]))
					pos[i] = bat.OID(at)
				}
			})
			ectx.vals[ref] = bulk.Fetch(pp, m, db, pos)
			bat.OIDPool.Put(pos)
		} else {
			fb, err := fact.Column(ref.Name)
			if err != nil {
				return nil, err
			}
			ectx.vals[ref] = bulk.Fetch(pp, m, fb, ids)
		}
		st.emit(ectx.n, -1, obs.Op{Fmt: "algebra.leftjoin(%[1]s)", A: ref.Name})
	}
	bat.OIDPool.Put(ids)

	return &scanOut{ectx: ectx, dset: dset}, nil
}

// selectClassic is the selection stage of the classic scan: the statement's
// conjuncts, then its disjunction groups, then the deletion bitmap, each
// narrowing one survivor mask over the base rows (classicSel) — no id list
// passes between them. Where a column is decomposed the granule bounds of
// its approximation settle most granules without a look at the values; the
// exact values are compared in the others. The meter is billed for the bulk
// model's operators all the same — a full scan, then candidate-list filters
// that gather a column at the surviving positions and rewrite the id list
// (bulk.SelectRange, SelectOIDs, Fetch, whose charges these are) — whatever
// the host skipped (DESIGN.md §7).
func (pl pipeline) selectClassic(st *pipeState) (*classicSel, error) {
	q := &pl.q
	snap := pl.snap
	pp := st.pp
	m := st.m
	fact := snap.fact

	// First a full scan, then progressively narrower filters of its
	// survivors (MonetDB's uselect chains).
	if err := st.step(StageBulk); err != nil {
		return nil, err
	}
	sel := newClassicSel(pp, fact.BaseLen())
	for i, rf := range pl.factFilters {
		if i > 0 {
			if err := st.step(StageBulk); err != nil {
				return nil, err
			}
		}
		b, err := fact.Column(rf.f.Col)
		if err != nil {
			return nil, err
		}
		in := sel.n
		if err := sel.narrow(i == 0, bwd.Exactly(snap.get("", rf.f.Col), b.Tails(), rf.f.Lo, rf.f.Hi)); err != nil {
			return nil, err
		}
		if i == 0 {
			bulk.ChargeSelectRange(pp, m, b, sel.n)
		} else {
			bulk.ChargeSelectOIDs(pp, m, b, in, sel.n)
		}
		st.emit(sel.n, st.estApply(rf.estSel()), obs.Op{Fmt: opSelectClassic, A: q.Table, B: rf.f.Col})
	}
	if len(pl.factFilters) == 0 {
		sel.all()
		m.CPUWork(pp.NThreads(), int64(sel.n)*4, 0, int64(sel.n))
		st.emit(sel.n, -1, obs.Op{Fmt: "algebra.scan(%[1]s)", A: q.Table})
	}

	// Disjunction groups: the surviving rows that match any of the group's
	// ranges — billed as the bulk operator, which fetches each disjunct column
	// at the surviving positions and filters in one fully-materializing pass.
	for _, g := range pl.orGroups {
		if err := st.step(StageBulk); err != nil {
			return nil, err
		}
		ds := make([]bwd.Disjunct, len(g.filters))
		for k, f := range g.filters {
			b, err := fact.Column(f.Col)
			if err != nil {
				return nil, err
			}
			ds[k] = bwd.Exactly(snap.get("", f.Col), b.Tails(), f.Lo, f.Hi)
			bulk.ChargeFetch(pp, m, b, sel.n)
		}
		in := int64(sel.n) * int64(len(ds))
		if err := sel.narrow(false, ds...); err != nil {
			return nil, err
		}
		m.CPUWork(pp.NThreads(), in*8, 0, in)
		st.emit(sel.n, st.estApply(g.sel), obs.Op{Fmt: "algebra.uselectany(%[1]s)", A: g.text})
	}

	// Discharge deleted base rows with one bitmap pass.
	if fact.BaseDeletedCount() > 0 {
		in := sel.n
		sel.maskOut(fact.DeletedWords())
		m.CPUWork(pp.NThreads(), int64(in)*8+int64(fact.BaseLen()+7)/8, 0, int64(in))
		st.emit(sel.n, -1, obs.Op{Fmt: "algebra.maskdeleted(%[1]s)", A: q.Table})
	}
	return sel, nil
}

// classicSel is the survivor set of a classic scan's selections: one bit per
// base row — bit i%64 of word i/64 — narrowed in place by every conjunct,
// disjunction group, the deletion bitmap and the join chain, with the
// survivor count of every morsel beside it. It is what the A&R scan keeps in its Candidates
// (ar/scan.go), walked by the same loops (bwd.ScanGranules, NarrowGranules)
// over the executor's own morsels, which are rounded to whole granules so
// that workers write disjoint words.
type classicSel struct {
	pp      par.P
	rows, n int
	mask    []uint64
	counts  []int
}

func newClassicSel(pp par.P, rows int) *classicSel {
	pp.Chunk = (pp.ChunkSize() + bwd.GranuleRows - 1) / bwd.GranuleRows * bwd.GranuleRows
	return &classicSel{
		pp:     pp,
		rows:   rows,
		mask:   mem.U64.GetN((rows + bwd.GranuleRows - 1) / bwd.GranuleRows),
		counts: mem.Ints.GetN((rows + pp.Chunk - 1) / pp.Chunk),
	}
}

func (s *classicSel) release() {
	mem.U64.Put(s.mask)
	mem.Ints.Put(s.counts)
}

// narrow keeps the rows that satisfy any of the disjuncts ds: of all rows
// for the selection that starts the set (first), of the survivors after. A
// cancelled pass leaves the mask undefined and returns the context's error.
// A table of one morsel is walked on the calling goroutine without
// materializing a closure, its disjuncts still on the caller's stack — a
// short statement allocates nothing here; the workers of a longer one share
// a copy of them.
func (s *classicSel) narrow(first bool, ds ...bwd.Disjunct) error {
	if len(s.counts) == 1 {
		if first {
			s.n, _ = bwd.ScanGranules(ds, s.mask, 0, s.rows)
		} else {
			s.n, _ = bwd.NarrowGranules(ds, s.mask, 0, s.rows)
		}
		s.counts[0] = s.n
		return s.pp.Cancelled()
	}
	walk, shared := bwd.NarrowGranules, slices.Clone(ds)
	if first {
		walk = bwd.ScanGranules
	}
	err := s.pp.For(s.rows, func(lo, hi int) {
		s.counts[lo/s.pp.Chunk], _ = walk(shared, s.mask, lo, hi)
	})
	s.recount()
	return err
}

func (s *classicSel) recount() {
	s.n = 0
	for _, cnt := range s.counts {
		s.n += cnt
	}
}

// all starts the set with every base row: a statement without a selection.
func (s *classicSel) all() {
	for g := range s.mask {
		s.mask[g] = ^uint64(0) >> uint(bwd.GranuleRows-min(bwd.GranuleRows, s.rows-g*bwd.GranuleRows))
	}
	for ci := range s.counts {
		s.counts[ci] = min(s.pp.Chunk, s.rows-ci*s.pp.Chunk)
	}
	s.n = s.rows
}

// maskOut clears the rows whose bit is set in drop, a bitmap laid out like
// the mask that may end early or run past it.
func (s *classicSel) maskOut(drop []uint64) {
	per := s.pp.Chunk / bwd.GranuleRows
	for ci := range s.counts {
		cnt := 0
		for g := ci * per; g < min((ci+1)*per, len(s.mask)); g++ {
			if g < len(drop) {
				s.mask[g] &^= drop[g]
			}
			cnt += bits.OnesCount64(s.mask[g])
		}
		s.counts[ci] = cnt
	}
	s.recount()
}

// ids lists the surviving rows in row order — the order-preserving bulk
// selection's output (§IV-A item 2) — every morsel writing its own slot of
// the exact-size list. It ends the narrowing: the morsel counts become the
// slots' offsets. The list is arena-backed and the caller's.
func (s *classicSel) ids() ([]bat.OID, error) {
	out := bat.OIDPool.GetN(s.n)
	off := 0
	for ci, cnt := range s.counts {
		s.counts[ci], off = off, off+cnt
	}
	err := s.pp.For(s.rows, func(lo, hi int) {
		at := s.counts[lo/s.pp.Chunk]
		for g := lo / bwd.GranuleRows; g*bwd.GranuleRows < hi; g++ {
			for w := s.mask[g]; w != 0; w &= w - 1 {
				out[at] = bat.OID(g*bwd.GranuleRows + bits.TrailingZeros64(w))
				at++
			}
		}
	})
	return out, err
}
