package plan

import (
	"context"
	"fmt"
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
// (its joins, fetches and grouping are those loops; its selections narrow a
// mask, selectClassic); no device or bus time is ever charged.
func (c *Catalog) ExecClassic(ctx context.Context, q Query, opts ExecOpts) (*Result, error) {
	return c.execOnce(ctx, q, opts, ModeClassic)
}

// scanClassic is the classic scan strategy: MonetDB-style uselects over the
// row-major base segment (selectClassic), the FK-probe join chain through
// the pre-built indexes, and full materialization of every referenced column
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
	// A join or a fetch addresses rows by position and gets the survivors
	// listed, once, in row order; a statement that only counts its rows has
	// the mask's popcount and needs no list.
	need := pl.tailKeys
	var ids []bat.OID
	if len(pl.joins) > 0 || len(need) > 0 {
		if ids, err = sel.ids(); err != nil {
			return nil, err
		}
	}

	// Foreign-key join chain through the pre-built indexes.
	joinPos := make([][]bat.OID, len(pl.joins))
	lookups := map[string]func(int64) (bat.OID, bool){}
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
		ix := ds.FKIndex(spec.DimPK)
		if ix == nil {
			return nil, fmt.Errorf("plan: no FK index on %s.%s; call BuildFKIndex first", spec.Dim, spec.DimPK)
		}
		lookups[spec.Dim] = ix.Lookup
		fkVals := bulk.Fetch(pp, m, fkBAT, ids)
		pos, hit := bulk.FKJoin(pp, m, ix, fkVals)
		mem.I64.Put(fkVals)
		// Keep the id list, this join's positions, and every earlier
		// join's positions aligned while dropping misses and rows joined
		// to deleted dimension rows.
		pairs := par.GatherOrdered(pp, len(ids), func(lo, hi int) []idKeep {
			part := make([]idKeep, 0, hi-lo)
			for i := lo; i < hi; i++ {
				if hit[i] && !ds.BaseDeleted(int(pos[i])) {
					part = append(part, idKeep{i, ids[i], pos[i]})
				}
			}
			return part
		})
		var keep []int
		prevIDs := ids
		ids, joinPos[ji], keep = splitKeep(pairs)
		bat.OIDPool.Put(prevIDs)
		bat.OIDPool.Put(pos)
		mem.Bools.Put(hit)
		compactJoinPos(pp, joinPos[:ji], keep)
		st.emit(len(ids), -1, obs.Op{Fmt: "algebra.leftjoin(%[1]s.%[2]s)", A: q.Table, B: js.arrow})

		for _, rf := range js.dimFilters {
			db, err := ds.Column(rf.f.Col)
			if err != nil {
				return nil, err
			}
			vals := bulk.Fetch(pp, m, db, joinPos[ji])
			f := rf.f
			curIDs, curPos := ids, joinPos[ji]
			pairs := par.GatherOrdered(pp, len(vals), func(lo, hi int) []idKeep {
				part := make([]idKeep, 0, hi-lo)
				for i := lo; i < hi; i++ {
					if vals[i] >= f.Lo && vals[i] <= f.Hi {
						part = append(part, idKeep{i, curIDs[i], curPos[i]})
					}
				}
				return part
			})
			prevIDs, prevPos := ids, joinPos[ji]
			ids, joinPos[ji], keep = splitKeep(pairs)
			bat.OIDPool.Put(prevIDs)
			bat.OIDPool.Put(prevPos)
			mem.I64.Put(vals)
			compactJoinPos(pp, joinPos[:ji], keep)
			m.CPUWork(pp.NThreads(), int64(len(vals))*8, 0, int64(len(vals)))
			st.emit(len(ids), st.estApply(rf.estSel()), obs.Op{Fmt: opSelectClassic, A: spec.Dim, B: rf.f.Col})
		}
	}

	nrows := sel.n
	if len(pl.joins) > 0 {
		nrows = len(ids)
	}

	// Delta scan: evaluate the predicates over the live delta rows and
	// materialize the needed values in the same pass.
	var dset *deltaSet
	if fact.DeltaLen() > 0 {
		if err := st.step(StageDelta); err != nil {
			return nil, err
		}
		var err error
		dset, err = scanDelta(m, pp, q, snap, need, lookups)
		if err != nil {
			return nil, err
		}
		st.emit(dset.n, -1, obs.Op{Fmt: opDeltaScan, A: q.Table, N: int64(dset.n)})
	}
	st.estCapture()
	st.res.Candidates = nrows
	st.res.Refined = nrows

	// Materialize referenced columns at the qualifying base positions;
	// grouping keys ride along when a grouping is present.
	posFor := func(dim string) []bat.OID {
		for ji, js := range pl.joins {
			if js.spec.Dim == dim {
				return joinPos[ji]
			}
		}
		return nil
	}
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
			ectx.vals[ref] = bulk.Fetch(pp, m, db, posFor(ref.Dim))
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
// disjunction group and the deletion bitmap, with the survivor count of
// every morsel beside it. It is what the A&R scan keeps in its Candidates
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

// idKeep is one surviving row of a join or dimension-filter pass: its
// index in the pre-pass candidate list plus the fact id and dimension
// position that survive.
type idKeep struct {
	i       int
	id, pos bat.OID
}

// splitKeep unpacks gathered survivors into the new id list, the new
// position list, and the keep indexes that realign earlier joins.
func splitKeep(pairs []idKeep) (ids, pos []bat.OID, keep []int) {
	ids = bat.OIDPool.GetN(len(pairs))
	pos = bat.OIDPool.GetN(len(pairs))
	keep = mem.Ints.GetN(len(pairs))
	for i, ik := range pairs {
		ids[i] = ik.id
		pos[i] = ik.pos
		keep[i] = ik.i
	}
	return ids, pos, keep
}

// compactJoinPos compacts earlier joins' position lists with the keep
// index list produced by a later join or dimension filter.
func compactJoinPos(pp par.P, lists [][]bat.OID, keep []int) {
	for li, at := range lists {
		if at == nil {
			continue
		}
		kept := bat.OIDPool.GetN(len(keep))
		pp.For(len(keep), func(mlo, mhi int) {
			for i := mlo; i < mhi; i++ {
				kept[i] = at[keep[i]]
			}
		})
		bat.OIDPool.Put(at)
		lists[li] = kept
	}
}
