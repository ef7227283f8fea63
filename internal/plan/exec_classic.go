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
// a mask, selectClassic); no device or bus time is ever charged.
func (c *Catalog) ExecClassic(ctx context.Context, q Query, opts ExecOpts) (*Result, error) {
	return c.execOnce(ctx, q, opts, ModeClassic)
}

// scanClassic is the classic scan strategy: the classic selection over the
// base segment (selectClassic) — MonetDB-style uselects and the FK-probe join
// chain narrowing one mask — the same over the delta segment (scanDelta), and
// full materialization of every referenced column at the base's survivors:
// the same exact-value tuple stream as the A&R scan produces for the shared
// pipeline tail, with the delta's contribution beside it, unmerged.
func (pl pipeline) scanClassic(st *pipeState) (*scanOut, error) {
	sel, err := pl.selectClassic(st)
	if err != nil {
		return nil, err
	}
	defer sel.release()
	delta, err := pl.scanDelta(st, pl.tailKeys)
	if err != nil {
		return nil, err
	}
	st.estCapture()
	st.res.Candidates = sel.n
	st.res.Refined = sel.n
	ectx, err := pl.materialize(st, sel, pl.tailKeys)
	if err != nil {
		return nil, err
	}
	return &scanOut{ectx: ectx, delta: delta}, nil
}

// selectClassic is the classic selection over one segment of the leg's fact
// table, the base or (pl.delta) the delta segment: the conjuncts, then the
// disjunction groups, then the segment's deletion words, then per join the
// probe — the dimension's deletions with it — and the dimension filters read
// through the join's key, each narrowing one survivor mask over the
// segment's rows (classicSel); no id list passes between them. Where a base
// column is decomposed the granule bounds of its approximation settle most
// granules without a look at the values; the exact values are compared in the
// others, and in every granule of the delta, which has no bounds.
//
// A base run is billed and listed as the bulk model's operators all the same
// — a full scan, then candidate-list filters that gather a column at the
// surviving positions and rewrite the id list, the key fetched and probed in
// the pre-built index, a dimension column fetched at the joined positions
// and filtered (bulk.SelectRange, SelectOIDs, Fetch, FKJoin, whose charges
// these are) — whatever the host skipped (DESIGN.md §7). A delta run bills
// and lists nothing: scanDelta charges it once, as a row store's pass.
func (pl pipeline) selectClassic(st *pipeState) (*classicSel, error) {
	q, fact, pp, bill := &pl.q, pl.snap.fact, st.pp, !pl.delta
	m := st.m
	rows, deleted, dead := fact.BaseLen(), fact.DeletedWords(), fact.BaseDeletedCount()
	if pl.delta {
		m, rows, deleted, dead = nil, fact.DeltaLen(), fact.DeltaDeletedWords(), fact.DeltaLen()-fact.LiveDelta()
	}

	// First a full scan, then progressively narrower filters of its
	// survivors (MonetDB's uselect chains).
	if err := pl.bulkStep(st); err != nil {
		return nil, err
	}
	sel := newClassicSel(pp, rows)
	for i, rf := range pl.factFilters {
		if i > 0 {
			if err := pl.bulkStep(st); err != nil {
				return nil, err
			}
		}
		vals, b, err := pl.values(ColRef{Name: rf.f.Col})
		if err != nil {
			return nil, err
		}
		in := sel.n
		if err := sel.narrow(i == 0, bwd.Exactly(pl.dec(rf.f.Col), vals, rf.f.Lo, rf.f.Hi)); err != nil {
			return nil, err
		}
		if i == 0 {
			bulk.ChargeSelectRange(pp, m, b, sel.n)
		} else {
			bulk.ChargeSelectOIDs(pp, m, b, in, sel.n)
		}
		if bill {
			st.emit(sel.n, st.estApply(rf.estSel()), obs.Op{Fmt: opSelectClassic, A: q.Table, B: rf.f.Col})
		}
	}
	if len(pl.factFilters) == 0 {
		sel.all()
		if bill {
			m.CPUWork(pp.NThreads(), int64(sel.n)*4, 0, int64(sel.n))
			st.emit(sel.n, -1, obs.Op{Fmt: "algebra.scan(%[1]s)", A: q.Table})
		}
	}

	// Disjunction groups: the surviving rows that match any of the group's
	// ranges — billed as the bulk operator, which fetches each disjunct column
	// at the surviving positions and filters in one fully-materializing pass.
	for _, g := range pl.orGroups {
		if err := pl.bulkStep(st); err != nil {
			return nil, err
		}
		ds := make([]bwd.Disjunct, len(g.filters))
		for k, f := range g.filters {
			vals, b, err := pl.values(ColRef{Name: f.Col})
			if err != nil {
				return nil, err
			}
			ds[k] = bwd.Exactly(pl.dec(f.Col), vals, f.Lo, f.Hi)
			bulk.ChargeFetch(pp, m, b, sel.n)
		}
		in := int64(sel.n) * int64(len(ds))
		if err := sel.narrow(false, ds...); err != nil {
			return nil, err
		}
		if bill {
			m.CPUWork(pp.NThreads(), in*8, 0, in)
			st.emit(sel.n, st.estApply(g.sel), obs.Op{Fmt: "algebra.uselectany(%[1]s)", A: g.text})
		}
	}

	// Discharge deleted rows with one bitmap pass.
	if dead > 0 {
		in := sel.n
		sel.maskOut(deleted)
		if bill {
			m.CPUWork(pp.NThreads(), int64(in)*8+int64(rows+7)/8, 0, int64(in))
			st.emit(sel.n, -1, obs.Op{Fmt: "algebra.maskdeleted(%[1]s)", A: q.Table})
		}
	}

	// Foreign-key join chain: the probe — the dimension's deletion words with
	// it — and every dimension filter narrow the mask through the join's key
	// like the selections before them.
	sel.keys = make([]bwd.Key, len(pl.joins))
	for ji, js := range pl.joins {
		spec := js.spec
		if err := pl.bulkStep(st); err != nil {
			return nil, err
		}
		fks, fkBAT, err := pl.values(ColRef{Name: spec.FKCol})
		if err != nil {
			return nil, err
		}
		ds := pl.snap.snapFor(spec.Dim)
		sel.keys[ji] = pl.snap.joinKey(spec, nil, fks)
		key := &sel.keys[ji]
		in := sel.n
		if err := sel.narrow(false, key.Joined(ds.DeletedWords())); err != nil {
			return nil, err
		}
		bulk.ChargeFetch(pp, m, fkBAT, in)
		bulk.ChargeFKJoin(pp, m, in)
		if bill {
			st.emit(sel.n, -1, obs.Op{Fmt: "algebra.leftjoin(%[1]s.%[2]s)", A: q.Table, B: js.arrow})
		}
		for _, rf := range js.dimFilters {
			vals, db, err := pl.values(ColRef{Dim: spec.Dim, Name: rf.f.Col})
			if err != nil {
				return nil, err
			}
			in := sel.n
			if err := sel.narrow(false, bwd.Exactly(nil, vals, rf.f.Lo, rf.f.Hi).Through(key)); err != nil {
				return nil, err
			}
			bulk.ChargeFetch(pp, m, db, in)
			if bill {
				m.CPUWork(pp.NThreads(), int64(in)*8, 0, int64(in))
				st.emit(sel.n, st.estApply(rf.estSel()), obs.Op{Fmt: opSelectClassic, A: spec.Dim, B: rf.f.Col})
			}
		}
	}
	return sel, nil
}

// materialize gathers every column of need at the survivors of sel, listed
// once, in row order — a dimension's at the position the row's key joins;
// grouping keys ride along when a grouping is present. A statement that only
// counts its rows, joined or not, has the mask's popcount and needs no list.
// A base run bills each column as the bulk fetch it stands for, and lists it.
func (pl pipeline) materialize(st *pipeState, sel *classicSel, need []ColRef) (*exprCtx, error) {
	ectx := &exprCtx{n: sel.n, vals: make(map[ColRef][]int64, len(need))}
	if len(need) == 0 {
		return ectx, nil
	}
	ids, err := sel.ids()
	if err != nil {
		return nil, err
	}
	defer bat.OIDPool.Put(ids)
	for _, ref := range need {
		if err := pl.bulkStep(st); err != nil {
			return nil, err
		}
		vals, b, err := pl.values(ref)
		if err != nil {
			return nil, err
		}
		key, out := pl.keyFor(sel.keys, ref.Dim), mem.I64.GetN(len(ids))
		err = st.pp.For(len(ids), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				at := int(ids[i])
				if key != nil {
					at, _ = key.At(at)
				}
				out[i] = vals[at]
			}
		})
		if err != nil {
			return nil, err
		}
		ectx.vals[ref] = out
		if !pl.delta {
			bulk.ChargeFetch(st.pp, st.m, b, len(ids))
			st.emit(ectx.n, -1, obs.Op{Fmt: "algebra.leftjoin(%[1]s)", A: ref.Name})
		}
	}
	return ectx, nil
}

// bulkStep is the checkpoint before each bulk operator of a base run; a
// delta run passed its one checkpoint in scanDelta.
func (pl pipeline) bulkStep(st *pipeState) error {
	if pl.delta {
		return nil
	}
	return st.step(StageBulk)
}

// values returns the exact values of a column the statement reads, as one
// segment of the leg's fact table joins them: a fact column's in that
// segment, a dimension's in the dimension's base, which the keys of both
// segments address. b is the BAT they are the tails of, which a base run is
// billed over — nil for the delta's columns.
func (pl pipeline) values(ref ColRef) (vals []int64, b *bat.BAT, err error) {
	if pl.delta && !ref.IsDim() {
		vals, err = pl.snap.fact.DeltaColumn(ref.Name)
		return vals, nil, err
	}
	if b, err = pl.snap.snapFor(ref.Dim).Column(ref.Name); err != nil {
		return nil, nil, err
	}
	return b.Tails(), b, nil
}

// dec returns the decomposition whose granule bounds settle a fact
// column's conjuncts in the segment: the base's, nil in the delta.
func (pl pipeline) dec(col string) *bwd.Column {
	if pl.delta {
		return nil
	}
	return pl.snap.get("", col)
}

// classicSel is the survivor set of a classic selection: one bit per row of
// the segment it selects from — bit i%64 of word i/64 — narrowed in place by
// every conjunct, disjunction group, the deletion words and the join chain,
// with the survivor count of every morsel beside it. It is what the A&R scan
// keeps in its Candidates (ar/scan.go), walked by the same loops
// (bwd.ScanGranules, NarrowGranules) over the executor's own morsels, which
// are rounded to whole granules so that workers write disjoint words.
type classicSel struct {
	pp      par.P
	rows, n int
	mask    []uint64
	counts  []int
	// keys are the joins' keys the mask was narrowed through, aligned with
	// the leg's joins: where a survivor's dimension columns are read.
	keys []bwd.Key
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

// all starts the set with every row: a statement without a selection.
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
