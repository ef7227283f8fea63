package plan

import (
	"context"

	"repro/internal/ar"
	"repro/internal/bat"
	"repro/internal/bulk"
	"repro/internal/bwd"
	"repro/internal/obs"
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
// chain narrowing one survivor set — the same over the delta segment
// (scanDelta), and full materialization of every referenced column at the
// base's survivors (materialize): the same segments as the A&R scan ends in,
// every column bound to its exact values. A scan that fails releases them.
func (pl pipeline) scanClassic(st *pipeState) (*scanOut, error) {
	sel, keys, err := pl.selectClassic(st)
	if err != nil {
		return nil, err
	}
	out := &scanOut{segs: segments{{set: sel}}}
	delta, err := pl.scanDelta(st, pl.tailKeys)
	if err != nil {
		out.release()
		return nil, err
	}
	if delta.set != nil {
		out.segs = append(out.segs, delta)
	}
	st.estCapture()
	st.res.Candidates = sel.Len()
	st.res.Refined = sel.Len()
	if out.segs[0].binds, err = pl.materialize(st, sel, keys, pl.tailKeys); err != nil {
		out.release()
		return nil, err
	}
	return out, nil
}

// selectClassic is the classic selection over one segment of the leg's fact
// table, the base or (pl.delta) the delta segment: the conjuncts, then the
// disjunction groups, then the segment's deletion words, then per join the
// probe — the dimension's deletions with it — and the dimension filters read
// through the join's key, each narrowing one host survivor set over the
// segment's rows (ar.SelectExact, Narrow, MaskOut), in row order; no id list
// passes between them. The joins' keys, aligned with the leg's joins, travel
// beside it: where a survivor's dimension columns are read. Where a base
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
func (pl pipeline) selectClassic(st *pipeState) (sel *ar.Candidates, keys []bwd.Key, err error) {
	q, fact, pp, bill := &pl.q, pl.snap.fact, st.pp, !pl.delta
	m := st.m
	rows, deleted, dead := fact.BaseLen(), fact.DeletedWords(), fact.BaseDeletedCount()
	if pl.delta {
		m, rows, deleted, dead = nil, fact.DeltaLen(), fact.DeltaDeletedWords(), fact.DeltaLen()-fact.LiveDelta()
	}
	defer func() {
		if err != nil {
			sel.Release()
			sel, keys = nil, nil
		}
	}()

	// First a full scan, then progressively narrower filters of its
	// survivors (MonetDB's uselect chains).
	if err := pl.bulkStep(st); err != nil {
		return nil, nil, err
	}
	if len(pl.factFilters) == 0 {
		sel, _ = ar.SelectExact(pp, rows)
		if bill {
			m.CPUWork(pp.NThreads(), int64(sel.Len())*4, 0, int64(sel.Len()))
			st.emit(sel.Len(), -1, obs.Op{Fmt: "algebra.scan(%[1]s)", A: q.Table})
		}
	}
	for i, rf := range pl.factFilters {
		if i > 0 {
			if err = pl.bulkStep(st); err != nil {
				return sel, nil, err
			}
		}
		vals, b, err := pl.values(ColRef{Name: rf.f.Col})
		if err != nil {
			return sel, nil, err
		}
		d := bwd.Exactly(pl.dec(rf.f.Col), vals, rf.f.Lo, rf.f.Hi)
		if i == 0 {
			if sel, err = ar.SelectExact(pp, rows, d); err != nil {
				return nil, nil, err
			}
			bulk.ChargeSelectRange(pp, m, b, sel.Len())
		} else {
			in := sel.Len()
			if err = sel.Narrow(pp, d); err != nil {
				return sel, nil, err
			}
			bulk.ChargeSelectOIDs(pp, m, b, in, sel.Len())
		}
		if bill {
			st.emit(sel.Len(), st.estApply(rf.estSel()), obs.Op{Fmt: opSelectClassic, A: q.Table, B: rf.f.Col})
		}
	}

	// Disjunction groups: the surviving rows that match any of the group's
	// ranges — billed as the bulk operator, which fetches each disjunct column
	// at the surviving positions and filters in one fully-materializing pass.
	for _, g := range pl.orGroups {
		if err = pl.bulkStep(st); err != nil {
			return sel, nil, err
		}
		ds := make([]bwd.Disjunct, len(g.filters))
		for k, f := range g.filters {
			vals, b, err := pl.values(ColRef{Name: f.Col})
			if err != nil {
				return sel, nil, err
			}
			ds[k] = bwd.Exactly(pl.dec(f.Col), vals, f.Lo, f.Hi)
			bulk.ChargeFetch(pp, m, b, sel.Len())
		}
		in := int64(sel.Len()) * int64(len(ds))
		if err = sel.Narrow(pp, ds...); err != nil {
			return sel, nil, err
		}
		if bill {
			m.CPUWork(pp.NThreads(), in*8, 0, in)
			st.emit(sel.Len(), st.estApply(g.sel), obs.Op{Fmt: "algebra.uselectany(%[1]s)", A: g.text})
		}
	}

	// Discharge deleted rows with one bitmap pass.
	if dead > 0 {
		in := sel.Len()
		sel.MaskOut(deleted)
		if bill {
			m.CPUWork(pp.NThreads(), int64(in)*8+int64(rows+7)/8, 0, int64(in))
			st.emit(sel.Len(), -1, obs.Op{Fmt: "algebra.maskdeleted(%[1]s)", A: q.Table})
		}
	}

	// Foreign-key join chain: the probe — the dimension's deletion words with
	// it — and every dimension filter narrow the set through the join's key
	// like the selections before them.
	keys = make([]bwd.Key, len(pl.joins))
	for ji, js := range pl.joins {
		spec := js.spec
		if err = pl.bulkStep(st); err != nil {
			return sel, nil, err
		}
		fks, fkBAT, err := pl.values(ColRef{Name: spec.FKCol})
		if err != nil {
			return sel, nil, err
		}
		ds := pl.snap.snapFor(spec.Dim)
		keys[ji] = pl.snap.joinKey(spec, nil, fks)
		key := &keys[ji]
		in := sel.Len()
		if err = sel.Narrow(pp, key.Joined(ds.DeletedWords())); err != nil {
			return sel, nil, err
		}
		bulk.ChargeFetch(pp, m, fkBAT, in)
		bulk.ChargeFKJoin(pp, m, in)
		if bill {
			st.emit(sel.Len(), -1, obs.Op{Fmt: "algebra.leftjoin(%[1]s.%[2]s)", A: q.Table, B: js.arrow})
		}
		for _, rf := range js.dimFilters {
			vals, db, err := pl.values(ColRef{Dim: spec.Dim, Name: rf.f.Col})
			if err != nil {
				return sel, nil, err
			}
			in := sel.Len()
			if err = sel.Narrow(pp, bwd.Exactly(nil, vals, rf.f.Lo, rf.f.Hi).Through(key)); err != nil {
				return sel, nil, err
			}
			bulk.ChargeFetch(pp, m, db, in)
			if bill {
				m.CPUWork(pp.NThreads(), int64(in)*8, 0, int64(in))
				st.emit(sel.Len(), st.estApply(rf.estSel()), obs.Op{Fmt: opSelectClassic, A: spec.Dim, B: rf.f.Col})
			}
		}
	}
	return sel, keys, nil
}

// materialize binds every column of need to its exact values, to be read at
// the survivors of sel by its mask where the tail reads them — a dimension's
// at the position the row's key of keys joins; grouping keys ride along when
// a grouping is present. Nothing is copied: a statement that only counts its
// rows, joined or not, reads nothing at all. A base run bills each column as
// the bulk fetch it stands for, and lists it.
func (pl pipeline) materialize(st *pipeState, sel *ar.Candidates, keys []bwd.Key, need []ColRef) (map[ColRef]colBind, error) {
	binds := make(map[ColRef]colBind, len(need))
	for _, ref := range need {
		if err := pl.bulkStep(st); err != nil {
			return nil, err
		}
		vals, b, err := pl.values(ref)
		if err != nil {
			return nil, err
		}
		binds[ref] = colBind{tails: vals, key: pl.keyFor(keys, ref.Dim)}
		if !pl.delta {
			bulk.ChargeFetch(st.pp, st.m, b, sel.Len())
			st.emit(sel.Len(), -1, obs.Op{Fmt: "algebra.leftjoin(%[1]s)", A: ref.Name})
		}
	}
	return binds, nil
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
