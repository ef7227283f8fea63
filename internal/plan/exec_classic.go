package plan

import (
	"context"
	"slices"

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

// scanClassic is the classic scan strategy: the leg's operator list walked
// over the base segment's exact values (selectClassic) — MonetDB-style
// uselects and the FK-probe join chain narrowing one survivor set — and over
// the delta segment's (scanDelta), and full materialization of every
// referenced column at the base's survivors (materialize): the same segments
// as the A&R scan ends in, every column bound to its exact values. A scan
// that fails releases them.
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
	st.res.Candidates = sel.Len()
	st.res.Refined = sel.Len()
	if out.segs[0].binds, err = pl.materialize(st, phaseBase, sel, keys, pl.tailKeys); err != nil {
		out.release()
		return nil, err
	}
	return out, nil
}

// selectClassic is the classic selection over the base segment: the leg's
// operator list walked over the exact values (walk, phaseBase), each operator
// narrowing one host survivor set over the base's rows (ar.SelectExact,
// Narrow, MaskOut) in row order; no id list passes between them. The joins'
// keys, aligned with the query's joins, travel beside it: where a survivor's
// dimension columns are read. Where a column is decomposed the granule bounds
// of its approximation settle most granules without a look at the values; the
// exact values are compared in the others.
//
// It is billed and listed as the bulk model's operators all the same — a full
// scan, then candidate-list filters that gather a column at the surviving
// positions and rewrite the id list, the key fetched and probed in the
// pre-built index, a dimension column fetched at the joined positions and
// filtered (bulk.ChargeSelectRange, ChargeSelectOIDs, ChargeFetch,
// ChargeFKJoin) — whatever the host skipped (DESIGN.md §7).
func (pl pipeline) selectClassic(st *pipeState) (*ar.Candidates, []bwd.Key, error) {
	keys := make([]bwd.Key, len(pl.q.Joins))
	sel, err := pl.walk(st, phaseBase, nil, keys)
	return sel, keys, err
}

// materialize binds every column of need to its exact values in the
// segment of phase ph, to be read at the survivors of sel by its mask where
// the tail reads them — a dimension's at the position the row's key of keys
// joins; grouping keys ride along when a grouping is present. Nothing is
// copied: a statement that only counts its rows, joined or not, reads nothing
// at all. The base's run bills each column as the bulk fetch it stands for,
// and lists it.
func (pl pipeline) materialize(st *pipeState, ph phase, sel *ar.Candidates, keys []bwd.Key, need []ColRef) (map[ColRef]colBind, error) {
	binds := make(map[ColRef]colBind, len(need))
	for _, ref := range need {
		if ph == phaseBase {
			if err := st.step(StageBulk); err != nil {
				return nil, err
			}
		}
		vals, b, err := pl.values(ph, ref)
		if err != nil {
			return nil, err
		}
		binds[ref] = colBind{tails: vals, key: pl.keyFor(keys, ref.Dim)}
		if d := pl.dec(ph, ref.Name); d != nil && !ref.IsDim() && slices.Contains(pl.q.GroupBy, ref.Name) {
			binds[ref] = colBind{col: d} // the same values, packed as value less base (groupKey)
		}
		if ph == phaseBase {
			bulk.ChargeFetch(st.pp, st.m, b, sel.Len())
			st.emit(sel.Len(), -1, obs.Op{Fmt: "algebra.leftjoin(%[1]s)", A: ref.Name})
		}
	}
	return binds, nil
}

// values returns the exact values of a column the statement reads, as the
// segment of phase ph joins them: a fact column's in the base or the delta
// segment, a dimension's in the dimension's base, which the keys of both
// segments address. b is the BAT they are the tails of, which the base's run
// is billed over — nil for the delta's columns.
func (pl pipeline) values(ph phase, ref ColRef) (vals []int64, b *bat.BAT, err error) {
	if ph == phaseDelta && !ref.IsDim() {
		vals, err = pl.snap.fact.DeltaColumn(ref.Name)
		return vals, nil, err
	}
	if b, err = pl.snap.snapFor(ref.Dim).Column(ref.Name); err != nil {
		return nil, nil, err
	}
	return b.Tails(), b, nil
}

// dec returns the decomposition whose granule bounds settle a fact column's
// conjuncts in the segment of phase ph: the base's, nil in the delta.
func (pl pipeline) dec(ph phase, col string) *bwd.Column {
	if ph == phaseDelta {
		return nil
	}
	return pl.snap.get("", col)
}
