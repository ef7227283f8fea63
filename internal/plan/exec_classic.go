package plan

import (
	"context"

	"repro/internal/ar"
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
// as the A&R scan ends in, every column bound to its exact values, which the
// leg folds into its accumulators. A scan that fails releases them.
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
	st.res.Candidates += sel.Len()
	st.res.Refined += sel.Len()
	if out.segs[0].binds, err = pl.materialize(st, phaseBase, sel, keys, pl.tailKeys); err != nil {
		out.release()
		return nil, err
	}
	pl.fold(st.pp, out.segs, out)
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
// segment of phase ph — a decomposed column to its code and residual — to be
// read at the survivors of sel by its mask where the tail reads them — a
// dimension's at the position the row's key of keys joins. Nothing is copied:
// a statement that only counts its rows, joined or not, reads nothing at all.
// The base's run bills each column as the bulk fetch it stands for, and lists
// it.
func (pl pipeline) materialize(st *pipeState, ph phase, sel *ar.Candidates, keys []bwd.Key, need []ColRef) (map[ColRef]colBind, error) {
	binds := make(map[ColRef]colBind, len(need))
	for _, ref := range need {
		if ph == phaseBase {
			if err := st.step(StageBulk); err != nil {
				return nil, err
			}
		}
		c, err := pl.column(ph, ref)
		if err != nil {
			return nil, err
		}
		binds[ref] = colBind{tails: c.vals, col: c.col, key: pl.keyFor(keys, ref.Dim)}
		if ph == phaseBase {
			bulk.ChargeFetch(st.pp, st.m, c.width, c.rows, sel.Len())
			st.emit(sel.Len(), -1, obs.Op{Fmt: "algebra.leftjoin(%[1]s)", A: ref.Name})
		}
	}
	return binds, nil
}

// segColumn is a column the statement reads as one segment holds it: the
// base's stored column (col), read by its code and residual, or the delta's
// exact values (vals). width and rows are the base column's, as the bulk
// model bills a pass over it.
type segColumn struct {
	vals        []int64
	col         *bwd.Column
	width, rows int
}

// exactly is the disjunct lo <= v <= hi over the column's exact values,
// decided from the bounds of its decomposition where it has one.
func (c segColumn) exactly(lo, hi int64) bwd.Disjunct { return bwd.Exactly(c.col, c.vals, lo, hi) }

// column returns a column the statement reads as the segment of phase ph
// joins it: a fact column's in the base or the delta segment, a dimension's
// in the dimension's base, which the keys of both segments address.
func (pl pipeline) column(ph phase, ref ColRef) (c segColumn, err error) {
	if ph == phaseDelta && !ref.IsDim() {
		c.vals, err = pl.snap.fact.DeltaColumn(ref.Name)
		return c, err
	}
	if c.col, err = pl.snap.snapFor(ref.Dim).BaseColumn(ref.Name); err == nil {
		c.width, c.rows = c.col.Dec.Width, c.col.Len()
	}
	return c, err
}
