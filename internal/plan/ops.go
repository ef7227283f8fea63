package plan

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/ar"
	"repro/internal/bulk"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/par"
)

// opKind is what one operator of a leg's list does to its survivor set.
type opKind uint8

const (
	opFilter opKind = iota // a conjunct: one range on a column of the leg's table or of a dimension
	opOr                   // a disjunction group: the union of its ranges on the leg's columns
	opMask                 // the deleted rows of the leg's table, or after a probe of its dimension
	opProbe                // an FK probe, which drops a key without a live partner in the dimension
	opScan                 // every row: no list holds it, a walk runs it when no operator can make its set (scanAll)
)

// legOp is one operator of a leg's list (legPlan.ops), estimated once where
// the leg is priced.
type legOp struct {
	kind opKind
	// table is what the operator lists as its table — a dimension filter's
	// dimension, the leg's table otherwise — and text its argument: the
	// filtered column, a disjunction's columns ("t.a|t.b"), a probe's "fk ->
	// dim", a scan's anchor column. dim is the dimension a conjunct or a mask
	// reads, "" on the leg's table.
	table, text, dim string
	// filters is a conjunct's range or a disjunction's ranges.
	filters []Filter
	// join is the position in the query's joins of a probe, or of a dimension
	// filter's or mask's join; -1 on the leg's table. group is a disjunction's
	// candidate-attachment id.
	join, group int
	// sel is the selectivity estimate and src where it came from — a probe's
	// is its dimension's live fraction. est is the estimated output rows: the
	// running estimate over the live base rows after the operator, -1 once a
	// link had no statistics. Only a conjunct or a disjunction narrows it; a
	// probe and the mask carry it through.
	sel float64
	src estSource
	est int64
}

// selects reports whether the operator is a conjunct or a disjunction: the
// operators whose selectivity narrows the running estimate.
func (op *legOp) selects() bool { return op.kind == opFilter || op.kind == opOr }

// estText renders the operator's estimate for \explain; rel qualifies the
// selectivity ("<= " for a disjunction's bound).
func (op *legOp) estText(rel string) string {
	if op.est < 0 {
		return " est=n/a (no stats)"
	}
	return fmt.Sprintf(" (est sel %s%s, est=%d rows)", rel, pctText(op.sel), op.est)
}

// buildLeg assembles one leg's plan (table names the leg) against the
// snapshot it is priced at: its operator list — the conjuncts, the
// disjunction groups, the deletion mask, then per join its probe, the
// dimension's deletion mask and its dimension filters — with every
// operator's estimates. A classic leg keeps
// the written order: the bulk engine predates the statistics and keeps them
// only for \explain. An A&R leg is cost-ordered, the optimizer of §III-A with
// real statistics: conjuncts, fact-side and per join dimension-side, run in
// order of estimated selectivity, so the most selective scans shrink the
// candidate set before the more expensive operators run, and the joins in
// order of their whole survival fraction. FK probes are n:1 and
// order-preserving, so the result bytes are identical for every order; only
// the intermediate cardinalities shrink sooner.
func buildLeg(plan *Plan, table string, snap *execSnap, classic bool) *legPlan {
	pl := &legPlan{Plan: plan, q: plan.q, classic: classic}
	pl.q.Table = table
	q := &pl.q
	pl.resident = snap.resident(q)
	n := len(q.Filters) + len(q.Or) + 1
	for _, j := range q.Joins {
		n += 2 + len(j.DimFilters)
	}
	ops := appendFilters(make([]legOp, 0, n), snap, table, -1, q.Filters, classic)
	for i, g := range q.Or {
		sel, src := estimateOrSelectivity(snap, g)
		ops = append(ops, legOp{kind: opOr, table: table, text: orGroupText(table, g), filters: g, join: -1, group: i + 1, sel: sel, src: src})
	}
	ops = append(ops, legOp{kind: opMask, table: table, join: -1})
	joins := q.Joins
	if !classic && len(joins) > 1 {
		// A join's ordering key is its whole survival fraction: probe
		// survival times the dimension filters' combined selectivity.
		joins = slices.Clone(joins)
		key := func(j JoinSpec) float64 { k, _ := estimateJoinSel(snap, j); return k }
		sort.SliceStable(joins, func(a, b int) bool { return key(joins[a]) < key(joins[b]) })
	}
	for _, j := range joins {
		ji := q.joinsDim(j.Dim)
		probe := legOp{kind: opProbe, table: table, text: j.FKCol + " -> " + j.Dim, join: ji, sel: 1, src: estRowCount}
		if ds := snap.snapFor(j.Dim); ds.BaseLen() > 0 {
			probe.sel = float64(ds.LiveBase()) / float64(ds.BaseLen())
		}
		ops = append(ops, probe, legOp{kind: opMask, table: j.Dim, dim: j.Dim, join: ji})
		ops = appendFilters(ops, snap, j.Dim, ji, j.DimFilters, classic)
	}
	// The running estimate starts at the live base rows, the partition line's
	// (Describe) at every live row; one estimate-free link poisons the rest.
	est := float64(snap.fact.LiveBase())
	all := est + float64(snap.fact.LiveDelta())
	for i := range ops {
		op := &ops[i]
		if op.selects() && op.src == estNone {
			est = -1
		} else if op.selects() && est >= 0 {
			est *= op.sel
			all *= op.sel
		}
		op.est = -1
		if est >= 0 {
			op.est = int64(est + 0.5)
		}
	}
	pl.ops, pl.estAll = ops, -1
	if est >= 0 {
		pl.estAll = int64(all + 0.5)
	}
	return pl
}

// appendFilters appends the conjuncts of one table — a dimension's for join
// >= 0 — to ops, each with its selectivity estimate; a column without a
// decomposition has none (estNone, `est=n/a` in \explain). Unless classic
// they are sorted by it.
func appendFilters(ops []legOp, snap *execSnap, table string, join int, filters []Filter, classic bool) []legOp {
	dim := ""
	if join >= 0 {
		dim = table
	}
	start := len(ops)
	for i, f := range filters {
		sel, src := estimateSelectivity(snap.get(dim, f.Col), f)
		ops = append(ops, legOp{kind: opFilter, table: table, text: f.Col, dim: dim, filters: filters[i : i+1], join: join, sel: sel, src: src})
	}
	if rs := ops[start:]; !classic && len(rs) > 1 {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].sel < rs[j].sel })
	}
	return ops
}

// estCand is the leg's estimate of its candidate rows: the running estimate
// after its last operator (the list always holds the mask), -1 when unknown.
func (pl *legPlan) estCand() int64 { return pl.ops[len(pl.ops)-1].est }

// phase is one pass over a leg's operator list (walk).
type phase uint8

const (
	// phaseApprox is A&R's phase A on the device: each operator narrows the
	// candidate set over the packed codes — a range attaches its column with
	// its relaxed range — and is charged as a GPU kernel.
	phaseApprox phase = iota
	// phaseRefine is phase R on the CPU: each range narrows phase A's set
	// again by code and residual (bwd.Exactly), except over a fully resident
	// column, where the relaxed range was the predicate.
	phaseRefine
	// phaseBase is the classic selection over the base segment's exact
	// values, billed and listed as the bulk model's operators (DESIGN.md §7).
	phaseBase
	// phaseDelta is the classic selection over the delta segment, neither
	// billed nor listed: scanDelta bills the segment once.
	phaseDelta
)

// phaseStage is the stage each phase checkpoints in.
var phaseStage = [...]Stage{phaseApprox: StageApprox, phaseRefine: StageRefine, phaseBase: StageBulk, phaseDelta: StageDelta}

// opFmts is each operator's listing per phase (obs.Op: A its table, B its
// text); an empty format lists nothing.
var opFmts = [...][5]string{
	phaseApprox: {opFilter: "bwd.uselectapproximate(%[1]s.%[2]s)", opOr: "bwd.uselectanyapproximate(%[2]s)", opMask: opMaskDeleted, opProbe: opProjectApprox, opScan: "bwd.scanapproximate(%[1]s.%[2]s)"},
	phaseRefine: {opFilter: "bwd.uselectrefine(%[1]s.%[2]s)", opOr: "bwd.uselectanyrefine(%[2]s)", opProbe: "bwd.leftjoinrefine(%[1]s.%[2]s)"},
	phaseBase:   {opFilter: "algebra.uselect(%[1]s.%[2]s)", opOr: "algebra.uselectany(%[2]s)", opMask: "algebra.maskdeleted(%[1]s)", opProbe: "algebra.leftjoin(%[1]s.%[2]s)", opScan: "algebra.scan(%[1]s)"},
	phaseDelta:  {},
}

// checkpoint reports whether phase ph passes a checkpoint before op (besides
// the one a walk that makes its set starts with).
func (ph phase) checkpoint(op *legOp) bool {
	switch ph {
	case phaseRefine:
		return op.selects()
	case phaseDelta:
		return false
	}
	return op.kind == opOr || op.kind == opProbe || op.kind == opFilter && op.join < 0
}

// walk is the selection of one segment of the leg in phase ph: every operator
// of the list, in order, narrowing one survivor set in row order — a mask, no
// id list passes between them — and billed by bill once it ran. A walk that
// starts without a set (every phase but phaseRefine, which narrows phase A's
// in place) makes it with the first operator that can — a conjunct, or on the
// device a disjunction — or else with a scan of every row (scanAll), and
// releases it if it fails. A probe stores its join's key in keys, aligned with
// the query's joins: a dimension's mask and filters, and phase R's refinement
// of them, read their column through it.
func (pl pipeline) walk(st *pipeState, ph phase, set *ar.Candidates, keys []bwd.Key) (out *ar.Candidates, err error) {
	q, snap, pp := &pl.q, pl.snap, st.pp
	fact := snap.fact
	rows, deleted, dead := fact.BaseLen(), fact.DeletedWords(), fact.BaseDeletedCount()
	if ph == phaseDelta {
		rows, deleted, dead = fact.DeltaLen(), fact.DeltaDeletedWords(), fact.DeltaLen()-fact.LiveDelta()
	}
	if set == nil {
		if err := st.step(phaseStage[ph]); err != nil {
			return nil, err
		}
		defer func() {
			if err != nil {
				out.Release()
				out = nil
			}
		}()
	}
	for i := range pl.ops {
		op := &pl.ops[i]
		if set == nil && op.kind != opFilter && (op.kind != opOr || ph != phaseApprox) {
			if set, err = pl.scanAll(st, ph, rows); err != nil {
				return set, err
			}
		}
		if set != nil && ph.checkpoint(op) {
			if err := st.step(phaseStage[ph]); err != nil {
				return set, err
			}
		}
		in := -1
		if set != nil {
			in = set.Len()
		}
		switch op.kind {
		case opFilter:
			f, dim := op.filters[0], op.dim
			key := pl.keyFor(keys, dim)
			switch ph {
			case phaseApprox:
				d := snap.get(dim, f.Col)
				if set == nil {
					set = ar.SelectApprox(d, d.Relax(f.Lo, f.Hi))
				} else {
					set = ar.SelectApproxOver(d, key, d.Relax(f.Lo, f.Hi), set)
				}
			case phaseRefine:
				// §IV-C: over a fully device-resident column the relaxed range
				// was the exact predicate and the candidates are the result — no
				// refinement runs (and none is charged).
				if d := snap.get(dim, f.Col); d.Dec.ResBits > 0 {
					err = ar.SelectRefine(pp, d, key, f.Lo, f.Hi, set)
				}
			default:
				c, cerr := pl.column(ph, ColRef{Dim: dim, Name: f.Col})
				if cerr != nil {
					return set, cerr
				}
				if set == nil { // a full scan of the column
					set, err = ar.SelectExact(pp, rows, c.exactly(f.Lo, f.Hi))
				} else { // the column gathered at the survivors, or a dimension's at the joined positions, and filtered
					err = set.Narrow(pp, c.exactly(f.Lo, f.Hi).Through(key))
				}
			}
		case opOr:
			var sc orScratch
			switch ph {
			case phaseApprox:
				cols, rs, _, _ := pl.orGroupRelax(op.filters, &sc)
				if set == nil {
					set = ar.SelectApproxAny(cols, rs, op.group)
				} else {
					set = ar.SelectApproxAnyOver(cols, rs, set, op.group)
				}
			case phaseRefine:
				cols, _, los, his := pl.orGroupRelax(op.filters, &sc)
				err = ar.SelectRefineAny(pp, cols, los, his, set)
			default:
				// The bulk operator fetches each disjunct column at the
				// survivors and filters them in one fully-materializing pass.
				ds := sc.ds[:0]
				for _, f := range op.filters {
					c, cerr := pl.column(ph, ColRef{Name: f.Col})
					if cerr != nil {
						return set, cerr
					}
					ds = append(ds, c.exactly(f.Lo, f.Hi))
				}
				err = set.Narrow(pp, ds...)
			}
		case opMask:
			// An AND-NOT of a deletion bitmap into the mask, so the phase-A answer
			// bounds the live rows: the leg's table's, and on the device after a
			// probe its dimension's through the key (the host's probe drops a
			// deleted partner itself). Phase R has nothing left to drop.
			if op.join < 0 {
				if ph == phaseRefine || dead == 0 {
					continue
				}
				set.MaskOut(deleted)
				break
			}
			ds := snap.snapFor(op.dim)
			if ph != phaseApprox || ds.BaseDeletedCount() == 0 {
				continue
			}
			set.MaskOutJoined(&keys[op.join], ds.DeletedWords())
		case opProbe:
			spec, key := q.Joins[op.join], &keys[op.join]
			switch ph {
			case phaseApprox:
				*key = snap.joinKey(spec, snap.get("", spec.FKCol), nil)
				_, err = ar.JoinApprox(key, set)
			case phaseBase, phaseDelta:
				// The key fetched and probed in the pre-built index; a deleted
				// dimension row drops its keys in the same pass.
				fk, cerr := pl.column(ph, ColRef{Name: spec.FKCol})
				if cerr != nil {
					return set, cerr
				}
				*key = snap.joinKey(spec, fk.col, fk.vals)
				err = set.Narrow(pp, key.Joined(snap.snapFor(spec.Dim).DeletedWords()))
			}
		}
		if err != nil {
			return set, err
		}
		pl.done(st, ph, op, in, set)
	}
	return set, nil
}

// scanAll makes the survivor set of a walk whose list has no operator that
// can: every row of the segment — on the device the full scan of the anchor
// column's codes (anchorColumn).
func (pl pipeline) scanAll(st *pipeState, ph phase, rows int) (*ar.Candidates, error) {
	op := legOp{kind: opScan, table: pl.q.Table, join: -1}
	var set *ar.Candidates
	if ph == phaseApprox {
		anchor, ok := pl.q.anchorColumn()
		if !ok {
			return nil, fmt.Errorf("plan: query references no fact columns")
		}
		op.text = anchor
		set = ar.SelectApprox(pl.snap.get("", anchor), bwd.ApproxRange{Full: true})
	} else {
		set, _ = ar.SelectExact(st.pp, rows)
	}
	pl.done(st, ph, &op, -1, set)
	return set, nil
}

// done bills operator op of phase ph, which narrowed in survivors to set's
// (in < 0: made set), and lists it with its estimate, if it selects.
func (pl pipeline) done(st *pipeState, ph phase, op *legOp, in int, set *ar.Candidates) {
	pl.bill(st.m, st.pp, ph, op, in, set.Len())
	if f := opFmts[ph][op.kind]; f != "" {
		est := int64(-1)
		if op.selects() {
			est = op.est
		}
		st.emit(set.Len(), est, obs.Op{Fmt: f, A: op.table, B: op.text})
	}
}

// bill charges m for operator op of phase ph, which narrowed in survivors to
// out, or made the set from every row of the segment (in < 0): the operator's
// bill in the execution model, keyed by phase and kind, from those counts and
// the shapes of the columns it reads (DESIGN.md §7) — on the device a GPU
// kernel over the packed codes, in phase R the refinement that ran, in the
// classic selection the bulk model's operator, whatever the host skipped. The
// delta's operators bill nothing: scanDelta bills the segment (chargeDelta).
func (pl pipeline) bill(m *device.Meter, pp par.P, ph phase, op *legOp, in, out int) {
	snap, threads, keyed := pl.snap, pp.NThreads(), op.kind == opFilter && op.join >= 0
	var buf [4]*bwd.Column
	cols := buf[:0] // the columns a conjunct or a disjunction reads
	for _, f := range op.filters {
		cols = append(cols, snap.get(op.dim, f.Col))
	}
	masked := int64(snap.snapFor(op.dim).BaseLen()+7) / 8 // a mask's deletion bitmap
	switch k := op.kind; {
	case ph == phaseApprox && k == opScan:
		ar.ChargeSelectApprox(m, out, snap.get("", op.text))
	case ph == phaseApprox && k == opMask:
		m.GPUKernel(int64(in)*4+masked, 0, int64(in))
	case ph == phaseApprox && k == opProbe:
		ar.ChargeJoinApprox(m, snap.get("", pl.q.Joins[op.join].FKCol), in)
	case ph == phaseApprox && in < 0:
		ar.ChargeSelectApprox(m, out, cols...)
	case ph == phaseApprox:
		ar.ChargeSelectApproxOver(m, keyed, in, out, cols...)
	case ph == phaseRefine && k == opFilter:
		ar.ChargeSelectRefine(pp, m, cols[0], keyed, in, out)
	case ph == phaseRefine && k == opOr:
		ar.ChargeSelectRefineAny(pp, m, false, in, out, cols...)
	case ph != phaseBase:
	case k == opScan:
		m.CPUWork(threads, int64(out)*4, 0, int64(out))
	case k == opMask:
		m.CPUWork(threads, int64(in)*8+masked, 0, int64(in))
	case k == opProbe: // the key fetched and probed in the index
		fk, _ := pl.column(ph, ColRef{Name: pl.q.Joins[op.join].FKCol})
		bulk.ChargeFetch(pp, m, fk.width, fk.rows, in)
		bulk.ChargeFKJoin(pp, m, in)
	case k == opOr: // each column fetched at the survivors, one pass over all
		for _, f := range op.filters {
			c, _ := pl.column(ph, ColRef{Name: f.Col})
			bulk.ChargeFetch(pp, m, c.width, c.rows, in)
		}
		n := int64(in) * int64(len(op.filters))
		m.CPUWork(threads, n*8, 0, n)
	default: // a conjunct: a full scan, an id-list filter, or a dimension fetch and filter
		c, _ := pl.column(ph, ColRef{Dim: op.dim, Name: op.filters[0].Col})
		switch {
		case in < 0:
			bulk.ChargeSelectRange(pp, m, c.width, c.rows, out)
		case op.join < 0:
			bulk.ChargeSelectOIDs(pp, m, c.width, c.rows, in, out)
		default:
			bulk.ChargeFetch(pp, m, c.width, c.rows, in)
			m.CPUWork(threads, int64(in)*8, 0, int64(in))
		}
	}
}
