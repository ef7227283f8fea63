package plan

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/ar"
	"repro/internal/bulk"
	"repro/internal/bwd"
	"repro/internal/obs"
)

// opKind is what one operator of a leg's list does to its survivor set.
type opKind uint8

const (
	opFilter opKind = iota // a conjunct: one range on a column of the leg's table or of a dimension
	opOr                   // a disjunction group: the union of its ranges on the leg's columns
	opMask                 // the leg's deleted rows
	opProbe                // an FK probe, which drops a key without a live partner in the dimension
)

// legOp is one operator of a leg's list (legPlan.ops), estimated once where
// the leg is priced.
type legOp struct {
	kind opKind
	// table is what the operator lists as its table — a dimension filter's
	// dimension, the leg's table otherwise — and text its argument: the
	// filtered column, a disjunction's columns ("t.a|t.b"), a probe's "fk ->
	// dim".
	table, text string
	// filters is a conjunct's range or a disjunction's ranges.
	filters []Filter
	// join is the position in the query's joins of a probe, or of a dimension
	// filter's join; -1 on the leg's table. group is a disjunction's
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
// disjunction groups, the deletion mask, then per join its probe and its
// dimension filters — with every operator's estimates. A classic leg keeps
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
		n += 1 + len(j.DimFilters)
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
		ops = appendFilters(append(ops, probe), snap, j.Dim, ji, j.DimFilters, classic)
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
		ops = append(ops, legOp{kind: opFilter, table: table, text: f.Col, filters: filters[i : i+1], join: join, sel: sel, src: src})
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
var opFmts = [...][4]string{
	phaseApprox: {opFilter: "bwd.uselectapproximate(%[1]s.%[2]s)", opOr: "bwd.uselectanyapproximate(%[2]s)", opMask: opMaskDeleted, opProbe: opProjectApprox},
	phaseRefine: {opFilter: "bwd.uselectrefine(%[1]s.%[2]s)", opOr: "bwd.uselectanyrefine(%[2]s)", opProbe: "bwd.leftjoinrefine(%[1]s.%[2]s)"},
	phaseBase:   {opFilter: "algebra.uselect(%[1]s.%[2]s)", opOr: "algebra.uselectany(%[2]s)", opMask: "algebra.maskdeleted(%[1]s)", opProbe: "algebra.leftjoin(%[1]s.%[2]s)"},
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
// id list passes between them. A walk that starts without a set (every phase
// but phaseRefine, which narrows phase A's in place) makes it with the first
// operator that can — a conjunct, or on the device a disjunction — or else
// with a scan of every row (scanAll), and releases it if it fails. A probe
// stores its join's key in keys, aligned with the query's joins: a dimension
// filter, and phase R's refinement of it, read their column through it.
func (pl pipeline) walk(st *pipeState, ph phase, set *ar.Candidates, keys []bwd.Key) (out *ar.Candidates, err error) {
	q, snap, pp, m := &pl.q, pl.snap, st.pp, st.m
	fact := snap.fact
	rows, deleted, dead := fact.BaseLen(), fact.DeletedWords(), fact.BaseDeletedCount()
	if ph == phaseDelta {
		m, rows, deleted, dead = nil, fact.DeltaLen(), fact.DeltaDeletedWords(), fact.DeltaLen()-fact.LiveDelta()
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
		in := 0
		if set != nil {
			in = set.Len()
		}
		switch op.kind {
		case opFilter:
			f, dim := op.filters[0], ""
			if op.join >= 0 {
				dim = op.table
			}
			key := pl.keyFor(keys, dim)
			switch ph {
			case phaseApprox:
				d := snap.get(dim, f.Col)
				if set == nil {
					set = ar.SelectApprox(m, d, d.Relax(f.Lo, f.Hi))
				} else {
					set = ar.SelectApproxOver(m, d, key, d.Relax(f.Lo, f.Hi), set)
				}
			case phaseRefine:
				// §IV-C: over a fully device-resident column the relaxed range
				// was the exact predicate and the candidates are the result — no
				// refinement runs (and none is charged).
				if d := snap.get(dim, f.Col); d.Dec.ResBits > 0 {
					err = ar.SelectRefine(pp, m, d, key, f.Lo, f.Hi, set)
				}
			default:
				c, cerr := pl.column(ph, ColRef{Dim: dim, Name: f.Col})
				if cerr != nil {
					return set, cerr
				}
				switch {
				case set == nil: // a full scan of the column
					if set, err = ar.SelectExact(pp, rows, c.exactly(f.Lo, f.Hi)); err == nil {
						bulk.ChargeSelectRange(pp, m, c.width, c.rows, set.Len())
					}
				case key == nil: // the column gathered at the survivors and filtered
					if err = set.Narrow(pp, c.exactly(f.Lo, f.Hi)); err == nil {
						bulk.ChargeSelectOIDs(pp, m, c.width, c.rows, in, set.Len())
					}
				default: // a dimension column fetched at the joined positions and filtered
					if err = set.Narrow(pp, c.exactly(f.Lo, f.Hi).Through(key)); err == nil && m != nil {
						bulk.ChargeFetch(pp, m, c.width, c.rows, in)
						m.CPUWork(pp.NThreads(), int64(in)*8, 0, int64(in))
					}
				}
			}
		case opOr:
			switch ph {
			case phaseApprox:
				cols, rs, _, _ := pl.orGroupRelax(op.filters)
				if set == nil {
					set = ar.SelectApproxAny(m, cols, rs, op.group)
				} else {
					set = ar.SelectApproxAnyOver(m, cols, rs, set, op.group)
				}
			case phaseRefine:
				cols, _, los, his := pl.orGroupRelax(op.filters)
				err = ar.SelectRefineAny(pp, m, cols, los, his, set)
			default:
				// The bulk operator fetches each disjunct column at the
				// survivors and filters them in one fully-materializing pass.
				ds := make([]bwd.Disjunct, len(op.filters))
				for k, f := range op.filters {
					c, cerr := pl.column(ph, ColRef{Name: f.Col})
					if cerr != nil {
						return set, cerr
					}
					ds[k] = c.exactly(f.Lo, f.Hi)
					bulk.ChargeFetch(pp, m, c.width, c.rows, in)
				}
				if err = set.Narrow(pp, ds...); err == nil && m != nil {
					n := int64(in) * int64(len(ds))
					m.CPUWork(pp.NThreads(), n*8, 0, n)
				}
			}
		case opMask:
			// One pass over the survivors: on the device an AND-NOT of the
			// deletion bitmap, which DELETE mirrors there, into the mask, so
			// the phase-A answer stays a strict bound over the live rows; phase
			// R has nothing left to drop.
			if ph == phaseRefine || dead == 0 {
				continue
			}
			set.MaskOut(deleted)
			if ph == phaseApprox {
				m.GPUKernel(int64(in)*4+int64(rows+7)/8, 0, int64(in))
			} else if m != nil {
				m.CPUWork(pp.NThreads(), int64(in)*8+int64(rows+7)/8, 0, int64(in))
			}
		case opProbe:
			spec, key := q.Joins[op.join], &keys[op.join]
			switch ph {
			case phaseApprox:
				*key = snap.joinKey(spec, snap.get("", spec.FKCol), nil)
				_, err = ar.JoinApprox(m, key, set)
			case phaseBase, phaseDelta:
				// The key fetched and probed in the pre-built index; a deleted
				// dimension row drops its keys in the same pass.
				fk, cerr := pl.column(ph, ColRef{Name: spec.FKCol})
				if cerr != nil {
					return set, cerr
				}
				*key = snap.joinKey(spec, fk.dec, fk.vals)
				if err = set.Narrow(pp, key.Joined(snap.snapFor(spec.Dim).DeletedWords())); err == nil {
					bulk.ChargeFetch(pp, m, fk.width, fk.rows, in)
					bulk.ChargeFKJoin(pp, m, in)
				}
			}
		}
		if err != nil {
			return set, err
		}
		if f := opFmts[ph][op.kind]; f != "" {
			est := int64(-1)
			if op.selects() {
				est = op.est
			}
			st.emit(set.Len(), est, obs.Op{Fmt: f, A: op.table, B: op.text})
		}
		if op.kind != opProbe || ph != phaseApprox {
			continue
		}
		// On the device the dimension's deleted rows leave the set after the
		// probe, read through its key.
		if ds := snap.snapFor(q.Joins[op.join].Dim); ds.BaseDeletedCount() > 0 {
			n := set.Len()
			set.MaskOutJoined(&keys[op.join], ds.DeletedWords())
			m.GPUKernel(int64(n)*4+int64(ds.BaseLen()+7)/8, 0, int64(n))
			st.emit(set.Len(), -1, obs.Op{Fmt: opMaskDeleted, A: q.Joins[op.join].Dim})
		}
	}
	return set, nil
}

// scanAll makes the survivor set of a walk whose list has no operator that
// can: every row of the segment — on the device the full scan of the anchor
// column's codes (anchorColumn).
func (pl pipeline) scanAll(st *pipeState, ph phase, rows int) (*ar.Candidates, error) {
	if ph == phaseApprox {
		anchor, ok := pl.q.anchorColumn()
		if !ok {
			return nil, fmt.Errorf("plan: query references no fact columns")
		}
		d := pl.snap.get("", anchor)
		set := ar.SelectApprox(st.m, d, bwd.ApproxRange{Full: true})
		st.emit(set.Len(), -1, obs.Op{Fmt: "bwd.scanapproximate(%[1]s.%[2]s)", A: pl.q.Table, B: anchor})
		return set, nil
	}
	set, _ := ar.SelectExact(st.pp, rows)
	if ph == phaseBase {
		st.m.CPUWork(st.pp.NThreads(), int64(set.Len())*4, 0, int64(set.Len()))
		st.emit(set.Len(), -1, obs.Op{Fmt: "algebra.scan(%[1]s)", A: pl.q.Table})
	}
	return set, nil
}
