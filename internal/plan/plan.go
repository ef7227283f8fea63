// The planner's one entry point. Plan does what depends on the query alone,
// once: shape checks, the compiled aggregate program, the columns touched.
// Pin does what depends on the data: it pins the snapshots of the table's
// legs and — only when one is not at the epoch the plan was last priced at —
// prices the scan strategy and cost-orders filters and joins per leg. The
// priced part is immutable, snapshot-free and swapped in atomically, so a
// cached Plan run again over unchanged tables pins, compares epochs and goes
// straight to the scan; \explain, \explain analyze and the executor all
// read that same object.
package plan

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/ar"
	"repro/internal/bwd"
	"repro/internal/shard"
	"repro/internal/store"
)

// Mode is how a statement's scan strategy is settled: priced per query and
// per leg by the cost model (auto, the default), or forced to one executor
// by operators and tests that need a specific one.
type Mode int

const (
	ModeAuto    Mode = iota // cost-based choice from statistics
	ModeAR                  // force the A&R scan (errors if not decomposed)
	ModeClassic             // force the classic scan
)

func (m Mode) String() string { return [...]string{"auto", "ar", "classic"}[m] }

// Plan is the executable form of one statement under one mode: immutable
// but for the priced part, which Pin replaces when the data moved. It holds
// epochs, never snapshots, so a cached Plan keeps no table version alive.
type Plan struct {
	q    Query
	mode Mode
	prog *program // the compiled aggregates (expr.go), shared by every leg
	// cols lists every (table, column) the statement touches, once; an
	// execution's decompositions align with it. proj and projKeys are the
	// ones whose exact values the shared tail needs — aggregate inputs, and
	// with the grouping keys — as the A&R scan projects them; tail and
	// tailKeys the same, sorted (sortedRefs).
	cols, proj, projKeys, tail, tailKeys []ColRef
	// noAnchor is why the statement can never run A&R, whatever the data.
	noAnchor error
	// For the plan listing: the rendered GROUP BY and ORDER BY lists, and
	// how many operators one leg records.
	groupText, orderText string
	nOps                 int

	priced atomic.Pointer[pricing]
}

// pricing is everything about a plan that depends on the data.
type pricing struct {
	// stamp is the version of every leg table in leg order, then of every
	// joined dimension, that the pricing was computed from.
	stamp []epochStamp
	// legs holds one assembled pipeline per leg table; nil for a partition
	// the filters prune.
	legs []*legPlan
	// choice is the statement-level decision: the mode the shared tail
	// follows, with the costing behind it under auto.
	choice ModeChoice
}

// epochStamp identifies one version of one table: its creation identity
// and its data epoch.
type epochStamp struct{ schema, data uint64 }

func stampOf(s *store.Snapshot) epochStamp {
	return epochStamp{s.Table().SchemaEpoch(), s.Epoch}
}

// Pinned is one execution of a Plan about to run: the snapshots pinned for
// it and the pricing that matches them. It is run (or described) once.
type Pinned struct {
	pl   *Plan
	pr   *pricing
	p    *shard.Partitioned // nil for a plain table
	legs []leg              // the legs that survive pruning
}

// Mode returns the mode the plan was built under.
func (x *Pinned) Mode() Mode { return x.pl.mode }

// Choice returns the statement-level scan-strategy decision: the cost
// model's under auto, the forced mode otherwise.
func (x *Pinned) Choice() ModeChoice { return x.pr.choice }

// ARLegs returns how many of the pinned legs scan A&R: the device streams
// the execution will ask its ExecOpts.Gate for.
func (x *Pinned) ARLegs() int {
	n := 0
	for i := range x.legs {
		if !x.legs[i].pl.classic {
			n++
		}
	}
	return n
}

// Plan validates the query's shape and builds its plan under mode. Nothing
// here looks at a table: the first Pin prices it.
func (c *Catalog) Plan(q Query, mode Mode) (*Plan, error) {
	if err := q.checkShape(); err != nil {
		return nil, err
	}
	pl := &Plan{q: q, mode: mode, prog: compileAggs(q.Aggs), cols: make([]ColRef, 0, 4)}
	for i, j := range q.Joins {
		if j.Dim == q.Table {
			return nil, fmt.Errorf("plan: table %s cannot join itself as a dimension", q.Table)
		}
		if q.joinsDim(j.Dim) != i {
			return nil, fmt.Errorf("plan: dimension table %s joined twice", j.Dim)
		}
	}
	err := q.walkCols(func(ref ColRef) error {
		if ref.IsDim() && q.joinsDim(ref.Dim) < 0 {
			return fmt.Errorf("plan: dimension column %s.%s referenced without joining %s", ref.Dim, ref.Name, ref.Dim)
		}
		if !slices.Contains(pl.cols, ref) {
			pl.cols = append(pl.cols, ref)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(q.Filters) == 0 && len(q.Or) == 0 {
		// The approximation subplan needs a fact-side column to scan.
		if _, ok := q.anchorColumn(); !ok {
			pl.noAnchor = fmt.Errorf("plan: A&R plan needs a fact-side column to scan (add a filter, grouping, or fact-column aggregate)")
		}
	}
	pl.proj, pl.projKeys = tailCols(&q, false), tailCols(&q, true)
	pl.tail, pl.tailKeys = sortedRefs(pl.proj), sortedRefs(pl.projKeys)
	pl.groupText = strings.Join(q.GroupBy, ",")
	pl.orderText = describeOrder(&q)
	// Filtered, probed, projected and aggregated columns are each listed by
	// the approximate phase and by the refine phase; the constant covers the
	// singletons (masks, delta scan, ship, group, having, order).
	pl.nOps = 6 + 2*(len(pl.cols)+len(pl.projKeys)+len(q.Aggs)) + len(q.Joins)
	c.plans.Add(1)
	return pl, nil
}

// Pin begins one execution of the plan: it resolves the table's legs, pins
// their snapshots — under the statement fence when there are several, so no
// multi-partition INSERT or DELETE is seen in part — and the joined
// dimensions' (isolation is per execution) and compares their epochs with
// the ones the plan was priced at. Unchanged, the execution reuses the
// pricing as it stands — no selectivity is estimated, nothing is ordered or
// compiled. Moved (or never priced), the plan is priced against the
// snapshots just pinned and the result swapped in for later executions.
func (c *Catalog) Pin(pl *Plan) (*Pinned, error) {
	tables, p, err := c.legs(pl.q.Table)
	if err != nil {
		return nil, err
	}
	var dims []*store.Snapshot
	for _, j := range pl.q.Joins {
		dim, err := c.Table(j.Dim)
		if err != nil {
			return nil, err
		}
		dims = append(dims, dim.Snapshot())
	}
	x := &Pinned{pl: pl, pr: pl.priced.Load(), p: p, legs: make([]leg, len(tables))}
	for i := range tables {
		x.legs[i] = leg{idx: i, pl: pipeline{snap: &execSnap{pl: pl, dims: dims}}}
	}
	// The statement fence, around the snapshot loads and nothing else: a
	// multi-partition INSERT or DELETE publishes leg by leg under it, so
	// these N versions hold all of such a statement or none of it.
	if len(tables) > 1 {
		p.Fence.RLock()
	}
	for i, t := range tables {
		x.legs[i].pl.snap.fact = t.Snapshot()
	}
	if len(tables) > 1 {
		p.Fence.RUnlock()
	}
	fresh := x.pr != nil && len(x.pr.stamp) == len(tables)+len(dims)
	for i := range x.legs {
		snap := x.legs[i].pl.snap
		snap.resolve()
		fresh = fresh && x.pr.stamp[i] == stampOf(snap.fact)
	}
	for i, ds := range dims {
		fresh = fresh && x.pr.stamp[len(tables)+i] == stampOf(ds)
	}
	if !fresh {
		if x.pr != nil {
			c.replans.Add(1)
		}
		if x.pr, err = c.price(pl, p, x.legs, dims); err != nil {
			return nil, err
		}
		pl.priced.Store(x.pr)
	}
	// Only the legs pruning keeps are scanned.
	kept := x.legs[:0]
	for _, lg := range x.legs {
		if lg.pl.legPlan = x.pr.legs[lg.idx]; lg.pl.legPlan != nil {
			kept = append(kept, lg)
		}
	}
	x.legs = kept
	return x, nil
}

// price validates the statement against the pinned versions, settles each
// leg's scan mode and assembles its pipeline. A leg scans classically when
// the statement is classic, when it cannot run A&R (e.g. an empty,
// undecomposed partition) — the shared tail merges its byte-identical
// partial like any other — or, under auto, when the cost model prices the
// leg's own statistics cheaper that way. Capability and the statement-level
// choice are judged over the whole table, pruned partitions included, so
// pruning never turns a runnable query into an error. Joins require the
// dimension side to be delta-free: the FK index and the join positions
// address the dimension base segment, so freshly inserted dimension rows
// must be merged before they are joinable. And they require the FK index, in
// every mode: a join is key − base (execSnap.joinKey), which is the join only
// over a dense key, and the index is where the store verifies that.
func (c *Catalog) price(pl *Plan, p *shard.Partitioned, legs []leg, dims []*store.Snapshot) (*pricing, error) {
	q := &pl.q
	for i, ds := range dims {
		dim := q.Joins[i].Dim
		if n := ds.DeltaLen(); n > 0 {
			return nil, fmt.Errorf("plan: dimension table %s has %d unmerged delta rows; run \\merge %s (Catalog.MergeTable) before joining", dim, n, dim)
		}
		if ds.BaseLen() == 0 {
			return nil, fmt.Errorf("plan: dimension table %s is empty; load it before joining", dim)
		}
		if pk := q.Joins[i].DimPK; ds.FKIndex(pk) == nil {
			return nil, fmt.Errorf("plan: no FK index on %s.%s; call BuildFKIndex first", dim, pk)
		}
	}
	var keep []bool
	if p != nil {
		keep = prunePartitions(*q, p.Spec)
	}
	pr := &pricing{legs: make([]*legPlan, len(legs))}
	choices := make([]ModeChoice, len(legs))
	var arErr error
	favor, est := 0, int64(0)
	for i := range legs {
		snap := legs[i].pl.snap
		table := snap.fact.Table().Name()
		pr.stamp = append(pr.stamp, stampOf(snap.fact))
		legErr, err := snap.check(table)
		if err != nil {
			return nil, err
		}
		if (keep == nil || keep[i]) && arErr == nil {
			arErr = legErr // the first scanned leg's
		}
		switch {
		case pl.mode == ModeClassic || legErr != nil:
			choices[i] = ModeChoice{Classic: true, EstCandidates: -1}
		case pl.mode == ModeAuto:
			choices[i] = chooseSnap(c.sys, q, snap)
		}
		if !choices[i].Classic {
			favor++
			est += choices[i].EstCandidates
		}
	}
	for _, ds := range dims {
		pr.stamp = append(pr.stamp, stampOf(ds))
	}
	switch {
	case pl.mode == ModeAR && favor == 0:
		return nil, arErr
	case pl.mode != ModeAuto:
		pr.choice = ModeChoice{Classic: pl.mode == ModeClassic, EstCandidates: -1}
	case p == nil && arErr != nil:
		pr.choice = ModeChoice{Classic: true, EstCandidates: -1, why: "a&r unavailable: %v", figures: []any{arErr}}
	case p == nil:
		pr.choice = choices[0]
	case favor == 0:
		pr.choice = ModeChoice{Classic: true, EstCandidates: -1, why: "no partition leg favors a&r"}
	default:
		pr.choice = ModeChoice{EstCandidates: est, why: "%d of %d partition legs favor a&r", figures: []any{favor, p.Spec.N}}
	}
	for i := range legs {
		if keep == nil || keep[i] {
			snap := legs[i].pl.snap
			pr.legs[i] = buildLeg(pl, snap.fact.Table().Name(), snap, pr.choice.Classic || choices[i].Classic)
		}
	}
	return pr, nil
}

// execSnap is the set of table versions one leg's execution works against:
// the fact (and every joined dimension) store snapshot, pinned exactly once
// at statement start, plus the resolved decompositions of every column the
// statement touches. A&R operators key candidate code columns on bwd.Column
// pointer identity, so the approximate and refine phases must see the same
// pointer even if a concurrent merge or bwdecompose swaps the table version
// mid-query — pinning the snapshot guarantees exactly that, and makes the
// whole read snapshot isolated against concurrent DML.
type execSnap struct {
	pl   *Plan
	fact *store.Snapshot
	dims []*store.Snapshot // aligned with the query's joins, shared by the legs
	decs []*bwd.Column     // aligned with pl.cols; nil where not decomposed
}

// resolve looks up the decompositions of one leg's pinned versions.
func (s *execSnap) resolve() {
	s.decs = make([]*bwd.Column, len(s.pl.cols))
	for i, ref := range s.pl.cols {
		s.decs[i] = s.snapFor(ref.Dim).Dec(ref.Name)
	}
}

// get returns the decomposition of a column the statement touches (dim ""
// is the fact table), or nil when it has none.
func (s *execSnap) get(dim, col string) *bwd.Column {
	for i, ref := range s.pl.cols {
		if ref.Name == col && ref.Dim == dim {
			return s.decs[i]
		}
	}
	return nil
}

// joinKey returns the key of one of the statement's joins: the base and the
// length of the dimension's dense primary key, from the FK index price has
// required, and how the caller reads the fact-side key — its packed codes
// (the A&R scan), its exact values (the classic scan) or neither (the delta
// scan, which maps values alone).
func (s *execSnap) joinKey(spec JoinSpec, col *bwd.Column, tails []int64) bwd.Key {
	base, n := s.snapFor(spec.Dim).FKIndex(spec.DimPK).Span()
	return bwd.Key{Col: col, Tails: tails, Base: base, Len: n}
}

// snapFor returns the snapshot holding a table's data: a joined dimension's,
// or (dim "") the fact leg's.
func (s *execSnap) snapFor(dim string) *store.Snapshot {
	if dim == "" {
		return s.fact
	}
	return s.dims[s.pl.q.joinsDim(dim)]
}

// check validates the statement against the pinned versions. Every
// referenced column must exist (err). Classic plans need no decomposition —
// the estimator still reads histograms off the ones that happen to exist —
// while an A&R plan needs all of them, and every bit of a join's key column
// on the device: the first thing missing is arErr, which is what lets a leg
// fall back to the classic scan on the same snapshot. table names the leg in
// that error.
func (s *execSnap) check(table string) (arErr, err error) {
	for i, ref := range s.pl.cols {
		if s.decs[i] != nil {
			continue
		}
		if _, err := s.snapFor(ref.Dim).Table().ColIndex(ref.Name); err != nil {
			return nil, err
		}
		if arErr == nil {
			if ref.IsDim() {
				table = ref.Dim
			}
			arErr = fmt.Errorf("plan: column %s.%s is not bitwise decomposed; call Decompose first", table, ref.Name)
		}
	}
	for _, j := range s.pl.q.Joins {
		if arErr == nil {
			arErr = ar.CheckKey(s.get("", j.FKCol))
		}
	}
	if arErr == nil {
		arErr = s.pl.noAnchor
	}
	return arErr, nil
}
