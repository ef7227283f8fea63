package sql

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/bat"
	"repro/internal/device"
	"repro/internal/plan"
	"repro/internal/shard"
	"repro/internal/store"
)

// Bind resolves a parsed statement against the catalog into a plan.Query.
// bwdecompose pseudo-queries are reported through the Decompose field of
// the returned Binding; DML statements (INSERT / DELETE / CREATE TABLE)
// through their spec fields.
type Binding struct {
	Query     plan.Query
	Explain   bool
	Decompose []DecomposeSpec // non-empty for bwdecompose statements
	Insert    *InsertSpec
	Delete    *DeleteSpec
	Create    *CreateSpec

	// plans memoises the query's executable plan, one per mode (see Plan).
	plans [3]atomic.Pointer[plan.Plan]
}

// Plan returns the executable plan of the binding's query under mode,
// planning it on first use. A plan prices itself again when the data moved
// (plan.Catalog.Pin), so a binding that is kept — by the engine's plan cache,
// by a prepared statement — is planned once per mode however often it runs.
func (b *Binding) Plan(c *plan.Catalog, mode plan.Mode) (*plan.Plan, error) {
	if pl := b.plans[mode].Load(); pl != nil {
		return pl, nil
	}
	pl, err := c.Plan(b.Query, mode)
	if err != nil {
		return nil, err
	}
	b.plans[mode].Store(pl)
	return pl, nil
}

// DecomposeSpec is one bwdecompose(col, bits) request.
type DecomposeSpec struct {
	Table string
	Col   string
	Bits  uint
}

// InsertSpec is a bound INSERT: rows in table schema order, values already
// aligned to each column's fixed-point scale.
type InsertSpec struct {
	Table string
	Rows  [][]int64
}

// DeleteSpec is a bound DELETE: conjunctive range filters, scale-aligned.
type DeleteSpec struct {
	Table   string
	Filters []plan.Filter
}

// CreateSpec is a bound CREATE TABLE. Part is non-nil when the statement
// carried a PARTITION BY clause; the executor then builds a partitioned
// fact table instead of a plain one.
type CreateSpec struct {
	Table string
	Defs  []store.ColumnDef
	Part  *shard.Spec
}

// IsWrite reports whether executing the binding mutates catalog state
// (bwdecompose or DML). Write bindings are executed inline by the
// scheduler and never plan-cached.
func (b *Binding) IsWrite() bool {
	return len(b.Decompose) > 0 || b.Insert != nil || b.Delete != nil || b.Create != nil
}

// Tables returns the table names the binding depends on — the engine's
// plan cache records their schema epochs to invalidate stale entries.
func (b *Binding) Tables() []string {
	switch {
	case b.Insert != nil:
		return []string{b.Insert.Table}
	case b.Delete != nil:
		return []string{b.Delete.Table}
	case b.Create != nil:
		return nil // creates its dependency; never cached anyway
	case len(b.Decompose) > 0:
		out := make([]string, 0, len(b.Decompose))
		for _, d := range b.Decompose {
			out = append(out, d.Table)
		}
		return out
	default:
		out := []string{b.Query.Table}
		for _, j := range b.Query.Joins {
			out = append(out, j.Dim)
		}
		return out
	}
}

// Bind validates names and shapes the statement into the engine's query
// model.
func Bind(stmt *Stmt, c *plan.Catalog) (*Binding, error) {
	return BindParams(stmt, c, nil)
}

// binder binds one statement: the catalog it resolves names against and the
// literals standing in for the statement's $n placeholders.
type binder struct {
	c      *plan.Catalog
	params []Lit
}

// lit resolves a literal position of the AST: the literal written there, or
// the parameter bound to its placeholder.
func (b *binder) lit(v, scale int64) (int64, int64) {
	if scale == ParamScale {
		return b.params[v].V, b.params[v].Scale
	}
	return v, scale
}

// BindParams is Bind for a statement with placeholders: params supplies one
// literal per $n. The AST is only read, so one parsed statement can be bound
// any number of times, concurrently, with different literals.
func BindParams(stmt *Stmt, c *plan.Catalog, params []Lit) (*Binding, error) {
	if len(params) != stmt.Params {
		return nil, fmt.Errorf("sql: statement takes %d parameters, got %d", stmt.Params, len(params))
	}
	bd := &binder{c: c, params: params}
	switch {
	case stmt.Insert != nil:
		return bd.bindInsert(stmt.Insert)
	case stmt.Delete != nil:
		return bd.bindDelete(stmt.Delete)
	case stmt.Create != nil:
		return bindCreate(stmt.Create, c)
	}
	sel := stmt.Select
	b := &Binding{Explain: stmt.Explain}
	// SchemaTable, not Table: partitioned fact tables bind by their wrapper
	// name (the executor scatter-gathers over the partitions).
	if _, err := c.SchemaTable(sel.From); err != nil {
		return nil, err
	}

	// bwdecompose statements: every item must be a bwdecompose call.
	if len(sel.Items) > 0 && sel.Items[0].Agg == "bwdecompose" {
		for _, item := range sel.Items {
			if item.Agg != "bwdecompose" {
				return nil, fmt.Errorf("sql: bwdecompose cannot be mixed with other select items")
			}
			if item.DBits <= 0 || item.DBits > 63 {
				return nil, fmt.Errorf("sql: bwdecompose bits %d out of range", item.DBits)
			}
			tbl := sel.From
			if item.DCol.Table != "" {
				tbl = item.DCol.Table
			}
			b.Decompose = append(b.Decompose, DecomposeSpec{Table: tbl, Col: item.DCol.Name, Bits: uint(item.DBits)})
		}
		return b, nil
	}

	q := plan.Query{Table: sel.From}
	dims := map[string]bool{}
	for _, jc := range sel.Joins {
		fkSide, pkSide := jc.LeftCol, jc.RightCol
		// Normalize: the fact side is sel.From.
		if fkSide.Table == jc.Table || pkSide.Table == sel.From {
			fkSide, pkSide = pkSide, fkSide
		}
		if fkSide.Table != "" && fkSide.Table != sel.From {
			return nil, fmt.Errorf("sql: join condition must relate %s to %s", sel.From, jc.Table)
		}
		if pkSide.Table != "" && pkSide.Table != jc.Table {
			return nil, fmt.Errorf("sql: join condition must relate %s to %s", sel.From, jc.Table)
		}
		if dims[jc.Table] {
			return nil, fmt.Errorf("sql: dimension table %s joined twice", jc.Table)
		}
		dims[jc.Table] = true
		q.Joins = append(q.Joins, plan.JoinSpec{FKCol: fkSide.Name, Dim: jc.Table, DimPK: pkSide.Name})
	}

	// onDim resolves a column reference to its dimension table ("" = the
	// fact table; unqualified names bind to the fact side).
	onDim := func(col QualCol) (string, error) {
		switch {
		case col.Table == "" || col.Table == sel.From:
			return "", nil
		case dims[col.Table]:
			return col.Table, nil
		default:
			return "", fmt.Errorf("sql: unknown table %q", col.Table)
		}
	}

	// joinFor finds the join spec owning a dimension table.
	joinFor := func(dim string) *plan.JoinSpec {
		for i := range q.Joins {
			if q.Joins[i].Dim == dim {
				return &q.Joins[i]
			}
		}
		return nil
	}

	// WHERE: conjuncts canonicalized to closed ranges (decimal literals
	// aligned to the column's fixed-point scale); disjunction groups
	// become Or entries and must be entirely fact-side — a dimension
	// disjunct would have to survive the join probe, which the candidate
	// union does not model.
	for _, group := range sel.Where {
		if len(group.Preds) == 1 {
			p := group.Preds[0]
			dim, err := onDim(p.Col)
			if err != nil {
				return nil, err
			}
			tbl := sel.From
			if dim != "" {
				tbl = dim
			}
			f, err := bd.filterFromPred(tbl, p)
			if err != nil {
				return nil, err
			}
			if dim != "" {
				js := joinFor(dim)
				js.DimFilters = append(js.DimFilters, f)
			} else {
				q.Filters = append(q.Filters, f)
			}
			continue
		}
		var disj []plan.Filter
		for _, p := range group.Preds {
			dim, err := onDim(p.Col)
			if err != nil {
				return nil, err
			}
			if dim != "" {
				return nil, fmt.Errorf("sql: OR over dimension column %s is not supported (disjunctions must be fact-side)", p.Col)
			}
			f, err := bd.filterFromPred(sel.From, p)
			if err != nil {
				return nil, err
			}
			disj = append(disj, f)
		}
		q.Or = append(q.Or, disj)
	}

	// GROUP BY columns (fact side only, like the engine).
	groupSet := map[string]int{}
	for gi, g := range sel.GroupBy {
		if dim, err := onDim(g); err != nil {
			return nil, err
		} else if dim != "" {
			return nil, fmt.Errorf("sql: grouping by dimension columns is not supported")
		}
		q.GroupBy = append(q.GroupBy, g.Name)
		groupSet[g.Name] = gi
	}

	// SELECT items: plain grouped columns or aggregates.
	for i, item := range sel.Items {
		name := item.Alias
		if name == "" {
			name = fmt.Sprintf("col%d", i+1)
		}
		if item.Agg == "" {
			// A bare expression must be a grouped column reference.
			if item.Expr == nil || item.Expr.Op != "col" {
				return nil, fmt.Errorf("sql: select item %d is neither an aggregate nor a grouped column", i+1)
			}
			if _, ok := groupSet[item.Expr.Col.Name]; !ok {
				return nil, fmt.Errorf("sql: select item %d is neither an aggregate nor a grouped column", i+1)
			}
			continue // grouped columns appear as result keys automatically
		}
		spec, err := bd.bindAggCall(AggRef{Func: item.Agg, Star: item.Star, Expr: item.Expr}, name, onDim)
		if err != nil {
			return nil, err
		}
		q.Aggs = append(q.Aggs, *spec)
	}
	if len(q.Aggs) == 0 {
		return nil, fmt.Errorf("sql: query computes no aggregates (projection-only queries are not supported)")
	}

	// HAVING: each conjunct binds its aggregate call to an existing output
	// aggregate when one matches structurally, otherwise computes it as a
	// hidden aggregate that never reaches the result rows.
	for _, hp := range sel.Having {
		idx, err := bd.resolveAgg(&q, hp.Agg, onDim)
		if err != nil {
			return nil, err
		}
		f, err := bd.havingRange(sel.From, hp, onDim)
		if err != nil {
			return nil, err
		}
		q.Having = append(q.Having, plan.HavingFilter{Agg: idx, Lo: f.Lo, Hi: f.Hi})
	}

	// ORDER BY: each item is an alias, a grouped column, or an aggregate
	// call (resolved like HAVING).
	for _, oi := range sel.OrderBy {
		key := plan.OrderKey{Desc: oi.Desc}
		switch {
		case oi.Agg != nil:
			idx, err := bd.resolveAgg(&q, *oi.Agg, onDim)
			if err != nil {
				return nil, err
			}
			key.Index = idx
		case oi.Col.Table == "" && aliasIndex(&q, oi.Col.Name) >= 0:
			key.Index = aliasIndex(&q, oi.Col.Name)
		default:
			dim, err := onDim(*oi.Col)
			if err != nil {
				return nil, err
			}
			gi, ok := groupSet[oi.Col.Name]
			if dim != "" || !ok {
				return nil, fmt.Errorf("sql: ORDER BY %s is neither an output aggregate nor a grouped column", oi.Col)
			}
			key.Key = true
			key.Index = gi
		}
		q.OrderBy = append(q.OrderBy, key)
	}
	if sel.Limit > 0 {
		q.Limit = int(sel.Limit)
	}
	b.Query = q
	return b, nil
}

// bindAggCall lowers one aggregate call into an AggSpec.
func (bd *binder) bindAggCall(ref AggRef, name string, onDim func(QualCol) (string, error)) (*plan.AggSpec, error) {
	spec := &plan.AggSpec{Name: name}
	switch ref.Func {
	case "count":
		spec.Func = plan.Count
		if !ref.Star && ref.Expr != nil {
			// count(col) == count(*) in this NULL-free engine.
			if _, err := bd.bindArith(ref.Expr, onDim); err != nil {
				return nil, err
			}
		}
	case "sum", "min", "max", "avg":
		spec.Func = map[string]plan.AggFunc{
			"sum": plan.Sum, "min": plan.Min, "max": plan.Max, "avg": plan.Avg,
		}[ref.Func]
		if ref.Expr == nil {
			return nil, fmt.Errorf("sql: %s needs an argument", ref.Func)
		}
		expr, err := bd.bindArith(ref.Expr, onDim)
		if err != nil {
			return nil, err
		}
		spec.Expr = expr
	default:
		return nil, fmt.Errorf("sql: unknown aggregate %q", ref.Func)
	}
	return spec, nil
}

// resolveAgg finds the output aggregate structurally equal to the call
// (same function, same bound expression text — Count matches any Count,
// since count(col) == count(*) here), or appends a hidden aggregate for
// it and returns its index.
func (bd *binder) resolveAgg(q *plan.Query, ref AggRef, onDim func(QualCol) (string, error)) (int, error) {
	spec, err := bd.bindAggCall(ref, "", onDim)
	if err != nil {
		return 0, err
	}
	for i, a := range q.Aggs {
		if a.Func != spec.Func {
			continue
		}
		if a.Func == plan.Count || exprEqual(a.Expr, spec.Expr) {
			return i, nil
		}
	}
	spec.Hidden = true
	spec.Name = fmt.Sprintf("%s%d", spec.Func, len(q.Aggs)+1)
	q.Aggs = append(q.Aggs, *spec)
	return len(q.Aggs) - 1, nil
}

// exprEqual compares bound expressions structurally via their canonical
// rendering.
func exprEqual(a, b plan.Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.String() == b.String()
}

// aliasIndex returns the index of the visible aggregate named name, or -1.
func aliasIndex(q *plan.Query, name string) int {
	for i, a := range q.Aggs {
		if !a.Hidden && a.Name == name {
			return i
		}
	}
	return -1
}

// havingRange canonicalizes a HAVING comparison into a closed range over
// the aggregate's value. When the aggregate is over a single bare column,
// decimal literals align to that column's fixed-point scale (sums and
// extrema preserve the scale); otherwise the literal's own scale is used.
func (bd *binder) havingRange(fact string, hp HavingPred, onDim func(QualCol) (string, error)) (plan.Filter, error) {
	align := func(v, litScale int64) (int64, error) {
		v, litScale = bd.lit(v, litScale)
		if hp.Agg.Expr != nil && hp.Agg.Expr.Op == "col" {
			dim, err := onDim(hp.Agg.Expr.Col)
			if err != nil {
				return 0, err
			}
			tbl := fact
			if dim != "" {
				tbl = dim
			}
			return bd.alignScale(tbl, hp.Agg.Expr.Col.Name, v, litScale)
		}
		if litScale > 1 {
			return 0, fmt.Errorf("sql: decimal literal in HAVING needs a single-column aggregate to infer the scale from")
		}
		return v, nil
	}
	lo, err := align(hp.Lo, hp.LoScale)
	if err != nil {
		return plan.Filter{}, err
	}
	hi, err := align(hp.Hi, hp.HiScale)
	if err != nil {
		return plan.Filter{}, err
	}
	f := plan.Filter{}
	switch hp.Op {
	case "=":
		f.Lo, f.Hi = lo, lo
	case "<":
		f.Lo, f.Hi = plan.NoLo, lo-1
	case "<=":
		f.Lo, f.Hi = plan.NoLo, lo
	case ">":
		f.Lo, f.Hi = lo+1, plan.NoHi
	case ">=":
		f.Lo, f.Hi = lo, plan.NoHi
	case "between":
		f.Lo, f.Hi = lo, hi
	default:
		return plan.Filter{}, fmt.Errorf("sql: unsupported HAVING operator %q", hp.Op)
	}
	return f, nil
}

// filterFromPred canonicalizes one parsed predicate into a closed-range
// plan.Filter, aligning decimal literals to the column's fixed-point scale.
func (bd *binder) filterFromPred(table string, p Pred) (plan.Filter, error) {
	lo, err := bd.alignScale(table, p.Col.Name, p.Lo, p.LoScale)
	if err != nil {
		return plan.Filter{}, err
	}
	hi, err := bd.alignScale(table, p.Col.Name, p.Hi, p.HiScale)
	if err != nil {
		return plan.Filter{}, err
	}
	f := plan.Filter{Col: p.Col.Name}
	switch p.Op {
	case "=":
		f.Lo, f.Hi = lo, lo
	case "<":
		f.Lo, f.Hi = plan.NoLo, lo-1
	case "<=":
		f.Lo, f.Hi = plan.NoLo, lo
	case ">":
		f.Lo, f.Hi = lo+1, plan.NoHi
	case ">=":
		f.Lo, f.Hi = lo, plan.NoHi
	case "between":
		f.Lo, f.Hi = lo, hi
	default:
		return plan.Filter{}, fmt.Errorf("sql: unsupported predicate %q", p.Op)
	}
	return f, nil
}

// bindInsert shapes a parsed INSERT into schema-order rows with every
// literal aligned to its column's fixed-point scale. With an explicit
// column list the values are re-ordered; every table column must be
// covered (the engine has no NULLs).
func (bd *binder) bindInsert(ins *InsertStmt) (*Binding, error) {
	t, err := bd.c.SchemaTable(ins.Table)
	if err != nil {
		return nil, err
	}
	schema := t.ColumnNames()
	order := make([]int, len(schema)) // schema index -> value index
	if ins.Cols == nil {
		for i := range order {
			order[i] = i
		}
	} else {
		if len(ins.Cols) != len(schema) {
			return nil, fmt.Errorf("sql: insert into %s lists %d columns, table has %d (all columns are required)",
				ins.Table, len(ins.Cols), len(schema))
		}
		pos := make(map[string]int, len(ins.Cols))
		for vi, name := range ins.Cols {
			if _, dup := pos[name]; dup {
				return nil, fmt.Errorf("sql: insert into %s names column %s twice", ins.Table, name)
			}
			pos[name] = vi
		}
		for si, name := range schema {
			vi, ok := pos[name]
			if !ok {
				return nil, fmt.Errorf("sql: insert into %s does not cover column %s", ins.Table, name)
			}
			order[si] = vi
		}
	}
	// Per-column scales are constant across the statement: resolve them
	// once, not per literal (INSERTs compile on every execution).
	scales := make([]int64, len(schema))
	for si, name := range schema {
		if scales[si], err = t.ColumnScale(name); err != nil {
			return nil, err
		}
	}
	spec := &InsertSpec{Table: ins.Table, Rows: make([][]int64, 0, len(ins.Rows))}
	vals := make([]int64, len(ins.Rows)*len(schema)) // every row's values, one array
	for r, row := range ins.Rows {
		if len(row) != len(schema) {
			return nil, fmt.Errorf("sql: insert into %s: row %d has %d values, table has %d columns",
				ins.Table, r+1, len(row), len(schema))
		}
		out := vals[r*len(schema) : (r+1)*len(schema) : (r+1)*len(schema)]
		for si, name := range schema {
			lv, ls := bd.lit(row[order[si]].V, row[order[si]].Scale)
			v, ok := alignToScale(scales[si], lv, ls)
			if !ok {
				return nil, fmt.Errorf("sql: literal has more fractional digits than column %s.%s (scale %d)",
					ins.Table, name, scales[si])
			}
			out[si] = v
		}
		spec.Rows = append(spec.Rows, out)
	}
	return &Binding{Insert: spec}, nil
}

// bindDelete lowers the (optional) WHERE conjunction into range filters.
func (bd *binder) bindDelete(del *DeleteStmt) (*Binding, error) {
	if _, err := bd.c.SchemaTable(del.Table); err != nil {
		return nil, err
	}
	spec := &DeleteSpec{Table: del.Table}
	for _, p := range del.Preds {
		if p.Col.Table != "" && p.Col.Table != del.Table {
			return nil, fmt.Errorf("sql: delete from %s cannot filter on %q", del.Table, p.Col.Table)
		}
		f, err := bd.filterFromPred(del.Table, p)
		if err != nil {
			return nil, err
		}
		spec.Filters = append(spec.Filters, f)
	}
	return &Binding{Delete: spec}, nil
}

// bindCreate validates the column types via the store's shared type
// mapping. Supported: int (scale 1) and decimalN (N fractional digits,
// scale 10^N). Dictionary and date columns enter the catalog through the
// CSV loader, which owns their encodings.
func bindCreate(cr *CreateStmt, c *plan.Catalog) (*Binding, error) {
	spec := &CreateSpec{Table: cr.Table}
	for _, col := range cr.Cols {
		scale, err := store.ParseTypeScale(col.Type)
		if err != nil {
			return nil, fmt.Errorf("sql: column %s: %w", col.Name, err)
		}
		spec.Defs = append(spec.Defs, store.ColumnDef{Name: col.Name, Scale: scale, Width: bat.Width32})
	}
	if cr.PartN > 0 {
		kind, err := shard.ParseKind(cr.PartKind)
		if err != nil {
			return nil, fmt.Errorf("sql: %w", err)
		}
		part := shard.Spec{Kind: kind, Col: cr.PartCol, N: cr.PartN}
		if err := part.Validate(); err != nil {
			return nil, fmt.Errorf("sql: %w", err)
		}
		spec.Part = &part
	}
	return &Binding{Create: spec}, nil
}

// alignScale converts a literal position parsed at litScale (10^fractional
// digits; a placeholder resolves to its bound literal first) into the
// column's storage scale. A literal with more fractional digits than the
// column stores is rejected.
func (bd *binder) alignScale(table, col string, v, litScale int64) (int64, error) {
	v, litScale = bd.lit(v, litScale)
	t, err := bd.c.SchemaTable(table)
	if err != nil {
		return 0, err
	}
	colScale, err := t.ColumnScale(col)
	if err != nil {
		return 0, err
	}
	out, ok := alignToScale(colScale, v, litScale)
	if !ok {
		return 0, fmt.Errorf("sql: literal has more fractional digits than column %s.%s (scale %d)", table, col, colScale)
	}
	return out, nil
}

// alignToScale is the scale arithmetic behind alignScale, for callers that
// already resolved the column scale. ok is false when the literal carries
// more fractional digits than the column stores.
func alignToScale(colScale, v, litScale int64) (int64, bool) {
	if litScale <= 1 {
		litScale = 1
	}
	if litScale > colScale {
		return 0, false
	}
	return v * (colScale / litScale), true
}

// bindArith lowers an AST expression into the plan expression model.
// Multiplication of two decimal literals/columns is fixed-point: the scale
// divisor is taken from the literal's own fractional digits (integer
// operands multiply at scale 1).
func (bd *binder) bindArith(e *ArithE, onDim func(QualCol) (string, error)) (plan.Expr, error) {
	switch e.Op {
	case "col":
		dim, err := onDim(e.Col)
		if err != nil {
			return nil, err
		}
		if dim != "" {
			return plan.DimCol(dim, e.Col.Name), nil
		}
		return plan.Col(e.Col.Name), nil
	case "lit":
		v, _ := bd.lit(e.Lit, e.Scale)
		return plan.Const(v), nil
	case "+", "-", "*":
		l, err := bd.bindArith(e.L, onDim)
		if err != nil {
			return nil, err
		}
		r, err := bd.bindArith(e.R, onDim)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case "+":
			return plan.Add(l, r), nil
		case "-":
			return plan.Sub(l, r), nil
		default:
			scale := int64(1)
			for _, side := range [2]*ArithE{e.L, e.R} {
				if side.Op != "lit" {
					continue
				}
				if _, s := bd.lit(side.Lit, side.Scale); s > 1 {
					scale = s
				}
			}
			return plan.MulScaled(l, r, scale), nil
		}
	default:
		return nil, fmt.Errorf("sql: unknown expression op %q", e.Op)
	}
}

// Compile parses and binds a statement into an executable Binding — the
// reusable front half of Run. A Binding is immutable once compiled:
// executing it never mutates it, so compiled bindings may be cached (the
// server's plan cache stores them keyed on Normalize'd text) and executed
// concurrently.
func Compile(c *plan.Catalog, src string) (*Binding, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Bind(stmt, c)
}

// Exec runs a compiled binding under ctx. bwdecompose and DML
// statements mutate the store and return a Result whose Plan lines carry
// the outcome message and whose Meter carries the simulated write cost
// (including any implicit compaction); EXPLAIN returns a Result with
// only the plan listing. Classic controls which executor runs the query
// (the A&R executor by default, matching Run). Cancellation is cooperative
// — the executors poll ctx between pipeline stages.
//
// Front-ends should not call this directly: internal/engine wraps it with
// session routing, admission control and plan caching.
func Exec(ctx context.Context, c *plan.Catalog, b *Binding, opts plan.ExecOpts, classic bool) (*plan.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch {
	case b.Create != nil:
		if b.Create.Part != nil {
			p, err := c.CreatePartitionedTable(b.Create.Table, b.Create.Defs, *b.Create.Part)
			if err != nil {
				return nil, err
			}
			return &plan.Result{Note: fmt.Sprintf("created table %s (%d columns, %s)", b.Create.Table, len(b.Create.Defs), p.Spec)}, nil
		}
		if _, err := c.CreateTable(b.Create.Table, b.Create.Defs); err != nil {
			return nil, err
		}
		return &plan.Result{Note: fmt.Sprintf("created table %s (%d columns)", b.Create.Table, len(b.Create.Defs))}, nil
	case b.Insert != nil:
		m := device.NewMeter(c.System())
		n, err := c.InsertRows(m, b.Insert.Table, b.Insert.Rows)
		if err != nil {
			return nil, err
		}
		return &plan.Result{Meter: m, Note: fmt.Sprintf("inserted %d rows into %s", n, b.Insert.Table)}, nil
	case b.Delete != nil:
		m := device.NewMeter(c.System())
		n, err := c.DeleteRows(m, b.Delete.Table, b.Delete.Filters)
		if err != nil {
			return nil, err
		}
		return &plan.Result{Meter: m, Note: fmt.Sprintf("deleted %d rows from %s", n, b.Delete.Table)}, nil
	}
	if len(b.Decompose) > 0 {
		// Metered: a decompose over a table with delta rows or deletions
		// compacts it first, and that merge's bus traffic must reach the
		// caller's totals like any other write cost.
		m := device.NewMeter(c.System())
		for _, d := range b.Decompose {
			if _, err := c.DecomposeMetered(m, d.Table, d.Col, d.Bits); err != nil {
				return nil, err
			}
		}
		return &plan.Result{Meter: m, Note: "decomposed"}, nil
	}
	var res *plan.Result
	var err error
	if classic {
		res, err = c.ExecClassic(ctx, b.Query, opts)
	} else {
		res, err = c.ExecAR(ctx, b.Query, opts)
	}
	if err != nil {
		return nil, err
	}
	if b.Explain {
		return res.PlanOnly(), nil
	}
	return res, nil
}

// Run parses, binds and executes a statement under the A&R executor. It is
// a convenience for tests and one-off programs; front-ends embed
// internal/engine instead.
func Run(c *plan.Catalog, src string, opts plan.ExecOpts) (*plan.Result, error) {
	b, err := Compile(c, src)
	if err != nil {
		return nil, err
	}
	return Exec(context.Background(), c, b, opts, false)
}

// Normalize canonicalizes statement text for plan-cache keying: tokens are
// re-serialized with single spaces and identifiers are lower-cased (the
// parser lower-cases names anyway), so queries differing only in whitespace
// or keyword case share one cache entry. Unlexable text normalizes to
// itself, unchanged, and will miss the cache — the parser reports the
// error. (It must not be trimmed here: trimming can turn unlexable text
// into lexable text, which would break Normalize's idempotence and with it
// the guarantee that a cache key re-normalizes to itself.)
func Normalize(src string) string { return string(AppendNormalized(nil, src)) }

// AppendNormalized appends Normalize(src) to dst in one pass over the text,
// so a caller that only looks the key up can reuse one buffer and allocate
// nothing.
func AppendNormalized(dst []byte, src string) []byte {
	l, start := lexer{src: src}, len(dst)
	for {
		t, err := l.next()
		switch {
		case err != nil:
			return append(dst[:start], src...)
		case t.kind == tokEOF:
			return dst
		}
		if len(dst) > start {
			dst = append(dst, ' ')
		}
		switch t.kind {
		case tokIdent:
			for i := 0; i < len(t.text); i++ {
				c := t.text[i]
				if c >= 'A' && c <= 'Z' {
					c += 'a' - 'A'
				}
				dst = append(dst, c)
			}
		case tokString:
			dst = append(append(append(dst, '\''), t.text...), '\'')
		default:
			dst = append(dst, t.text...)
		}
	}
}

// Format renders a result like a small SQL client.
func Format(res *plan.Result) string {
	if res == nil {
		return "ok\n"
	}
	if lines := res.Plan(); res.Rows == nil && len(lines) > 0 {
		return strings.Join(lines, "\n") + "\n"
	}
	return plan.FormatRows(res.Rows)
}
