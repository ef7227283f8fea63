package plan

import (
	"fmt"
	"math"
)

// Query is the logical query model: a selection over a fact table written
// as a conjunction of range predicates (Filters) and range disjunctions
// (Or), foreign-key joins into any number of dimension tables with further
// dimension-side selections (star schema), a grouping, aggregates over
// arithmetic expressions, a HAVING conjunction over the aggregates, and an
// ORDER BY / LIMIT over the output rows. The paper's entire workload — the
// microbenchmarks, the spatial range queries (Table I) and TPC-H Q1, Q6
// and Q14 — is the single-join conjunctive subset; the pipeline layer
// executes every shape through the same composable operator set (§IV).
type Query struct {
	Table   string
	Filters []Filter
	// Or holds disjunction groups, each ANDed with Filters and the other
	// groups: a row qualifies for a group when at least one of the group's
	// fact-side range predicates holds. In A&R mode a group is one
	// approximate operator — the union of the per-disjunct candidate sets,
	// each disjunct relaxed through its own BWD bounds.
	Or      [][]Filter
	Joins   []JoinSpec
	GroupBy []string
	// Aggs lists the aggregates, visible outputs first: aggregates that
	// exist only to feed HAVING or ORDER BY (Hidden) are appended after
	// every visible one, and their values are dropped from the result rows.
	Aggs   []AggSpec
	Having []HavingFilter
	// OrderBy sorts the output rows; without it rows are in group-key
	// order. Limit (when > 0) caps the output — combined with OrderBy it
	// runs as a morsel-parallel top-k heap instead of a full sort.
	OrderBy []OrderKey
	Limit   int
}

// HavingFilter is one conjunct of the HAVING clause: a closed-range
// predicate over the aggregate at index Agg in Query.Aggs (canonicalized
// exactly like WHERE ranges).
type HavingFilter struct {
	Agg    int
	Lo, Hi int64
}

// OrderKey is one ORDER BY sort column: a group key (Key true, Index into
// GroupBy) or an aggregate (Index into Aggs). Ties — and everything, when
// OrderBy is empty — break by the full key tuple then the aggregate
// values, ascending, so output order is deterministic in both executors
// for every worker count.
type OrderKey struct {
	Key   bool
	Index int
	Desc  bool
}

// Filter is a closed-range predicate lo <= col <= hi. Open-ended and
// strict comparisons are canonicalized into this form at integer
// granularity (v < x  ≡  v <= x-1), matching the paper's f(x) coverage.
type Filter struct {
	Col    string
	Lo, Hi int64
}

// NoLo and NoHi are the open bounds for one-sided filters.
const (
	NoLo = math.MinInt64
	NoHi = math.MaxInt64
)

// JoinSpec joins the fact table to one dimension table over a pre-indexed
// foreign key; DimFilters are applied to the joined dimension rows. A
// query may carry several (star schema); each dimension table appears at
// most once in the chain.
type JoinSpec struct {
	FKCol      string // fact-side foreign-key column
	Dim        string // dimension table name
	DimPK      string // dimension primary-key column (dense)
	DimFilters []Filter
}

// AggFunc enumerates the supported aggregation functions.
type AggFunc int

// Aggregation functions.
const (
	Sum AggFunc = iota
	Count
	Min
	Max
	Avg
)

func (f AggFunc) String() string {
	switch f {
	case Sum:
		return "sum"
	case Count:
		return "count"
	case Min:
		return "min"
	case Max:
		return "max"
	case Avg:
		return "avg"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(f))
	}
}

// AggSpec is one output aggregate: Func applied to Expr (Expr may be nil
// for Count). Hidden aggregates are computed for HAVING / ORDER BY only
// and never appear in the result rows.
type AggSpec struct {
	Name   string
	Func   AggFunc
	Expr   Expr
	Hidden bool
}

// Expr is an arithmetic expression over column values. Nothing evaluates
// the tree: a statement's aggregate expressions compile into one register
// program (expr.go) that computes exact values and — from approximations —
// conservative per-tuple intervals for the approximate query answer (§III).
// Cols reports the referenced columns.
type Expr interface {
	// compile emits the expression into pg and returns its register.
	compile(pg *program) int
	Cols() []ColRef
	// Ops counts the bulk-operator passes the expression costs: one fully
	// materialized map per arithmetic/case node (§II-B).
	Ops() int
	String() string
}

// ColRef names a column: Dim is the dimension table holding it, or empty
// for the fact table.
type ColRef struct {
	Name string
	Dim  string
}

// IsDim reports whether the reference names a dimension column.
func (r ColRef) IsDim() bool { return r.Dim != "" }

// Col references a fact-table column.
func Col(name string) Expr { return colExpr{ColRef{Name: name}} }

// DimCol references a column of the joined dimension table dim.
func DimCol(dim, name string) Expr { return colExpr{ColRef{Name: name, Dim: dim}} }

type colExpr struct{ ref ColRef }

func (e colExpr) Cols() []ColRef { return []ColRef{e.ref} }

func (e colExpr) Ops() int { return 0 }

func (e colExpr) String() string {
	if e.ref.IsDim() {
		return e.ref.Dim + "." + e.ref.Name
	}
	return e.ref.Name
}

// Const is a constant expression.
func Const(v int64) Expr { return constExpr(v) }

type constExpr int64

func (e constExpr) Cols() []ColRef { return nil }

func (e constExpr) Ops() int { return 0 }

func (e constExpr) String() string { return fmt.Sprintf("%d", int64(e)) }

type binExpr struct {
	op    opcode // opAdd, opSub or opMulScaled
	a, b  Expr
	scale int64 // for fixed-point mul
}

// Add returns a+b.
func Add(a, b Expr) Expr { return binExpr{op: opAdd, a: a, b: b} }

// Sub returns a-b.
func Sub(a, b Expr) Expr { return binExpr{op: opSub, a: a, b: b} }

// MulScaled returns the fixed-point product (a*b)/scale. Per §IV-G this
// operation is destructively distributive: its exact value is always
// recomputed on the CPU from reconstructed inputs, never refined from the
// approximate product.
func MulScaled(a, b Expr, scale int64) Expr {
	return binExpr{op: opMulScaled, a: a, b: b, scale: scale}
}

func (e binExpr) Cols() []ColRef { return append(e.a.Cols(), e.b.Cols()...) }

func (e binExpr) Ops() int { return e.a.Ops() + e.b.Ops() + 1 }

func (e binExpr) String() string {
	sym := [...]string{opAdd: "+", opSub: "-", opMulScaled: "*"}[e.op]
	return fmt.Sprintf("(%s %s %s)", e.a, sym, e.b)
}

// CaseRange returns `then` where lo <= cond <= hi and `els` elsewhere —
// the dictionary-range CASE of TPC-H Q14 after the paper's prefix-to-range
// rewrite (§VI-D1).
func CaseRange(cond Expr, lo, hi int64, then, els Expr) Expr {
	return caseExpr{cond: cond, lo: lo, hi: hi, then: then, els: els}
}

type caseExpr struct {
	cond   Expr
	lo, hi int64
	then   Expr
	els    Expr
}

func (e caseExpr) Cols() []ColRef {
	out := e.cond.Cols()
	out = append(out, e.then.Cols()...)
	return append(out, e.els.Cols()...)
}

func (e caseExpr) Ops() int { return e.cond.Ops() + e.then.Ops() + e.els.Ops() + 1 }

func (e caseExpr) String() string {
	return fmt.Sprintf("case(%d<=%s<=%d ? %s : %s)", e.lo, e.cond, e.hi, e.then, e.els)
}
