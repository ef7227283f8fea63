package sql

import (
	"fmt"
	"strings"
)

// AST types. The grammar (keywords case-insensitive):
//
//	stmt      := [EXPLAIN] select | insert | delete | create
//	insert    := INSERT INTO name ['(' name {, name} ')']
//	             VALUES row {, row}
//	row       := '(' literal {, literal} ')'
//	delete    := DELETE FROM name [WHERE pred {AND pred}]
//	create    := CREATE TABLE name '(' name type {, name type} ')'
//	type      := INT | DECIMAL<digits>   (decimal2 = 2 fractional digits)
//	select    := SELECT item {, item} FROM name {join} [where]
//	             [groupby] [having] [orderby] [limit]
//	item      := expr [AS name]
//	join      := JOIN name ON qualcol = qualcol
//	where     := WHERE orexpr
//	orexpr    := andexpr {OR andexpr}      (standard precedence: OR lowest;
//	andexpr   := boolprim {AND boolprim}    the bound form must be a
//	boolprim  := pred | '(' orexpr ')'      conjunction of predicates and
//	                                        disjunctions of predicates)
//	pred      := qualcol cmp literal
//	           | qualcol BETWEEN literal AND literal
//	groupby   := GROUP BY qualcol {, qualcol}
//	having    := HAVING havingpred {AND havingpred}
//	havingpred:= aggcall cmp literal | aggcall BETWEEN literal AND literal
//	orderby   := ORDER BY orderitem {, orderitem}
//	orderitem := (aggcall | qualcol) [ASC|DESC]
//	limit     := LIMIT number
//	expr      := aggcall | arith
//	aggcall   := (SUM|COUNT|MIN|MAX|AVG) '(' (arith | '*') ')'
//	           | BWDECOMPOSE '(' qualcol ',' number ')'
//	arith     := term {(+|-) term}
//	term      := factor {'*' factor}
//	factor    := qualcol | literal | '(' arith ')'
//	qualcol   := name ['.' name]
//	literal   := number (decimal literals scale by fractional digits)
//	           | '$' digit      ($1..$9, bound by BindParams)

// Stmt is a parsed statement: exactly one of the branch pointers is set.
// Params is how many parameters it takes: the highest $n it mentions.
type Stmt struct {
	Explain bool
	Params  int
	Select  *SelectStmt
	Insert  *InsertStmt
	Delete  *DeleteStmt
	Create  *CreateStmt
}

// InsertStmt is a parsed INSERT INTO ... VALUES. Cols is nil when the
// column list is omitted (values in table schema order).
type InsertStmt struct {
	Table string
	Cols  []string
	Rows  [][]Lit
}

// Lit is a numeric literal with the decimal scale it was written at
// (10^fractional digits; 1 for integers). Wherever the AST holds a literal
// as a (value, scale) pair, scale ParamScale marks a $n placeholder and the
// value is its 0-based index; BindParams puts the bound literal in its place.
type Lit struct {
	V     int64
	Scale int64
}

// ParamScale is the scale of a literal position that holds a placeholder.
const ParamScale = -1

// DeleteStmt is a parsed DELETE FROM ... [WHERE ...].
type DeleteStmt struct {
	Table string
	Preds []Pred
}

// CreateStmt is a parsed CREATE TABLE. PartN > 0 when the statement carried
// a PARTITION BY clause (fact tables only; the binder lowers it into a
// shard.Spec).
type CreateStmt struct {
	Table string
	Cols  []CreateCol

	PartKind string // "hash" or "range"; empty without PARTITION BY
	PartCol  string
	PartN    int
}

// CreateCol is one column definition: the type is the raw identifier
// ("int", "decimal2", ...), validated by the binder.
type CreateCol struct {
	Name string
	Type string
}

// SelectStmt is a parsed SELECT. Limit is -1 when no LIMIT clause was
// written.
type SelectStmt struct {
	Items   []SelectItem
	From    string
	Joins   []JoinClause
	Where   []PredGroup
	GroupBy []QualCol
	Having  []HavingPred
	OrderBy []OrderItem
	Limit   int64
}

// PredGroup is one conjunct of the WHERE clause in conjunctive normal
// form: a single predicate, or (len > 1) a disjunction of predicates of
// which at least one must hold.
type PredGroup struct {
	Preds []Pred
}

// AggRef is an aggregate call referenced outside the select list (HAVING,
// ORDER BY): the function, count(*)'s star form, or the argument
// expression.
type AggRef struct {
	Func string
	Star bool
	Expr *ArithE
}

// HavingPred is one conjunct of the HAVING clause: a comparison of an
// aggregate call against a literal.
type HavingPred struct {
	Agg              AggRef
	Op               string // "=", "<", "<=", ">", ">=", "between"
	Lo, Hi           int64
	LoScale, HiScale int64
}

// OrderItem is one ORDER BY sort column: a bare column/alias reference or
// an aggregate call, with its direction.
type OrderItem struct {
	Col  *QualCol
	Agg  *AggRef
	Desc bool
}

// SelectItem is one output expression.
type SelectItem struct {
	Agg   string   // "", "sum", "count", "min", "max", "avg", "bwdecompose"
	Star  bool     // count(*)
	Expr  *ArithE  // nil for count(*) and bwdecompose
	DCol  *QualCol // bwdecompose target
	DBits int64    // bwdecompose bits
	Alias string
}

// JoinClause is a single FK join.
type JoinClause struct {
	Table    string
	LeftCol  QualCol
	RightCol QualCol
}

// Pred is a (possibly one-sided) range predicate in SQL form. LoScale and
// HiScale record the decimal scale of each literal (1 for integers) so the
// binder can align them to the column's fixed-point encoding.
type Pred struct {
	Col              QualCol
	Op               string // "=", "<", "<=", ">", ">=", "between"
	Lo, Hi           int64  // Hi used by BETWEEN
	LoScale, HiScale int64
}

// QualCol is a possibly table-qualified column name.
type QualCol struct {
	Table string // empty when unqualified
	Name  string
}

func (q QualCol) String() string {
	if q.Table == "" {
		return q.Name
	}
	return q.Table + "." + q.Name
}

// ArithE is an arithmetic expression tree.
type ArithE struct {
	Op    string  // "col", "lit", "+", "-", "*"
	Col   QualCol // when Op == "col"
	Lit   int64   // when Op == "lit"
	Scale int64   // literal scale (1, 10, 100, ...) for fixed-point mul
	L, R  *ArithE
}

type parser struct {
	src    string
	toks   []token
	at     int
	params int // highest $n seen
}

// errAt builds a parse error carrying the offending token's byte offset
// and the surrounding source text, so malformed statements point at the
// exact spot instead of reporting a bare message.
func (p *parser) errAt(t token, format string, args ...any) error {
	return fmt.Errorf("sql: offset %d near %q: %s", t.pos, near(p.src, t.pos), fmt.Sprintf(format, args...))
}

// near returns a short source window around pos for error messages.
func near(src string, pos int) string {
	const window = 16
	lo := pos - window
	if lo < 0 {
		lo = 0
	}
	hi := pos + window
	if hi > len(src) {
		hi = len(src)
	}
	out := src[lo:hi]
	if lo > 0 {
		out = "…" + out
	}
	if hi < len(src) {
		out += "…"
	}
	return out
}

// tokenText renders a token for error messages (EOF included).
func tokenText(t token) string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// Parse parses one statement.
func Parse(src string) (*Stmt, error) {
	toks, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	stmt := &Stmt{}
	if p.acceptKeyword("EXPLAIN") {
		stmt.Explain = true
	}
	switch {
	case !stmt.Explain && p.acceptKeyword("INSERT"):
		if stmt.Insert, err = p.parseInsert(); err != nil {
			return nil, err
		}
	case !stmt.Explain && p.acceptKeyword("DELETE"):
		if stmt.Delete, err = p.parseDelete(); err != nil {
			return nil, err
		}
	case !stmt.Explain && p.acceptKeyword("CREATE"):
		if stmt.Create, err = p.parseCreate(); err != nil {
			return nil, err
		}
	default:
		if stmt.Select, err = p.parseSelect(); err != nil {
			return nil, err
		}
	}
	if !p.atEOF() {
		return nil, p.errAt(p.peek(), "trailing input %s", tokenText(p.peek()))
	}
	stmt.Params = p.params
	return stmt, nil
}

// parseInsert parses the statement after the INSERT keyword.
func (p *parser) parseInsert() (*InsertStmt, error) {
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	ins := &InsertStmt{}
	var err error
	if ins.Table, err = p.parseName(); err != nil {
		return nil, err
	}
	if p.acceptSymbol("(") {
		for {
			name, err := p.parseName()
			if err != nil {
				return nil, err
			}
			ins.Cols = append(ins.Cols, name)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	// Every row after the first is carved from one array, sized when the
	// first row has told the width: a row is its parentheses, its literals
	// and the commas between and after them, so the tokens left bound the
	// rows left. A row that turns out wider outgrows its slot into an array
	// of its own (and the binder rejects the statement).
	var lits []Lit
	width := 0
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Lit
		if width > 0 && len(lits) >= width {
			row, lits = lits[:0:width], lits[width:]
		}
		for {
			v, scale, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			row = append(row, Lit{V: v, Scale: scale})
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.acceptSymbol(",") {
			break
		}
		if width == 0 {
			width = len(row)
			left := (len(p.toks)-p.at)/(2*width+2) + 1
			lits = make([]Lit, left*width)
			ins.Rows = append(make([][]Lit, 0, left+1), row)
		}
	}
	return ins, nil
}

// parseDelete parses the statement after the DELETE keyword.
func (p *parser) parseDelete() (*DeleteStmt, error) {
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	del := &DeleteStmt{}
	var err error
	if del.Table, err = p.parseName(); err != nil {
		return nil, err
	}
	if p.acceptKeyword("WHERE") {
		for {
			pred, err := p.parsePred()
			if err != nil {
				return nil, err
			}
			del.Preds = append(del.Preds, *pred)
			if !p.acceptKeyword("AND") {
				break
			}
		}
	}
	return del, nil
}

// parseCreate parses the statement after the CREATE keyword.
func (p *parser) parseCreate() (*CreateStmt, error) {
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	cr := &CreateStmt{}
	var err error
	if cr.Table, err = p.parseName(); err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	for {
		name, err := p.parseName()
		if err != nil {
			return nil, err
		}
		typ, err := p.parseName()
		if err != nil {
			return nil, err
		}
		cr.Cols = append(cr.Cols, CreateCol{Name: name, Type: typ})
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	// CREATE TABLE t (...) PARTITION BY HASH(col) PARTITIONS n
	if p.acceptKeyword("PARTITION") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		kindTok := p.peek()
		kind, err := p.parseName()
		if err != nil {
			return nil, err
		}
		if !strings.EqualFold(kind, "hash") && !strings.EqualFold(kind, "range") {
			return nil, p.errAt(kindTok, "unknown partition kind %q (HASH, RANGE)", kind)
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		colTok := p.peek()
		col, err := p.parseName()
		if err != nil {
			return nil, err
		}
		declared := false
		for _, c := range cr.Cols {
			if strings.EqualFold(c.Name, col) {
				col = c.Name
				declared = true
				break
			}
		}
		if !declared {
			return nil, p.errAt(colTok, "partition column %s is not declared by table %s", col, cr.Table)
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("PARTITIONS"); err != nil {
			return nil, err
		}
		nTok := p.peek()
		n, scale, err := p.parseNumber()
		if err != nil {
			return nil, err
		}
		if scale != 1 || n < 1 {
			return nil, p.errAt(nTok, "PARTITIONS takes a positive integer")
		}
		cr.PartKind = strings.ToLower(kind)
		cr.PartCol = col
		cr.PartN = int(n)
	}
	return cr, nil
}

func (p *parser) peek() token { return p.toks[p.at] }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }
func (p *parser) advance() token {
	t := p.toks[p.at]
	if t.kind != tokEOF {
		p.at++
	}
	return t
}

func (p *parser) acceptKeyword(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errAt(p.peek(), "expected %s, found %s", kw, tokenText(p.peek()))
	}
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	t := p.peek()
	if (t.kind == tokSymbol || t.kind == tokOp) && t.text == sym {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errAt(p.peek(), "expected %q, found %s", sym, tokenText(p.peek()))
	}
	return nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{Limit: -1}
	for {
		item, err := p.parseItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, *item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.parseName()
	if err != nil {
		return nil, err
	}
	sel.From = tbl
	for p.acceptKeyword("JOIN") {
		join := JoinClause{}
		if join.Table, err = p.parseName(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		if join.LeftCol, err = p.parseQualCol(); err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		if join.RightCol, err = p.parseQualCol(); err != nil {
			return nil, err
		}
		sel.Joins = append(sel.Joins, join)
	}
	if p.acceptKeyword("WHERE") {
		if sel.Where, err = p.parseWhere(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.parseQualCol()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, col)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		for {
			hp, err := p.parseHavingPred()
			if err != nil {
				return nil, err
			}
			sel.Having = append(sel.Having, *hp)
			if !p.acceptKeyword("AND") {
				break
			}
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			item, err := p.parseOrderItem()
			if err != nil {
				return nil, err
			}
			sel.OrderBy = append(sel.OrderBy, *item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		at := p.peek()
		n, scale, err := p.parseNumber()
		if err != nil {
			return nil, err
		}
		if scale != 1 || n <= 0 {
			return nil, p.errAt(at, "LIMIT takes a positive integer")
		}
		sel.Limit = n
	}
	return sel, nil
}

// parseWhere parses the WHERE boolean expression and normalizes it to
// conjunctive normal form: a list of groups, each a single predicate or a
// disjunction of predicates. A bare (unparenthesized) OR is accepted only
// when the whole clause is that one disjunction — mixed with AND its SQL
// precedence (OR loosest) would not survive the CNF shape, so the parser
// demands parentheses instead of silently rebinding, pointing at the
// offending OR. An OR branch that is itself a conjunction has no CNF home
// in the engine's query model and is rejected the same way.
func (p *parser) parseWhere() ([]PredGroup, error) {
	var groups []PredGroup
	var bareOr *token
	for {
		group, bareTok, err := p.parseOrGroup()
		if err != nil {
			return nil, err
		}
		if bareTok != nil && bareOr == nil {
			bareOr = bareTok
		}
		groups = append(groups, *group)
		if !p.acceptKeyword("AND") {
			break
		}
	}
	if bareOr != nil && len(groups) > 1 {
		return nil, p.errAt(*bareOr, "OR mixed with AND is ambiguous here; parenthesize the OR group, e.g. (a < 1 OR b > 2) AND c = 3")
	}
	return groups, nil
}

// parseOrGroup parses boolprim {OR boolprim} where every branch must be a
// single predicate or a parenthesized disjunction (flattened in). The
// returned token is the first bare OR keyword, nil if none appeared.
func (p *parser) parseOrGroup() (*PredGroup, *token, error) {
	group := &PredGroup{}
	if err := p.parseBoolPrim(group); err != nil {
		return nil, nil, err
	}
	var bare *token
	for {
		at := p.peek()
		if !p.acceptKeyword("OR") {
			return group, bare, nil
		}
		if bare == nil {
			bare = &at
		}
		if err := p.parseBoolPrim(group); err != nil {
			return nil, nil, err
		}
	}
}

// parseBoolPrim parses one predicate or a parenthesized boolean
// expression, appending its disjuncts to group. A parenthesized
// expression may only contain OR (a disjunction): AND inside OR would
// need a distributed rewrite the query model does not perform.
func (p *parser) parseBoolPrim(group *PredGroup) error {
	if p.acceptSymbol("(") {
		for {
			pred, err := p.parsePred()
			if err != nil {
				return err
			}
			group.Preds = append(group.Preds, *pred)
			if p.acceptKeyword("OR") {
				continue
			}
			if and := p.peek(); p.acceptKeyword("AND") {
				return p.errAt(and, "AND inside a parenthesized OR is not supported; rewrite the WHERE clause in conjunctive normal form (ANDs of ORs)")
			}
			break
		}
		return p.expectSymbol(")")
	}
	pred, err := p.parsePred()
	if err != nil {
		return err
	}
	group.Preds = append(group.Preds, *pred)
	return nil
}

// parseAggRef parses an aggregate call (sum(expr), count(*), ...) for
// HAVING and ORDER BY positions.
func (p *parser) parseAggRef() (*AggRef, error) {
	t := p.peek()
	if t.kind != tokIdent || !aggNames[strings.ToLower(t.text)] {
		return nil, p.errAt(t, "expected an aggregate call, found %s", tokenText(t))
	}
	ref := &AggRef{Func: strings.ToLower(t.text)}
	p.advance()
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	if p.acceptSymbol("*") {
		if ref.Func != "count" {
			return nil, p.errAt(t, "%s(*) is not valid", ref.Func)
		}
		ref.Star = true
	} else {
		expr, err := p.parseArith()
		if err != nil {
			return nil, err
		}
		ref.Expr = expr
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return ref, nil
}

// parseHavingPred parses one HAVING conjunct: aggcall cmp literal or
// aggcall BETWEEN literal AND literal.
func (p *parser) parseHavingPred() (*HavingPred, error) {
	ref, err := p.parseAggRef()
	if err != nil {
		return nil, err
	}
	hp := &HavingPred{Agg: *ref}
	if p.acceptKeyword("BETWEEN") {
		if hp.Lo, hp.LoScale, err = p.parseLiteral(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		if hp.Hi, hp.HiScale, err = p.parseLiteral(); err != nil {
			return nil, err
		}
		hp.Op = "between"
		return hp, nil
	}
	t := p.peek()
	if t.kind != tokOp {
		return nil, p.errAt(t, "expected comparison after aggregate, found %s", tokenText(t))
	}
	p.advance()
	switch t.text {
	case "=", "<", "<=", ">", ">=":
		hp.Op = t.text
	default:
		return nil, p.errAt(t, "unsupported operator %q", t.text)
	}
	if hp.Lo, hp.LoScale, err = p.parseLiteral(); err != nil {
		return nil, err
	}
	return hp, nil
}

// parseOrderItem parses one ORDER BY column: an aggregate call or a bare
// (possibly qualified) column/alias name, with an optional direction.
func (p *parser) parseOrderItem() (*OrderItem, error) {
	item := &OrderItem{}
	t := p.peek()
	if t.kind == tokIdent && aggNames[strings.ToLower(t.text)] &&
		p.toks[p.at+1].kind == tokSymbol && p.toks[p.at+1].text == "(" {
		ref, err := p.parseAggRef()
		if err != nil {
			return nil, err
		}
		item.Agg = ref
	} else {
		col, err := p.parseQualCol()
		if err != nil {
			return nil, err
		}
		item.Col = &col
	}
	switch {
	case p.acceptKeyword("DESC"):
		item.Desc = true
	case p.acceptKeyword("ASC"):
	}
	return item, nil
}

var aggNames = map[string]bool{
	"sum": true, "count": true, "min": true, "max": true, "avg": true,
}

func (p *parser) parseItem() (*SelectItem, error) {
	t := p.peek()
	item := &SelectItem{}
	if t.kind == tokIdent {
		lower := strings.ToLower(t.text)
		if strings.EqualFold(t.text, "bwdecompose") {
			p.advance()
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			col, err := p.parseQualCol()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(","); err != nil {
				return nil, err
			}
			bits, _, err := p.parseNumber()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			item.Agg = "bwdecompose"
			item.DCol = &col
			item.DBits = bits
			return item, p.parseAlias(item)
		}
		if aggNames[lower] && p.toks[p.at+1].kind == tokSymbol && p.toks[p.at+1].text == "(" {
			ref, err := p.parseAggRef()
			if err != nil {
				return nil, err
			}
			item.Agg = ref.Func
			item.Star = ref.Star
			item.Expr = ref.Expr
			return item, p.parseAlias(item)
		}
	}
	expr, err := p.parseArith()
	if err != nil {
		return nil, err
	}
	item.Expr = expr
	return item, p.parseAlias(item)
}

func (p *parser) parseAlias(item *SelectItem) error {
	if p.acceptKeyword("AS") {
		name, err := p.parseName()
		if err != nil {
			return err
		}
		item.Alias = name
	}
	return nil
}

func (p *parser) parsePred() (*Pred, error) {
	col, err := p.parseQualCol()
	if err != nil {
		return nil, err
	}
	if p.acceptKeyword("BETWEEN") {
		lo, loScale, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, hiScale, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return &Pred{Col: col, Op: "between", Lo: lo, Hi: hi, LoScale: loScale, HiScale: hiScale}, nil
	}
	t := p.peek()
	if t.kind != tokOp {
		return nil, p.errAt(t, "expected comparison after %s, found %s", col, tokenText(t))
	}
	p.advance()
	v, vScale, err := p.parseLiteral()
	if err != nil {
		return nil, err
	}
	switch t.text {
	case "=", "<", "<=", ">", ">=":
		return &Pred{Col: col, Op: t.text, Lo: v, LoScale: vScale}, nil
	default:
		return nil, p.errAt(t, "unsupported operator %q", t.text)
	}
}

func (p *parser) parseArith() (*ArithE, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("+"):
			right, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			left = &ArithE{Op: "+", L: left, R: right}
		case p.acceptSymbol("-"):
			right, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			left = &ArithE{Op: "-", L: left, R: right}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseTerm() (*ArithE, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for p.acceptSymbol("*") {
		right, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		left = &ArithE{Op: "*", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseFactor() (*ArithE, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber || t.kind == tokParam:
		v, scale, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return &ArithE{Op: "lit", Lit: v, Scale: scale}, nil
	case t.kind == tokIdent:
		col, err := p.parseQualCol()
		if err != nil {
			return nil, err
		}
		return &ArithE{Op: "col", Col: col}, nil
	case p.acceptSymbol("("):
		inner, err := p.parseArith()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return inner, nil
	default:
		return nil, p.errAt(t, "unexpected %s in expression", tokenText(t))
	}
}

func (p *parser) parseName() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errAt(t, "expected name, found %s", tokenText(t))
	}
	p.advance()
	return strings.ToLower(t.text), nil
}

func (p *parser) parseQualCol() (QualCol, error) {
	first, err := p.parseName()
	if err != nil {
		return QualCol{}, err
	}
	if p.acceptSymbol(".") {
		second, err := p.parseName()
		if err != nil {
			return QualCol{}, err
		}
		return QualCol{Table: first, Name: second}, nil
	}
	return QualCol{Name: first}, nil
}

// parseLiteral parses the grammar's literal: a number, or a $n placeholder,
// reported as its 0-based index at scale ParamScale.
func (p *parser) parseLiteral() (value, scale int64, err error) {
	t := p.peek()
	if t.kind != tokParam {
		return p.parseNumber()
	}
	p.advance()
	n := int(t.text[1] - '0')
	p.params = max(p.params, n)
	return int64(n - 1), ParamScale, nil
}

// parseNumber parses an integer or decimal literal, returning the scaled
// integer value and the scale (10^fractional digits).
func (p *parser) parseNumber() (value, scale int64, err error) {
	neg := p.acceptSymbol("-")
	t := p.peek()
	if t.kind != tokNumber {
		return 0, 0, p.errAt(t, "expected number, found %s", tokenText(t))
	}
	p.advance()
	value, scale = numberValue(t.text)
	if neg {
		value = -value
	}
	return value, scale, nil
}

// numberValue converts a number token's text into the scaled integer value
// and the scale (10^fractional digits).
func numberValue(text string) (v, scale int64) {
	scale = 1
	intPart := text
	if dot := strings.IndexByte(text, '.'); dot >= 0 {
		frac := text[dot+1:]
		intPart = text[:dot] + frac
		for range frac {
			scale *= 10
		}
	}
	for _, c := range intPart {
		v = v*10 + int64(c-'0')
	}
	return v, scale
}

// ParseLit reads one parameter value with the lexer's own number rule: an
// optionally negated integer or decimal and nothing else, so a parameter can
// never carry statement structure.
func ParseLit(text string) (Lit, error) {
	l := lexer{src: text}
	t, err := l.next()
	neg := err == nil && t.kind == tokSymbol && t.text == "-"
	if neg {
		t, err = l.next()
	}
	if err == nil && t.kind == tokNumber {
		if end, err := l.next(); err == nil && end.kind == tokEOF {
			v, scale := numberValue(t.text)
			if neg {
				v = -v
			}
			return Lit{V: v, Scale: scale}, nil
		}
	}
	return Lit{}, fmt.Errorf("sql: %q is not a numeric literal", text)
}
