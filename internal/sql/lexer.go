// Package sql implements a small SQL subset over the plan layer — enough
// to express every query the paper evaluates:
//
//	SELECT sum(l_extendedprice * l_discount) AS revenue
//	FROM lineitem
//	WHERE l_shipdate BETWEEN 731 AND 1095
//	  AND l_discount BETWEEN 5 AND 7 AND l_quantity < 24
//
//	SELECT l_returnflag, l_linestatus, sum(l_quantity), count(*)
//	FROM lineitem WHERE l_shipdate <= 2436
//	GROUP BY l_returnflag, l_linestatus
//
//	SELECT count(lon) FROM trips
//	WHERE lon BETWEEN 268288 AND 270228 AND lat BETWEEN 5042220 AND 5044850
//
//	SELECT bwdecompose(lon, 24) FROM trips
//
// plus any number of foreign-key dimension joins (star schema:
// FROM fact JOIN d1 ON fact.fk1 = d1.pk JOIN d2 ON ...), fact-side OR
// groups over range predicates, HAVING, ORDER BY ... LIMIT, and EXPLAIN.
// Parse errors report the byte offset and nearby source text. Values are
// the engine's canonical scaled integers (decimal literals are scaled by
// their own fractional digits, e.g. 2.68288 -> 268288).
package sql

import (
	"fmt"
	"strings"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokParam  // $1..$9: a prepared statement's placeholder for a numeric literal
	tokSymbol // ( ) , . * + -
	tokOp     // = < > <= >= <>
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

// lexer scans SQL text into tokens. Keywords are case-insensitive and
// reported as upper-case identifiers.
type lexer struct {
	src string
	pos int
}

func (l *lexer) error(pos int, format string, args ...any) error {
	return fmt.Errorf("sql: position %d: %s", pos, fmt.Sprintf(format, args...))
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && isSpace(l.src[l.pos]) {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isDigit(c):
		sawDot := false
		for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || (l.src[l.pos] == '.' && !sawDot && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]))) {
			if l.src[l.pos] == '.' {
				sawDot = true
			}
			l.pos++
		}
		return token{kind: tokNumber, text: l.src[start:l.pos], pos: start}, nil
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}, nil
	case c == '\'':
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] != '\'' {
			l.pos++
		}
		if l.pos >= len(l.src) {
			return token{}, l.error(start, "unterminated string literal")
		}
		l.pos++
		return token{kind: tokString, text: l.src[start+1 : l.pos-1], pos: start}, nil
	case c == '$':
		// Only $1..$9 exist: reading $12 as $1 followed by a literal 2 would
		// bind a different statement than the caller wrote.
		if l.pos+1 >= len(l.src) || l.src[l.pos+1] < '1' || l.src[l.pos+1] > '9' {
			return token{}, l.error(start, "invalid parameter placeholder (use $1..$9)")
		}
		if l.pos+2 < len(l.src) && isDigit(l.src[l.pos+2]) {
			return token{}, l.error(start, "parameter placeholder out of range (only $1..$9 are supported)")
		}
		l.pos += 2
		return token{kind: tokParam, text: l.src[start:l.pos], pos: start}, nil
	case c == '<' || c == '>':
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '=' || (c == '<' && l.src[l.pos] == '>')) {
			l.pos++
		}
		return token{kind: tokOp, text: l.src[start:l.pos], pos: start}, nil
	case c == '=':
		l.pos++
		return token{kind: tokOp, text: "=", pos: start}, nil
	case strings.IndexByte("(),.*+-", c) >= 0:
		l.pos++
		return token{kind: tokSymbol, text: l.src[start:l.pos], pos: start}, nil
	default:
		return token{}, l.error(start, "unexpected character %q", c)
	}
}

func isSpace(c byte) bool      { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) }

// tokenize scans the whole input. The token slice is sized from the text —
// a token every two bytes is what a dense VALUES list comes to — so a long
// INSERT does not grow it by doubling from nothing.
func tokenize(src string) ([]token, error) {
	l := &lexer{src: src}
	out := make([]token, 0, len(src)/2+2)
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}

// IsDML reports whether the statement's first token is INSERT, DELETE or
// CREATE. Parse takes exactly those for the DML statements, so such a text
// is a write or a syntax error whatever follows: a plan cache knows from
// here that it will never hold it, without normalizing the text.
func IsDML(src string) bool {
	l := lexer{src: src}
	t, err := l.next()
	if err != nil || t.kind != tokIdent {
		return false
	}
	return strings.EqualFold(t.text, "INSERT") || strings.EqualFold(t.text, "DELETE") || strings.EqualFold(t.text, "CREATE")
}
