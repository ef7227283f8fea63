package engine

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/device"
	"repro/internal/plan"
	"repro/internal/sql"
)

// Session is per-caller engine state: an executor-mode and cost-report
// toggle, named prepared statements, and running meter totals over every
// statement the caller ran. Every front-end connection (shell, TCP client,
// embedded library user) owns one Session; all methods are safe for
// concurrent use (the \stats handler of one connection may snapshot
// another's totals).
type Session struct {
	// ID identifies the session in stats output.
	ID int64

	// Totals accumulates the contention-adjusted meters of this session's
	// queries.
	Totals device.SharedMeter

	eng *Engine

	mu       sync.Mutex
	cost     bool
	mode     Mode
	prepared map[string]*Stmt
}

// Query compiles (through the engine's plan cache) and executes one
// statement under ctx, routed by the session's executor mode.
func (s *Session) Query(ctx context.Context, src string) (*Result, error) {
	b, err := s.eng.compile(src)
	if err != nil {
		return nil, err
	}
	return s.eng.exec(ctx, s, b, src, nil)
}

// QueryPlan executes a logical plan.Query directly — the programmatic
// entry point for callers (benchmarks, experiments) that build plans
// without SQL text. Routing, admission control and contention charging are
// identical to Query.
func (s *Session) QueryPlan(ctx context.Context, q plan.Query) (*Result, error) {
	return s.eng.exec(ctx, s, &sql.Binding{Query: q}, "(plan.Query on "+q.Table+")", nil)
}

// Prepare compiles a statement into a reusable Stmt bound to this session.
// The source may contain $1..$9 placeholders wherever the grammar takes a
// numeric literal; it is parsed once, here, and Stmt.Exec binds the parsed
// statement with that call's parameters. Compilation errors surface here,
// not at first Exec: a parameterized statement is bound against dummies.
func (s *Session) Prepare(ctx context.Context, src string) (*Stmt, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ast, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	st := &Stmt{sess: s, src: src}
	if ast.Params == 0 {
		_, err = s.eng.compile(src)
		return st, err
	}
	// Every literal position in the grammar is numeric, so binding 1 for
	// each placeholder exercises the whole binder.
	st.ast = ast
	dummies := make([]sql.Lit, ast.Params)
	for i := range dummies {
		dummies[i] = sql.Lit{V: 1, Scale: 1}
	}
	_, err = sql.BindParams(ast, s.eng.cat, dummies)
	return st, err
}

// PrepareNamed compiles a statement and stores it under name for Stmt
// lookup (the \prepare / \run protocol surface).
func (s *Session) PrepareNamed(ctx context.Context, name, src string) (*Stmt, error) {
	st, err := s.Prepare(ctx, src)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.prepared[name] = st
	s.mu.Unlock()
	return st, nil
}

// Stmt returns a statement previously stored with PrepareNamed.
func (s *Session) Stmt(name string) (*Stmt, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.prepared[name]
	return st, ok
}

// ToggleCost flips the cost-report toggle and returns the new state.
func (s *Session) ToggleCost() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cost = !s.cost
	return s.cost
}

// Cost reports whether cost reporting is on.
func (s *Session) Cost() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cost
}

// Mode returns the session's executor mode.
func (s *Session) Mode() Mode {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mode
}

// SetMode sets the executor mode.
func (s *Session) SetMode(m Mode) {
	s.mu.Lock()
	s.mode = m
	s.mu.Unlock()
}

// SetModeName sets the executor mode from its text form.
func (s *Session) SetModeName(name string) error {
	m, err := ParseMode(name)
	if err != nil {
		return err
	}
	s.SetMode(m)
	return nil
}

// Close deregisters the session from its engine. Closing is idempotent;
// a closed session can still execute (it just no longer counts as active).
func (s *Session) Close() error {
	s.eng.dropSession(s.ID)
	return nil
}

// Stmt is a prepared statement bound to a session. One without placeholders
// is its text: Exec resolves it through the shared plan cache like Query
// does, which also notices a table dropped or re-created in between. A
// parameterized one holds the parsed statement, bound anew on every Exec —
// bypassing the plan cache, whose LRU per-parameter-set entries would only
// thrash.
type Stmt struct {
	sess *Session
	src  string
	ast  *sql.Stmt // set iff the statement takes parameters; never mutated
}

// Exec executes the prepared statement under ctx. For parameterized
// statements (src containing $1..$9), params supplies one literal per
// placeholder — int, int64, float64 or the text of a numeric literal.
func (st *Stmt) Exec(ctx context.Context, params ...any) (*Result, error) {
	eng := st.sess.eng
	if st.ast == nil {
		if len(params) != 0 {
			return nil, fmt.Errorf("engine: statement takes 0 parameters, got %d", len(params))
		}
		return st.sess.Query(ctx, st.src)
	}
	if len(params) != st.ast.Params {
		return nil, fmt.Errorf("engine: statement takes %d parameters, got %d", st.ast.Params, len(params))
	}
	lits := make([]sql.Lit, len(params))
	for i, p := range params {
		text, isText := p.(string)
		if f, isFloat := p.(float64); isFloat {
			text = strconv.FormatFloat(f, 'f', -1, 64)
		} else if !isText {
			text = fmt.Sprint(p)
		}
		var err error
		if lits[i], err = sql.ParseLit(text); err != nil {
			return nil, fmt.Errorf("engine: parameter $%d: %w", i+1, err)
		}
	}
	b, err := sql.BindParams(st.ast, eng.cat, lits)
	if err != nil {
		return nil, err
	}
	return eng.exec(ctx, st.sess, b, st.src, params)
}
