// Package server is the line-protocol TCP adapter over the embeddable
// query engine (internal/engine). All query semantics — sessions, executor
// routing, admission control, plan caching, meter accounting — live in the
// engine; the server only owns the wire: accepting connections, framing
// request lines, and rendering responses. Any other front-end (HTTP,
// replication, batching) would be a sibling adapter of the same shape.
//
// # Protocol
//
// The wire protocol is line-oriented text, like a stripped-down psql. The
// client sends one statement (or meta command) per line; the server
// responds with zero or more payload lines followed by exactly one
// terminator line, either "ok" or "error: <message>". Meta commands:
//
//	\cost                toggle the per-query simulated cost report
//	\mode [auto|ar|classic]   show or set the executor routing mode
//	\tables              list tables, segment sizes and columns
//	\stats               plan cache, scheduler, store, and meter totals
//	\merge [table]       force-merge delta segments into the base
//	\explain <sql>       render the physical pipeline without executing
//	\explain analyze <sql>    execute and render the pipeline with actuals
//	\metrics             Prometheus-text dump of the engine metrics registry
//	\slow [<dur>|off]    show / arm / disarm the slow-query log
//	\prepare <name> <sql>     compile and store a statement
//	\run <name> [params...]   execute a prepared statement
//	\q                   close the connection
//
// When the engine rejects an A&R query with engine.ErrOverloaded, the
// error reply is preceded by a "hint:" payload line carrying the retry
// guidance, so protocol clients can back off without parsing error text.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"

	"repro/internal/engine"
)

// Server serves the engine's SQL surface over TCP.
type Server struct {
	eng *engine.Engine

	// ctx is the serving context: Close cancels it, which aborts every
	// in-flight query at its next cooperative checkpoint (or slot wait).
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// New returns a protocol adapter over an engine. The engine may be shared
// with other front-ends; each connection gets its own engine session.
func New(eng *engine.Engine) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		eng:    eng,
		ctx:    ctx,
		cancel: cancel,
		conns:  make(map[net.Conn]struct{}),
	}
}

// Engine returns the engine the server adapts.
func (s *Server) Engine() *engine.Engine { return s.eng }

// ListenAndServe listens on addr ("host:port") and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Serve accepts connections on l until Close. It returns nil after Close,
// or the first accept error otherwise.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return errors.New("server: already closed")
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		// Register with the WaitGroup before releasing the lock: Close
		// holds the lock while it observes `closed`, so it can never pass
		// wg.Wait between this conn's registration and its Add.
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// Addr returns the listen address, once Serve has been called.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return nil
	}
	return s.listener.Addr()
}

// Close stops accepting, cancels in-flight queries, closes every live
// connection, and waits for the connection handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	l := s.listener
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.cancel()
	var err error
	if l != nil {
		err = l.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) serveConn(conn net.Conn) {
	sess := s.eng.Session()
	// Per-connection context under the serving context: cancelled when the
	// client goes away (or the server closes), so an abandoned query stops
	// at its next checkpoint instead of running to completion and holding
	// its scheduler slot for a dead client.
	ctx, cancel := context.WithCancel(s.ctx)
	defer func() {
		cancel()
		sess.Close()
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	in := bufio.NewScanner(conn)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	out := bufio.NewWriter(conn)

	// Read in a separate goroutine: while a statement executes, the reader
	// waits on the next conn read (or on handing over the next pipelined
	// line), so a torn-down connection surfaces as a read error right away
	// and cancels the in-flight query through ctx. A clean EOF is NOT a
	// cancellation signal: a one-shot client may half-close its write side
	// and still be reading responses, so pending statements are drained
	// and answered; only a read error (reset, over-long line) proves the
	// peer is gone or misbehaving.
	lines := make(chan string)
	var scanErr error
	go func() {
		defer close(lines)
		for in.Scan() {
			select {
			case lines <- strings.TrimSpace(in.Text()):
			case <-ctx.Done():
				return
			}
		}
		if err := in.Err(); err != nil {
			scanErr = err // published by close(lines), consumed after range
			cancel()
		}
	}()

	for line := range lines {
		if line == "" {
			continue
		}
		quit := s.handleLine(ctx, out, sess, line)
		if out.Flush() != nil || quit {
			return
		}
	}
	if scanErr != nil {
		// e.g. a statement line over the scanner buffer: terminate the
		// response properly so the client sees why instead of a bare EOF.
		writeError(out, scanErr)
		out.Flush()
	}
}

// handleLine serves one request line under the connection's context and
// reports whether the connection should close.
func (s *Server) handleLine(ctx context.Context, out *bufio.Writer, sess *engine.Session, line string) (quit bool) {
	lines, quit, handled, err := sess.Meta(ctx, line)
	if handled || quit {
		if err != nil {
			s.writeFailure(out, err)
			return false
		}
		for _, l := range lines {
			writePayload(out, l)
		}
		writeOK(out)
		return quit
	}
	res, err := sess.Query(ctx, line)
	if err != nil {
		s.writeFailure(out, err)
		return false
	}
	// A result's lines are rows, plan operators or a write's outcome: none
	// can read as a terminator, so they go to the wire as rendered.
	engine.WriteResult(out, res, sess.Cost())
	writeOK(out)
	return false
}

// writeFailure terminates a response with an error, preceded by a retry
// hint when the engine reports overload.
func (s *Server) writeFailure(out *bufio.Writer, err error) {
	if hint, ok := overloadHint(err); ok {
		writePayload(out, hint)
	}
	writeError(out, err)
}

// overloadHint returns the retry-hint payload line for admission-control
// rejections.
func overloadHint(err error) (string, bool) {
	var oe *engine.OverloadedError
	if !errors.As(err, &oe) {
		return "", false
	}
	return fmt.Sprintf("hint: A&R queue full (%d waiting / %d capacity); retry after backoff or switch to \\mode classic",
		oe.Waiting, oe.Queue), true
}

// writePayload emits one payload line, guaranteeing it can never be
// mistaken for a terminator.
func writePayload(out *bufio.Writer, line string) {
	if line == "ok" || strings.HasPrefix(line, "error:") {
		line = " " + line
	}
	out.WriteString(line)
	out.WriteByte('\n')
}

func writeOK(out *bufio.Writer) { out.WriteString("ok\n") }

func writeError(out *bufio.Writer, err error) {
	msg := strings.ReplaceAll(err.Error(), "\n", " ")
	fmt.Fprintf(out, "error: %s\n", msg)
}
