package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
)

// Client is the tests' minimal client for the server's line protocol. It is
// not safe for concurrent use; open one client per goroutine (a client maps
// to one server session anyway).
type Client struct {
	conn net.Conn
	in   *bufio.Scanner
	out  *bufio.Writer
}

// Dial connects to a server at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	in := bufio.NewScanner(conn)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	return &Client{conn: conn, in: in, out: bufio.NewWriter(conn)}
}

// Query sends one statement or meta command and returns the payload lines.
// A server-side "error:" terminator is returned as an error.
func (c *Client) Query(stmt string) ([]string, error) {
	if strings.ContainsAny(stmt, "\n\r") {
		return nil, fmt.Errorf("client: statement must be a single line")
	}
	if _, err := c.out.WriteString(stmt + "\n"); err != nil {
		return nil, err
	}
	if err := c.out.Flush(); err != nil {
		return nil, err
	}
	var payload []string
	for c.in.Scan() {
		line := c.in.Text()
		if line == "ok" {
			return payload, nil
		}
		if msg, ok := strings.CutPrefix(line, "error: "); ok {
			return payload, fmt.Errorf("server: %s", msg)
		}
		payload = append(payload, strings.TrimPrefix(line, " "))
	}
	if err := c.in.Err(); err != nil {
		return payload, err
	}
	return payload, fmt.Errorf("client: connection closed mid-response")
}

// Close sends \q and closes the connection.
func (c *Client) Close() error {
	c.Query(`\q`)
	return c.conn.Close()
}
