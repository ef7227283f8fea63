package main

import (
	"bufio"
	"fmt"
	"net"
	"strings"
)

// client speaks arserve's line protocol: one statement per line out, payload
// lines back, terminated by "ok" or "error: <message>". It is the benchmark's
// own copy on purpose — the end-to-end driver depends on the wire format, not
// on the program's packages.
type client struct {
	conn net.Conn
	in   *bufio.Reader
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, in: bufio.NewReaderSize(conn, 1<<16)}, nil
}

// query sends one line and returns the payload, lines joined by "\n". An
// "error:" terminator comes back as an error.
func (c *client) query(line string) (string, error) {
	if _, err := c.conn.Write([]byte(line + "\n")); err != nil {
		return "", err
	}
	var payload strings.Builder
	for {
		l, err := c.in.ReadString('\n')
		if err != nil {
			return "", fmt.Errorf("reading reply to %.60q: %w", line, err)
		}
		l = strings.TrimSuffix(l, "\n")
		if l == "ok" {
			return payload.String(), nil
		}
		if msg, ok := strings.CutPrefix(l, "error: "); ok {
			return "", fmt.Errorf("server: %s", msg)
		}
		if payload.Len() > 0 {
			payload.WriteByte('\n')
		}
		payload.WriteString(l)
	}
}

func (c *client) close() { c.conn.Close() }
