package durable

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/bat"
	"repro/internal/store"
)

// Record kinds. A WAL frame carries exactly one logical write: the DML
// statements (INSERT, DELETE, CREATE TABLE) plus the store DDL that shapes
// recovery (bwdecompose, FK index builds, drops). Merges are deliberately
// NOT logged — a merge changes the physical base/delta split but never the
// logical row content, so replaying the unmerged history from the last
// checkpoint reconstructs an equivalent state.
const (
	recCreate     byte = 1 // CREATE TABLE: schema definition
	recInsert     byte = 2 // INSERT: row-major values in schema order
	recDelete     byte = 3 // DELETE: conjunction of closed ranges
	recDecompose  byte = 4 // bwdecompose(col, bits)
	recFKIndex    byte = 5 // FK (primary-key) index build
	recDrop       byte = 6 // DROP TABLE
	recCreatePart byte = 7 // CREATE TABLE ... PARTITION BY: schema + spec
)

// Record is one decoded WAL entry. Which fields are meaningful depends on
// Type; Table is always set.
type Record struct {
	LSN   uint64
	Type  byte
	Table string

	Defs  []store.ColumnDef // recCreate, recCreatePart
	Rows  [][]int64         // recInsert (schema order)
	Preds []store.Range     // recDelete (conjunction; empty = all rows)
	Col   string            // recDecompose, recFKIndex, recCreatePart (partition column)
	Bits  uint              // recDecompose

	PartKind byte // recCreatePart: shard.Kind
	PartN    int  // recCreatePart: partition count
}

func (r Record) kindString() string {
	switch r.Type {
	case recCreate:
		return "create"
	case recInsert:
		return "insert"
	case recDelete:
		return "delete"
	case recDecompose:
		return "decompose"
	case recFKIndex:
		return "fkindex"
	case recDrop:
		return "drop"
	case recCreatePart:
		return "createpart"
	default:
		return fmt.Sprintf("type(%d)", r.Type)
	}
}

// Payload limits. Decoding validates counts against the remaining payload
// before allocating, so a corrupt or adversarial length prefix cannot ask
// for unbounded memory (the FuzzWALDecode target exercises exactly this).
const (
	maxNameLen = 1 << 10
	maxPayload = 1 << 30
)

func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func takeString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("durable: truncated string length")
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if n > maxNameLen {
		return "", nil, fmt.Errorf("durable: string length %d exceeds limit", n)
	}
	if len(b) < n {
		return "", nil, fmt.Errorf("durable: truncated string body")
	}
	return string(b[:n]), b[n:], nil
}

// encodeRecord serializes a record payload (the CRC-covered frame body):
// LSN, type, table name, then the type-specific fields, all little-endian.
func encodeRecord(r Record) ([]byte, error) { return appendRecord(nil, r) }

// appendRecord appends r's payload to b, growing it once to the size the
// record needs (an INSERT is 8 bytes a value; everything else is small).
func appendRecord(b []byte, r Record) ([]byte, error) {
	if len(r.Table) == 0 || len(r.Table) > maxNameLen {
		return nil, fmt.Errorf("durable: table name length %d out of range", len(r.Table))
	}
	need := 64 + len(r.Table)
	if len(r.Rows) > 0 {
		need += 8 * len(r.Rows) * len(r.Rows[0])
	}
	b = slices.Grow(b, need)
	b = binary.LittleEndian.AppendUint64(b, r.LSN)
	b = append(b, r.Type)
	b = appendString(b, r.Table)
	switch r.Type {
	case recCreate, recCreatePart:
		if len(r.Defs) > math.MaxUint16 {
			return nil, fmt.Errorf("durable: %d column definitions exceed frame limit", len(r.Defs))
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(len(r.Defs)))
		for _, d := range r.Defs {
			b = appendString(b, d.Name)
			b = binary.LittleEndian.AppendUint64(b, uint64(d.Scale))
			b = append(b, byte(d.Width))
		}
		if r.Type == recCreatePart {
			if r.PartN < 1 || r.PartN > math.MaxUint16 {
				return nil, fmt.Errorf("durable: partition count %d out of range", r.PartN)
			}
			b = appendString(b, r.Col)
			b = append(b, r.PartKind)
			b = binary.LittleEndian.AppendUint16(b, uint16(r.PartN))
		}
	case recInsert:
		stride := 0
		if len(r.Rows) > 0 {
			stride = len(r.Rows[0])
		}
		if stride > math.MaxUint16 {
			return nil, fmt.Errorf("durable: row stride %d exceeds frame limit", stride)
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Rows)))
		b = binary.LittleEndian.AppendUint16(b, uint16(stride))
		for _, row := range r.Rows {
			if len(row) != stride {
				return nil, fmt.Errorf("durable: ragged insert rows (%d values, stride %d)", len(row), stride)
			}
			for _, v := range row {
				b = binary.LittleEndian.AppendUint64(b, uint64(v))
			}
		}
	case recDelete:
		if len(r.Preds) > math.MaxUint16 {
			return nil, fmt.Errorf("durable: %d predicates exceed frame limit", len(r.Preds))
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(len(r.Preds)))
		for _, p := range r.Preds {
			b = appendString(b, p.Col)
			b = binary.LittleEndian.AppendUint64(b, uint64(p.Lo))
			b = binary.LittleEndian.AppendUint64(b, uint64(p.Hi))
		}
	case recDecompose:
		b = appendString(b, r.Col)
		b = append(b, byte(r.Bits))
	case recFKIndex:
		b = appendString(b, r.Col)
	case recDrop:
		// table name only
	default:
		return nil, fmt.Errorf("durable: unknown record type %d", r.Type)
	}
	return b, nil
}

// DecodeRecord parses one frame payload. It never panics on malformed
// input and never allocates more than the payload itself can describe.
func DecodeRecord(b []byte) (Record, error) {
	var r Record
	if len(b) > maxPayload {
		return r, fmt.Errorf("durable: payload %d bytes exceeds limit", len(b))
	}
	if len(b) < 9 {
		return r, fmt.Errorf("durable: truncated record header")
	}
	r.LSN = binary.LittleEndian.Uint64(b)
	r.Type = b[8]
	b = b[9:]
	var err error
	if r.Table, b, err = takeString(b); err != nil {
		return r, err
	}
	if r.Table == "" {
		return r, fmt.Errorf("durable: empty table name")
	}
	switch r.Type {
	case recCreate, recCreatePart:
		if len(b) < 2 {
			return r, fmt.Errorf("durable: truncated column count")
		}
		n := int(binary.LittleEndian.Uint16(b))
		b = b[2:]
		r.Defs = make([]store.ColumnDef, 0, min(n, 256))
		for i := 0; i < n; i++ {
			var d store.ColumnDef
			if d.Name, b, err = takeString(b); err != nil {
				return r, err
			}
			if len(b) < 9 {
				return r, fmt.Errorf("durable: truncated column definition")
			}
			d.Scale = int64(binary.LittleEndian.Uint64(b))
			d.Width = int(b[8])
			b = b[9:]
			if !bat.ValidWidth(d.Width) {
				// Replay builds the table with bat.NewDense, which panics on
				// a bad width; a CRC-valid corrupted byte must surface as a
				// decode error, not crash recovery.
				return r, fmt.Errorf("durable: column %s.%s has width %d", r.Table, d.Name, d.Width)
			}
			r.Defs = append(r.Defs, d)
		}
		if r.Type == recCreatePart {
			if r.Col, b, err = takeString(b); err != nil {
				return r, err
			}
			if len(b) < 3 {
				return r, fmt.Errorf("durable: truncated partition spec")
			}
			r.PartKind = b[0]
			r.PartN = int(binary.LittleEndian.Uint16(b[1:]))
			b = b[3:]
			if r.PartN < 1 {
				return r, fmt.Errorf("durable: partition count %d out of range", r.PartN)
			}
		}
	case recInsert:
		if len(b) < 6 {
			return r, fmt.Errorf("durable: truncated insert header")
		}
		n := int(binary.LittleEndian.Uint32(b))
		stride := int(binary.LittleEndian.Uint16(b[4:]))
		b = b[6:]
		need := n * stride * 8
		if (stride == 0) != (n == 0) {
			return r, fmt.Errorf("durable: insert shape %d rows x %d columns", n, stride)
		}
		if need != len(b) {
			return r, fmt.Errorf("durable: insert body %d bytes, %d rows x %d columns need %d", len(b), n, stride, need)
		}
		vals := make([]int64, n*stride)
		for i := range vals {
			vals[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
		}
		r.Rows = make([][]int64, n)
		for i := range r.Rows {
			r.Rows[i] = vals[i*stride : (i+1)*stride]
		}
		b = b[need:]
	case recDelete:
		if len(b) < 2 {
			return r, fmt.Errorf("durable: truncated predicate count")
		}
		n := int(binary.LittleEndian.Uint16(b))
		b = b[2:]
		r.Preds = make([]store.Range, 0, min(n, 256))
		for i := 0; i < n; i++ {
			var p store.Range
			if p.Col, b, err = takeString(b); err != nil {
				return r, err
			}
			if len(b) < 16 {
				return r, fmt.Errorf("durable: truncated predicate bounds")
			}
			p.Lo = int64(binary.LittleEndian.Uint64(b))
			p.Hi = int64(binary.LittleEndian.Uint64(b[8:]))
			b = b[16:]
			r.Preds = append(r.Preds, p)
		}
	case recDecompose:
		if r.Col, b, err = takeString(b); err != nil {
			return r, err
		}
		if len(b) < 1 {
			return r, fmt.Errorf("durable: truncated decompose bits")
		}
		r.Bits = uint(b[0])
		b = b[1:]
	case recFKIndex:
		if r.Col, b, err = takeString(b); err != nil {
			return r, err
		}
	case recDrop:
		// table name only
	default:
		return r, fmt.Errorf("durable: unknown record type %d", r.Type)
	}
	if len(b) != 0 {
		return r, fmt.Errorf("durable: %d trailing bytes after %s record", len(b), r.kindString())
	}
	return r, nil
}
