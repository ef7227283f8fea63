package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bat"
	"repro/internal/bitpack"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/store"
)

// Segment files persist one table's immutable base segment as a checkpoint
// captured it: the schema (with fixed-point scales and physical widths),
// the raw column tails, and — for decomposed columns — the bitwise
// decomposition parameters plus the bit-packed approximation and residual
// planes verbatim, so boot re-allocates device memory but re-decomposes
// nothing. FK-indexed columns are marked and their (strictly dense) index
// is rebuilt at load; deltas are never part of a segment — they replay
// from the WAL tail.
//
// The file name is <table>.<checkpoint LSN, %016x>.seg so the newest
// segment per table sorts last lexically; the whole body is covered by a
// trailing CRC32 and written via temp file + fsync + rename, so a reader
// either sees a complete, verified segment or ignores the file.
var segMagic = [8]byte{'A', 'R', 'S', 'E', 'G', '0', '0', '1'}

const segVersion = 1

// segName returns the file name of a table's segment at a checkpoint LSN.
func segName(table string, lsn uint64) string {
	return fmt.Sprintf("%s.%016x.seg", table, lsn)
}

// parseSegName splits a segment file name into table and checkpoint LSN.
func parseSegName(name string) (table string, lsn uint64, ok bool) {
	rest, found := strings.CutSuffix(name, ".seg")
	if !found {
		return "", 0, false
	}
	i := strings.LastIndexByte(rest, '.')
	if i <= 0 || len(rest)-i-1 != 16 {
		return "", 0, false
	}
	n, err := strconv.ParseUint(rest[i+1:], 16, 64)
	if err != nil {
		return "", 0, false
	}
	return rest[:i], n, true
}

// encodeSegment streams a table's post-merge state to w and returns the
// bytes written. The snapshot must be pure base (the checkpoint merged
// first); lsn is the WAL horizon the segment covers. The encoding goes
// through one fixed buffer with a running checksum, so a checkpoint holds
// neither a second copy of the partition nor one object per stored value.
func encodeSegment(w io.Writer, t *store.Table, snap *store.Snapshot, lsn uint64) (int64, error) {
	if snap.DeltaLen() > 0 || snap.DeletedCount() > 0 {
		return 0, fmt.Errorf("durable: segment of %s would drop %d delta rows / %d deletions (merge first)", t.Name(), snap.DeltaLen(), snap.DeletedCount())
	}
	schema := t.Schema()
	decBits := t.DecBits()
	pkCols := t.PKCols()
	b := segWriter{w: w, buf: make([]byte, 0, 64<<10)}
	b.bytes(segMagic[:])
	b.u32(segVersion)
	b.u64(lsn)
	b.u64(uint64(snap.BaseLen()))
	b.u16(uint16(len(schema)))
	for i, def := range schema {
		b.str(def.Name)
		b.u64(uint64(def.Scale))
		b.u8(byte(def.Width))
		b.u8(byte(decBits[i]))
		if pkCols[i] {
			b.u8(1)
		} else {
			b.u8(0)
		}
	}
	for _, def := range schema {
		col, err := snap.Column(def.Name)
		if err != nil {
			return 0, err
		}
		for _, v := range col.Tails() {
			b.u64(uint64(v))
		}
		d := snap.Dec(def.Name)
		if d == nil {
			b.u8(0)
			continue
		}
		b.u8(1)
		b.u64(uint64(d.Dec.Base))
		b.u8(byte(d.Dec.TotalBits))
		b.u8(byte(d.Dec.ApproxBits))
		b.u8(byte(d.Dec.ResBits))
		b.u8(byte(d.Dec.Width))
		for _, plane := range []*bitpack.Array{d.Approx, d.Residual} {
			words := plane.Words()
			b.u64(uint64(len(words)))
			for _, word := range words {
				b.u64(word)
			}
		}
	}
	b.flush()
	b.u32(b.crc) // the trailer covers everything before it
	b.flush()
	return b.n, b.err
}

// segWriter is encodeSegment's output side: little-endian appends into a
// fixed buffer that drains to w when full, folding every drained byte into
// the running CRC. The first write error sticks and is returned at the end.
type segWriter struct {
	w   io.Writer
	buf []byte
	crc uint32
	n   int64
	err error
}

func (b *segWriter) flush() {
	b.crc = crc32.Update(b.crc, crcTable, b.buf)
	if b.err == nil {
		_, b.err = b.w.Write(b.buf)
	}
	b.n += int64(len(b.buf))
	b.buf = b.buf[:0]
}

// room makes space for n more bytes (n is far below the buffer's size).
func (b *segWriter) room(n int) {
	if len(b.buf)+n > cap(b.buf) {
		b.flush()
	}
}

func (b *segWriter) u8(v byte)    { b.room(1); b.buf = append(b.buf, v) }
func (b *segWriter) u16(v uint16) { b.room(2); b.buf = binary.LittleEndian.AppendUint16(b.buf, v) }
func (b *segWriter) u32(v uint32) { b.room(4); b.buf = binary.LittleEndian.AppendUint32(b.buf, v) }
func (b *segWriter) u64(v uint64) { b.room(8); b.buf = binary.LittleEndian.AppendUint64(b.buf, v) }

func (b *segWriter) bytes(p []byte) {
	b.room(len(p))
	b.buf = append(b.buf, p...)
}

// str appends a length-prefixed name, as appendString lays it out.
func (b *segWriter) str(s string) {
	b.u16(uint16(len(s)))
	b.room(len(s))
	b.buf = append(b.buf, s...)
}

// segState is a decoded segment file, ready to restore into a store.Table.
type segState struct {
	lsn     uint64
	schema  []store.ColumnDef
	cols    []*bat.BAT
	decs    []*bwd.Column
	decBits []uint
	pkCols  []bool
}

// decodeSegment parses and verifies a segment file body. sys provides the
// simulated device allocations for restored decompositions; nil skips them
// (validation-only paths).
func decodeSegment(data []byte, sys *device.System) (*segState, error) {
	if len(data) < len(segMagic)+4+8+8+2+4 {
		return nil, fmt.Errorf("durable: segment file too short (%d bytes)", len(data))
	}
	if !bytes.Equal(data[:len(segMagic)], segMagic[:]) {
		return nil, fmt.Errorf("durable: bad segment magic")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("durable: segment checksum mismatch")
	}
	b := body[len(segMagic):]
	le := binary.LittleEndian
	if v := le.Uint32(b); v != segVersion {
		return nil, fmt.Errorf("durable: unsupported segment version %d", v)
	}
	st := &segState{lsn: le.Uint64(b[4:])}
	n := int(le.Uint64(b[12:]))
	ncols := int(le.Uint16(b[20:]))
	b = b[22:]
	// Bound n by what the body could possibly hold (each column tail costs
	// n*8 bytes): an absurd count from a corrupted-but-CRC-valid file must
	// error here, not overflow the later n*8 size checks or panic in make.
	if n < 0 || ncols == 0 || n > len(b)/8 {
		return nil, fmt.Errorf("durable: segment shape %d rows x %d columns", n, ncols)
	}
	var err error
	for i := 0; i < ncols; i++ {
		var def store.ColumnDef
		if def.Name, b, err = takeString(b); err != nil {
			return nil, err
		}
		if len(b) < 11 {
			return nil, fmt.Errorf("durable: truncated segment column header")
		}
		def.Scale = int64(le.Uint64(b))
		def.Width = int(b[8])
		if !bat.ValidWidth(def.Width) {
			// bat.NewDense panics on bad widths; a CRC-valid corrupted
			// byte must surface as a decode error, not crash Open.
			return nil, fmt.Errorf("durable: segment column %s has width %d", def.Name, def.Width)
		}
		st.schema = append(st.schema, def)
		st.decBits = append(st.decBits, uint(b[9]))
		st.pkCols = append(st.pkCols, b[10] != 0)
		b = b[11:]
	}
	takeWords := func() ([]uint64, error) {
		if len(b) < 8 {
			return nil, fmt.Errorf("durable: truncated plane length")
		}
		nw := int(le.Uint64(b))
		b = b[8:]
		// nw > len(b)/8 instead of len(b) < nw*8: the latter overflows on
		// a huge word count and would wave the allocation through.
		if nw < 0 || nw > len(b)/8 {
			return nil, fmt.Errorf("durable: truncated plane body")
		}
		words := make([]uint64, nw)
		for j := range words {
			words[j] = le.Uint64(b[j*8:])
		}
		b = b[nw*8:]
		return words, nil
	}
	for i := 0; i < ncols; i++ {
		if len(b) < n*8 {
			return nil, fmt.Errorf("durable: truncated column tail")
		}
		vals := make([]int64, n)
		for j := range vals {
			vals[j] = int64(le.Uint64(b[j*8:]))
		}
		b = b[n*8:]
		st.cols = append(st.cols, bat.NewDense(vals, st.schema[i].Width))
		if len(b) < 1 {
			return nil, fmt.Errorf("durable: truncated decomposition flag")
		}
		hasDec := b[0] != 0
		b = b[1:]
		if !hasDec {
			st.decs = append(st.decs, nil)
			continue
		}
		if len(b) < 12 {
			return nil, fmt.Errorf("durable: truncated decomposition parameters")
		}
		dec := bwd.Decomposition{
			Base:       int64(le.Uint64(b)),
			TotalBits:  uint(b[8]),
			ApproxBits: uint(b[9]),
			ResBits:    uint(b[10]),
			Width:      int(b[11]),
		}
		b = b[12:]
		aw, err := takeWords()
		if err != nil {
			return nil, err
		}
		rw, err := takeWords()
		if err != nil {
			return nil, err
		}
		approx, err := bitpack.FromWords(dec.ApproxBits, n, aw)
		if err != nil {
			return nil, fmt.Errorf("durable: approximation plane: %w", err)
		}
		res, err := bitpack.FromWords(dec.ResBits, n, rw)
		if err != nil {
			return nil, fmt.Errorf("durable: residual plane: %w", err)
		}
		d, err := bwd.Restore(dec, approx, res, sys)
		if err != nil {
			return nil, err
		}
		st.decs = append(st.decs, d)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("durable: %d trailing bytes in segment", len(b))
	}
	return st, nil
}

// writeSegment atomically persists a segment file: write streams the body
// into a temp name in the same directory and returns its size, then fsync,
// rename, directory fsync. It returns the final path and the file size.
func writeSegment(dir string, table string, lsn uint64, sync bool, write func(io.Writer) (int64, error)) (string, int64, error) {
	final := filepath.Join(dir, segName(table, lsn))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", 0, err
	}
	size, err := write(f)
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return "", 0, err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return "", 0, err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", 0, err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return "", 0, err
	}
	if sync {
		syncDir(dir)
	}
	return final, size, nil
}

// segFile is one discovered segment file.
type segFile struct {
	table string
	lsn   uint64
	path  string
}

// listSegments returns every segment file in dir grouped by table, sorted
// by ascending checkpoint LSN within each table.
func listSegments(dir string) (map[string][]segFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]segFile)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		table, lsn, ok := parseSegName(e.Name())
		if !ok {
			continue
		}
		out[table] = append(out[table], segFile{table: table, lsn: lsn, path: filepath.Join(dir, e.Name())})
	}
	for _, segs := range out {
		sort.Slice(segs, func(i, j int) bool { return segs[i].lsn < segs[j].lsn })
	}
	return out, nil
}
