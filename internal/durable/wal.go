// Package durable is the persistence subsystem beneath the mutable column
// store: a write-ahead log for DML, versioned segment files for the
// immutable bit-sliced base segments, checkpoints wired into the merge
// lifecycle, and crash recovery that reloads the newest valid segment per
// table and replays the WAL tail into the delta.
//
// The division of labor mirrors the storage design (DESIGN.md §6): the
// base segment is immutable and page-friendly by construction, so it
// persists as one atomically renamed file per checkpoint; the delta is a
// replayable suffix of the logical write history, so it persists as WAL
// records only. A checkpoint — taken when a merge has folded the delta
// into a fresh base — persists the new base with the LSN it covers, then
// proactively reclaims the waste it obsoleted: the replayed WAL prefix and
// the superseded segment files.
//
// Crash-safety invariants:
//
//  1. Write-ahead: a record reaches the WAL buffer before it is applied to
//     the in-memory store, and under the "always" fsync policy the append
//     does not return before the frame is fsynced (group commit: one fsync
//     covers every frame buffered while the previous fsync ran). A DML
//     statement is one record, whatever the number of partitions it
//     touches: recovered whole or not at all.
//  2. A frame is replayed only if its length and CRC32 check out; the
//     first invalid frame truncates the log (torn tail) — no frame is ever
//     accepted on a failed checksum, and nothing after a bad frame is
//     trusted.
//  3. Segment files are written to a temp name, fsynced, then renamed into
//     place; a crash mid-checkpoint leaves the previous segment and the
//     full WAL tail, never a half-written segment that parses.
//  4. A segment with checkpoint LSN L reflects exactly the records touching
//     its table with lsn <= L; recovery replays into it only records with
//     lsn > L, and no record is reclaimed from the log before every table
//     it touches has a segment at or past it.
package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// Policy selects when WAL appends are flushed to stable storage.
type Policy int

// Fsync policies.
const (
	// SyncAlways fsyncs before an append returns, with group commit:
	// appends that arrive while an fsync is in flight are covered together
	// by the next one.
	SyncAlways Policy = iota
	// SyncInterval fsyncs on a background ticker; appends return after the
	// buffered write. A crash loses at most one interval of acknowledged
	// writes.
	SyncInterval
	// SyncOff never fsyncs (the OS flushes at its leisure); appends return
	// after the buffered write reaches the file. Survives a process crash,
	// not a power failure.
	SyncOff
)

func (p Policy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy parses a policy from its flag form.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	default:
		return SyncAlways, fmt.Errorf("durable: unknown fsync policy %q (always, interval, off)", s)
	}
}

var walMagic = [8]byte{'A', 'R', 'W', 'A', 'L', '0', '0', '1'}

// frameHeaderLen is the per-frame prefix: payload length (u32) + CRC32 of
// the payload (u32).
const frameHeaderLen = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// WALPath returns the write-ahead log path inside a data directory.
func WALPath(dir string) string { return filepath.Join(dir, "wal.log") }

// wal is the write-ahead log: an append-only file of length-prefixed,
// CRC32-checksummed frames behind a group-commit gate.
type wal struct {
	path     string
	observer func(time.Duration) // optional fsync latency observer
	policy   Policy

	mu      sync.Mutex
	cond    *sync.Cond
	f       *os.File
	size    int64 // current file size (header + frames)
	next    uint64
	records int64 // frames currently in the file
	appends int64 // frames appended since open
	fsyncs  int64

	// Group-commit state: written is the highest LSN flushed to the OS,
	// synced the highest LSN known fsynced; one goroutine at a time holds
	// syncing and fsyncs outside the lock while followers buffer and wait.
	written uint64
	synced  uint64
	syncing bool
	syncErr error

	closed   bool
	stopTick chan struct{}
}

// replayFn receives each valid frame during open-time replay, with the
// file offset one past the frame (the commit horizon of that record).
type replayFn func(rec Record, endOffset int64) error

// openWAL opens (creating if absent) the log at path, replays every valid
// frame through replay, truncates a torn tail, and leaves the file
// positioned for appends. It returns the bytes discarded by truncation.
//
// lsnFloor seeds the next-LSN counter at lsnFloor+1: checkpoints drop
// covered frames, so after one empties the log the highest assigned LSN
// survives only in the segment files' checkpoint LSNs. Without the floor a
// reopen would hand out LSNs below those horizons and the next recovery
// would skip the records as already covered. Frames found in the log raise
// the counter further as usual.
func openWAL(path string, policy Policy, interval time.Duration, observer func(time.Duration), lsnFloor uint64, replay replayFn) (*wal, int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, err
	}
	w := &wal{path: path, policy: policy, observer: observer, f: f, next: lsnFloor + 1}
	w.cond = sync.NewCond(&w.mu)

	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	if st.Size() == 0 {
		if _, err := f.Write(walMagic[:]); err != nil {
			f.Close()
			return nil, 0, err
		}
		w.size = int64(len(walMagic))
	} else {
		var magic [8]byte
		if _, err := io.ReadFull(f, magic[:]); err != nil || magic != walMagic {
			f.Close()
			return nil, 0, fmt.Errorf("durable: %s is not a WAL file", path)
		}
		good, truncated, err := w.scan(bufio.NewReaderSize(f, 64<<10), replay)
		if err != nil {
			f.Close()
			return nil, 0, err
		}
		if truncated > 0 {
			if err := f.Truncate(good); err != nil {
				f.Close()
				return nil, 0, fmt.Errorf("durable: truncating torn WAL tail: %w", err)
			}
		}
		w.size = good
		if _, err := f.Seek(good, io.SeekStart); err != nil {
			f.Close()
			return nil, 0, err
		}
		return w.start(interval), truncated, nil
	}
	return w.start(interval), 0, nil
}

func (w *wal) start(interval time.Duration) *wal {
	if w.policy == SyncInterval {
		if interval <= 0 {
			interval = 10 * time.Millisecond
		}
		w.stopTick = make(chan struct{})
		go func() {
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-w.stopTick:
					return
				case <-tick.C:
					w.Sync()
				}
			}
		}()
	}
	return w
}

// scan reads frames from the current position, invoking replay for each
// valid one. It stops at the first frame whose length or checksum fails —
// the torn tail — and reports the offset of the last valid frame end plus
// the number of bytes after it.
func (w *wal) scan(r io.Reader, replay replayFn) (good, truncated int64, err error) {
	br := &countingReader{r: r}
	good = int64(len(walMagic))
	var header [frameHeaderLen]byte
	for {
		if _, err := io.ReadFull(br, header[:]); err != nil {
			// Clean EOF or a torn header: everything before is good.
			break
		}
		n := binary.LittleEndian.Uint32(header[:4])
		crc := binary.LittleEndian.Uint32(header[4:])
		if n == 0 || n > maxPayload {
			break
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			break
		}
		if crc32.Checksum(payload, crcTable) != crc {
			break
		}
		rec, derr := DecodeRecord(payload)
		if derr != nil {
			break
		}
		good += frameHeaderLen + int64(n)
		w.records++
		if rec.LSN >= w.next {
			w.next = rec.LSN + 1
		}
		if replay != nil {
			if err := replay(rec, good); err != nil {
				return 0, 0, err
			}
		}
	}
	return good, br.n + int64(len(walMagic)) - good, nil
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func encodeFrame(rec Record) ([]byte, error) {
	frame, err := appendRecord(make([]byte, frameHeaderLen), rec)
	if err != nil {
		return nil, err
	}
	payload := frame[frameHeaderLen:]
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
	return frame, nil
}

// frameHead is what every record payload begins with — the LSN, the record
// type and the table it names. Log reclamation decides from these alone, so
// a rewrite never materializes a frame's rows. Table aliases the payload.
type frameHead struct {
	LSN   uint64
	Type  byte
	Table []byte
}

func parseFrameHead(payload []byte) (frameHead, error) {
	if len(payload) < 11 {
		return frameHead{}, fmt.Errorf("durable: truncated record header")
	}
	n := int(binary.LittleEndian.Uint16(payload[9:]))
	if n == 0 || n > maxNameLen || len(payload) < 11+n {
		return frameHead{}, fmt.Errorf("durable: record header names a table of %d bytes", n)
	}
	return frameHead{LSN: binary.LittleEndian.Uint64(payload), Type: payload[8], Table: payload[11 : 11+n]}, nil
}

// append assigns the next LSN to rec, writes its frame, and — under
// SyncAlways — blocks until the frame is fsynced (group commit). The
// caller-visible contract: when append returns nil under SyncAlways, the
// record survives kill -9.
func (w *wal) append(rec *Record) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return errors.New("durable: WAL is closed")
	}
	if w.syncErr != nil {
		err := w.syncErr
		w.mu.Unlock()
		return err
	}
	rec.LSN = w.next
	frame, err := encodeFrame(*rec)
	if err != nil {
		w.mu.Unlock()
		return err
	}
	w.next++
	if _, err := w.f.Write(frame); err != nil {
		w.syncErr = fmt.Errorf("durable: WAL append: %w", err)
		w.mu.Unlock()
		return err
	}
	w.size += int64(len(frame))
	w.records++
	w.appends++
	w.written = rec.LSN
	if w.policy != SyncAlways {
		w.mu.Unlock()
		return nil
	}
	err = w.waitSynced(rec.LSN)
	w.mu.Unlock()
	return err
}

// waitSynced blocks (w.mu held) until lsn is fsynced, electing this
// goroutine as the sync leader when no fsync is in flight. The leader
// drops the lock around the fsync itself, so followers keep appending into
// the OS buffer and are covered by the next leader — that is the group
// commit batching.
func (w *wal) waitSynced(lsn uint64) error {
	for w.synced < lsn {
		if w.syncErr != nil {
			return w.syncErr
		}
		if w.closed {
			return errors.New("durable: WAL closed while waiting for fsync")
		}
		if w.syncing {
			w.cond.Wait()
			continue
		}
		w.syncing = true
		target := w.written
		f := w.f
		w.mu.Unlock()
		start := time.Now()
		err := f.Sync()
		elapsed := time.Since(start)
		if w.observer != nil {
			w.observer(elapsed)
		}
		w.mu.Lock()
		w.syncing = false
		w.fsyncs++
		if err != nil {
			w.syncErr = fmt.Errorf("durable: WAL fsync: %w", err)
		} else if target > w.synced {
			w.synced = target
		}
		w.cond.Broadcast()
	}
	return w.syncErr
}

// Sync flushes and fsyncs whatever has been appended so far.
func (w *wal) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	return w.waitSynced(w.written)
}

// lastAssigned returns the most recently assigned LSN (0 when none).
func (w *wal) lastAssigned() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.next - 1
}

// rewrite drops every frame for which covered reports true — the frames a
// checkpoint made obsolete — by copying the surviving frames verbatim,
// checksum and all, to a temp file and atomically renaming it over the log.
// Appends are blocked for the duration, and covered runs under the log's
// lock: what it reads is at least as new as every frame it is asked about.
// The new file is fsynced before the rename so the swap never loses an
// uncovered frame. The log is read by offset (the append position never
// moves, so a failed rewrite leaves the log exactly as it was) and both
// sides are buffered: a frame costs no system call of its own. Nothing is
// written until a covered frame turns up — a checkpoint that frees no frame,
// as three of four do on a 4-way table whose statements touch every
// partition, costs one buffered read of the log.
func (w *wal) rewrite(covered func(frameHead) bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("durable: WAL is closed")
	}
	// An fsync in flight holds a reference to the old *os.File; wait it
	// out so the swap cannot race it.
	for w.syncing {
		w.cond.Wait()
	}
	tmpPath := w.path + ".tmp"
	var tmp *os.File
	var dst *bufio.Writer
	cleanup := func(err error) error {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmpPath)
		}
		return err
	}
	const bufSize = 64 << 10
	magicLen := int64(len(walMagic))
	src := bufio.NewReaderSize(io.NewSectionReader(w.f, magicLen, w.size-magicLen), bufSize)
	at, size, kept := magicLen, magicLen, int64(0) // at: the frame's offset in the log
	var header [frameHeaderLen]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(src, header[:]); err == io.EOF {
			break
		} else if err != nil {
			return cleanup(fmt.Errorf("durable: WAL rewrite: frame header at offset %d: %w", at, err))
		}
		n := binary.LittleEndian.Uint32(header[:4])
		if n == 0 || n > maxPayload {
			return cleanup(fmt.Errorf("durable: WAL rewrite: frame of %d bytes at offset %d of the committed log", n, at))
		}
		payload = slices.Grow(payload[:0], int(n))[:n]
		if _, err := io.ReadFull(src, payload); err != nil {
			return cleanup(fmt.Errorf("durable: WAL rewrite: frame body at offset %d: %w", at, err))
		}
		head, err := parseFrameHead(payload)
		if err != nil {
			return cleanup(err)
		}
		frameLen := frameHeaderLen + int64(n)
		switch {
		case !covered(head):
			if dst != nil {
				dst.Write(header[:]) // a bufio.Writer keeps its first error for Flush
				dst.Write(payload)
			}
			size += frameLen
			kept++
		case dst == nil:
			// The first frame to drop: only now is there anything to write.
			// The log up to here stays as it is, copied in one piece.
			if tmp, err = os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644); err != nil {
				return err
			}
			dst = bufio.NewWriterSize(tmp, bufSize)
			if _, err := io.Copy(dst, io.NewSectionReader(w.f, 0, at)); err != nil {
				return cleanup(err)
			}
		}
		at += frameLen
	}
	if dst == nil {
		return nil // nothing is covered: the log stays untouched
	}
	if err := dst.Flush(); err != nil {
		return cleanup(err)
	}
	if w.policy != SyncOff {
		if err := tmp.Sync(); err != nil {
			return cleanup(err)
		}
	}
	if err := tmp.Close(); err != nil {
		return cleanup(err)
	}
	if err := os.Rename(tmpPath, w.path); err != nil {
		return cleanup(err)
	}
	// Past the rename, the old fd points at the replaced (unlinked) inode;
	// if the new file cannot be adopted, appends must fail rather than
	// write into a file nobody will ever read again.
	f, err := os.OpenFile(w.path, os.O_RDWR, 0o644)
	if err != nil {
		w.syncErr = fmt.Errorf("durable: reopening WAL after rewrite: %w", err)
		return w.syncErr
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		w.syncErr = fmt.Errorf("durable: reopening WAL after rewrite: %w", err)
		return w.syncErr
	}
	syncDir(filepath.Dir(w.path))
	w.f.Close()
	w.f = f
	w.size = size
	w.records = kept
	// Frames surviving the rewrite were durable before it (the checkpoint
	// fsynced); the rewritten file was fsynced above, so the horizon holds.
	w.written = w.next - 1
	w.synced = w.next - 1
	w.cond.Broadcast()
	return nil
}

// Close fsyncs (unless SyncOff) and closes the log.
func (w *wal) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	var err error
	if w.policy != SyncOff {
		err = w.waitSynced(w.written)
	}
	if w.stopTick != nil {
		close(w.stopTick)
	}
	w.closed = true
	cerr := w.f.Close()
	w.cond.Broadcast()
	w.mu.Unlock()
	if err != nil {
		return err
	}
	return cerr
}

// syncDir best-effort fsyncs a directory so a rename within it is durable.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
