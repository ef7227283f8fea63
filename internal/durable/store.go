package durable

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/plan"
	"repro/internal/shard"
	"repro/internal/store"
)

// Config tunes a durable Store.
type Config struct {
	// Policy is the WAL fsync policy (default SyncAlways).
	Policy Policy
	// Interval is the fsync cadence under SyncInterval (default 10ms).
	Interval time.Duration
	// FsyncObserver, when set, receives the wall duration of every WAL
	// fsync — the engine wires it to the ar_wal_fsync_seconds histogram.
	FsyncObserver func(time.Duration)
}

// Exists reports whether dir already holds a durable state (a WAL or at
// least one segment file) — front-ends use it to skip preloading demo data
// when reopening a data directory.
func Exists(dir string) bool {
	if _, err := os.Stat(WALPath(dir)); err == nil {
		return true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if _, _, ok := parseSegName(e.Name()); ok && !e.IsDir() {
			return true
		}
	}
	return false
}

// Store is the durability coordinator for one catalog: it owns the data
// directory, the WAL, and the per-table checkpoint bookkeeping, and it
// implements plan.Durability so every catalog write flows write-ahead
// through it. One Store serves one data directory; open it via Open.
type Store struct {
	dir string
	cat *plan.Catalog
	wal *wal

	mu       sync.Mutex
	locks    map[string]*sync.Mutex // per-table: serializes {append+apply} vs {merge+persist}
	applied  map[string]uint64      // highest WAL LSN applied to each table
	ckpt     map[string]uint64      // WAL horizon covered by each table's segment state
	dropped  map[string]uint64      // drop LSN of dropped tables: frames at or below it are garbage
	hasSeg   map[string]bool        // a segment file exists for the table
	segBytes map[string]int64
	// parts maps every partitioned wrapper whose create record is in the WAL
	// to its partitions' names in index order. A statement on one is a frame
	// under the wrapper's name, which has no horizon of its own: pending
	// holds, per partition, a lower bound on the LSN of the first such frame
	// touching it since its last checkpoint (absent: none), and the frame is
	// reclaimable once it lies below every partition's (see covered).
	parts   map[string][]string
	pending map[string]uint64
	ckpts   int64

	// afterAppend, when set, runs once a statement's frame is durable and
	// before it is applied: the seam the in-flight reclamation test parks a
	// statement at.
	afterAppend func()

	recovery RecoveryStats
}

// RecoveryStats describes what one Open did to bring the catalog back.
type RecoveryStats struct {
	// TablesFromSegments is the number of tables restored from segment
	// files; InvalidSegments counts files that failed verification and
	// were ignored (an older valid segment, if any, is used instead).
	TablesFromSegments int
	InvalidSegments    int
	// Replayed is the number of WAL tail records applied into the catalog;
	// Skipped were already covered by a segment's checkpoint LSN; Failed
	// errored on apply deterministically (they failed identically when
	// first executed, so they are no-ops). Environmental apply failures —
	// device memory pressure at recovery time — fail Open instead of being
	// counted here, since those records succeeded when logged.
	Replayed int64
	Skipped  int64
	Failed   int64
	// TruncatedBytes is the torn WAL tail discarded after the last frame
	// with a valid length and checksum.
	TruncatedBytes int64
	// Adopted is the number of catalog tables (bulk-loaded before the
	// engine attached durability) persisted as initial segments.
	Adopted int
}

func (r RecoveryStats) String() string {
	return fmt.Sprintf("recovery: %d tables from segments (%d invalid ignored), replayed %d WAL records (%d covered, %d failed), %d torn bytes truncated, %d tables adopted",
		r.TablesFromSegments, r.InvalidSegments, r.Replayed, r.Skipped, r.Failed, r.TruncatedBytes, r.Adopted)
}

// Open mounts a data directory over a catalog: it loads the newest valid
// segment per table, replays the WAL tail (torn-tail truncated) into the
// catalog in LSN order, persists an initial segment for any catalog table
// the directory does not know (bulk loads that predate durability), and
// returns the coordinator ready to log new writes. The caller installs it
// with cat.SetDurability; Open itself applies records directly, so nothing
// is re-logged during recovery.
func Open(dir string, cat *plan.Catalog, cfg Config) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	removeStrayTemps(dir)
	s := &Store{
		dir:      dir,
		cat:      cat,
		locks:    make(map[string]*sync.Mutex),
		applied:  make(map[string]uint64),
		ckpt:     make(map[string]uint64),
		dropped:  make(map[string]uint64),
		hasSeg:   make(map[string]bool),
		segBytes: make(map[string]int64),
		parts:    make(map[string][]string),
		pending:  make(map[string]uint64),
	}

	// Phase 1: newest valid segment per table.
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for table, files := range segs {
		var restored bool
		for i := len(files) - 1; i >= 0 && !restored; i-- {
			data, err := os.ReadFile(files[i].path)
			if err != nil {
				s.recovery.InvalidSegments++
				continue
			}
			st, err := decodeSegment(data, cat.System())
			if err != nil {
				s.recovery.InvalidSegments++
				continue
			}
			t, err := store.Restore(table, st.schema, st.cols, st.decBits, st.pkCols, cat.System())
			if err != nil {
				return nil, fmt.Errorf("durable: restoring %s: %w", table, err)
			}
			if err := cat.Register(t); err != nil {
				return nil, fmt.Errorf("durable: %s exists in both the catalog and %s — skip preloading when reopening a data dir: %w", table, dir, err)
			}
			s.applied[table] = st.lsn
			s.ckpt[table] = st.lsn
			s.hasSeg[table] = true
			s.segBytes[table] = int64(len(data))
			s.recovery.TablesFromSegments++
			restored = true
			// Reclaim superseded (older) files now that a newer one loaded.
			for j := 0; j < i; j++ {
				os.Remove(files[j].path)
			}
		}
	}

	// Phase 2: replay the WAL tail in LSN order. The loaded segments'
	// checkpoint LSNs floor the WAL's next-LSN counter: a checkpoint may
	// have emptied the log, and if the counter restarted below a persisted
	// horizon, new fsync-acknowledged records would be skipped as already
	// covered (rec.LSN <= ckpt) by the next recovery.
	var lsnFloor uint64
	for _, l := range s.ckpt {
		if l > lsnFloor {
			lsnFloor = l
		}
	}
	w, truncated, err := openWAL(WALPath(dir), cfg.Policy, cfg.Interval, cfg.FsyncObserver, lsnFloor, func(rec Record, _ int64) error {
		return s.replay(rec)
	})
	if err != nil {
		return nil, err
	}
	s.wal = w
	s.recovery.TruncatedBytes = truncated

	// Phase 3: adopt catalog tables the directory does not know — bulk
	// loads performed before durability attached. Their current state
	// becomes an initial segment at the present WAL horizon.
	for _, name := range cat.TableNames() {
		s.mu.Lock()
		_, known := s.ckpt[name]
		s.mu.Unlock()
		if known {
			continue
		}
		if _, err := s.Checkpoint(nil, name, false); err != nil {
			w.Close()
			return nil, fmt.Errorf("durable: adopting %s: %w", name, err)
		}
		s.recovery.Adopted++
	}
	// Partitioned wrappers are not store tables, so the loop above persists
	// their partitions but not the partition spec itself; a wrapper created
	// before durability attached needs its create record appended now or the
	// spec would be lost on the next recovery. Wrapper create records carry
	// no checkpoint horizon (every partition checkpoints on its own), so
	// they replay on every open and survive WAL rewrites by design.
	for _, name := range cat.PartitionedNames() {
		if _, seen := s.parts[name]; seen {
			continue
		}
		p, ok := cat.Partitioned(name)
		if !ok {
			continue
		}
		rec := Record{Type: recCreatePart, Table: name, Defs: p.Schema().Schema(),
			Col: p.Spec.Col, PartKind: byte(p.Spec.Kind), PartN: p.Spec.N}
		if err := s.wal.append(&rec); err != nil {
			w.Close()
			return nil, fmt.Errorf("durable: adopting partitioned %s: %w", name, err)
		}
		s.parts[name] = partNames(name, p.Spec.N)
	}
	return s, nil
}

// replay applies one recovered WAL record to the catalog. Records at or
// below their table's checkpoint LSN are already reflected in the loaded
// segment and are skipped; deterministic apply errors (bad column,
// duplicate create) are counted, not fatal — such a record failed the same
// way when it was first logged. Environmental failures (simulated-device
// memory pressure) are different: the record succeeded when logged, so
// dropping it would silently lose durable state — recovery fails instead.
func (s *Store) replay(rec Record) error {
	if ckpt, ok := s.ckpt[rec.Table]; ok && rec.LSN <= ckpt {
		s.recovery.Skipped++
		return nil
	}
	if _, parted := s.parts[rec.Table]; parted && (rec.Type == recInsert || rec.Type == recDelete) {
		took, err := s.replayStatement(rec)
		if err == nil && !took {
			s.recovery.Skipped++
			return nil
		}
		return s.replayed(rec, err)
	}
	var err error
	switch rec.Type {
	case recCreate:
		if _, terr := s.cat.Table(rec.Table); terr == nil {
			return fmt.Errorf("durable: %s exists in both the catalog and %s — skip preloading when reopening a data dir", rec.Table, s.dir)
		}
		_, err = s.cat.CreateTable(rec.Table, rec.Defs)
		if err == nil {
			s.ckpt[rec.Table] = rec.LSN - 1
		}
	case recInsert:
		_, err = s.cat.InsertRows(nil, rec.Table, rec.Rows)
	case recDelete:
		_, err = s.cat.DeleteRows(nil, rec.Table, filtersOf(rec.Preds))
	case recDecompose:
		_, err = s.cat.DecomposeMetered(nil, rec.Table, rec.Col, rec.Bits)
	case recFKIndex:
		err = s.cat.BuildFKIndex(rec.Table, rec.Col)
	case recDrop:
		err = s.cat.DropTable(rec.Table)
		if err == nil {
			s.forget(rec.Table, rec.LSN)
			delete(s.parts, rec.Table)
		}
	case recCreatePart:
		s.parts[rec.Table] = partNames(rec.Table, rec.PartN)
		if _, ok := s.cat.Partitioned(rec.Table); ok {
			return fmt.Errorf("durable: %s exists in both the catalog and %s — skip preloading when reopening a data dir", rec.Table, s.dir)
		}
		spec := shard.Spec{Kind: shard.Kind(rec.PartKind), Col: rec.Col, N: rec.PartN}
		var fresh []int
		_, fresh, err = s.cat.AdoptPartitioned(rec.Table, rec.Defs, spec)
		if err == nil {
			// Partitions restored from their segment files keep their own
			// checkpoint horizons; partitions created empty replay their
			// history from the frames after this record.
			for _, i := range fresh {
				pn := shard.PartName(rec.Table, i)
				s.applied[pn] = rec.LSN
				s.ckpt[pn] = rec.LSN - 1
			}
		}
	default:
		err = fmt.Errorf("durable: unknown record type %d", rec.Type)
	}
	if err == nil && rec.Type != recDrop && rec.Type != recCreatePart {
		s.applied[rec.Table] = rec.LSN
	}
	return s.replayed(rec, err)
}

// replayed counts one record's outcome: replayed, failed as it failed when
// first logged, or — device memory pressure — fatal to this recovery.
func (s *Store) replayed(rec Record, err error) error {
	if err != nil {
		if errors.Is(err, device.ErrOutOfMemory) {
			return fmt.Errorf("durable: replaying lsn %d for %s needs resources that succeeded when logged: %w", rec.LSN, rec.Table, err)
		}
		s.recovery.Failed++
		return nil
	}
	s.recovery.Replayed++
	return nil
}

// replayStatement applies a recovered INSERT or DELETE on a partitioned
// table. The frame carries the statement as it was written — the wrapper's
// name, rows in statement order — so the rows are routed again by the spec
// (a pure function of row and spec, re-created by the create record that
// precedes the frame), and each partition the statement touched takes its
// share only if its segment does not hold it already. took is false when
// every touched partition's checkpoint covers the frame.
func (s *Store) replayStatement(rec Record) (took bool, err error) {
	p, ok := s.cat.Partitioned(rec.Table)
	if !ok {
		return true, fmt.Errorf("durable: statement on %s, which is not a partitioned table", rec.Table)
	}
	var groups [][][]int64
	if rec.Type == recInsert {
		groups = p.Split(rec.Rows)
	}
	for i, t := range p.Parts {
		leg := t.Name()
		if rec.Type == recInsert && len(groups[i]) == 0 || rec.LSN <= s.ckpt[leg] {
			continue
		}
		took = true
		if rec.Type == recInsert {
			_, err = s.cat.InsertRows(nil, leg, groups[i])
		} else {
			_, err = s.cat.DeleteRows(nil, leg, filtersOf(rec.Preds))
		}
		if err != nil {
			return took, err
		}
		s.applied[leg] = rec.LSN
		if s.pending[leg] == 0 {
			s.pending[leg] = rec.LSN
		}
	}
	return took, nil
}

func filtersOf(preds []store.Range) []plan.Filter {
	out := make([]plan.Filter, len(preds))
	for i, p := range preds {
		out[i] = plan.Filter{Col: p.Col, Lo: p.Lo, Hi: p.Hi}
	}
	return out
}

func partNames(table string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = shard.PartName(table, i)
	}
	return out
}

// forget drops a table's durable bookkeeping and segment files. dropLSN
// marks every earlier frame of the table as garbage, so the next WAL
// rewrite reclaims its history (create/insert/drop replays to a no-op
// anyway, but there is no reason to keep paying for it).
func (s *Store) forget(table string, dropLSN uint64) {
	s.mu.Lock()
	delete(s.applied, table)
	delete(s.ckpt, table)
	delete(s.hasSeg, table)
	delete(s.segBytes, table)
	delete(s.pending, table)
	s.dropped[table] = dropLSN
	s.mu.Unlock()
	if segs, err := listSegments(s.dir); err == nil {
		for _, f := range segs[table] {
			os.Remove(f.path)
		}
	}
}

// Recovery returns what Open did.
func (s *Store) Recovery() RecoveryStats { return s.recovery }

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// tableMu returns the per-table coordination lock. It serializes a
// table's {WAL append + in-memory apply} pairs against its {merge +
// segment persist} checkpoints, which is what makes a checkpoint LSN
// exact: every record at or below it is in the merged base, every record
// above it is not.
func (s *Store) tableMu(table string) *sync.Mutex {
	s.mu.Lock()
	defer s.mu.Unlock()
	mu, ok := s.locks[table]
	if !ok {
		mu = &sync.Mutex{}
		s.locks[table] = mu
	}
	return mu
}

// noteApplied advances a table's applied LSN. Called with the table lock
// held, after the record was appended and applied (or failed to apply — a
// failed record is a deterministic no-op and its LSN is still covered).
func (s *Store) noteApplied(table string, lsn uint64) {
	s.mu.Lock()
	if lsn > s.applied[table] {
		s.applied[table] = lsn
	}
	s.mu.Unlock()
}

// --- plan.Durability: the write-ahead hooks ---

// LogInsert logs one INSERT statement and applies it (write-ahead; see
// logStatement).
func (s *Store) LogInsert(table string, legs []string, rows [][]int64, apply func() error) error {
	return s.logStatement(&Record{Type: recInsert, Table: table, Rows: rows}, legs, apply)
}

// LogDelete logs one DELETE statement and applies it.
func (s *Store) LogDelete(table string, legs []string, preds []store.Range, apply func() error) error {
	return s.logStatement(&Record{Type: recDelete, Table: table, Preds: preds}, legs, apply)
}

// logStatement is the commit protocol of one DML statement: under the locks
// of every leg it touches — taken in partition-index order; a checkpoint
// takes one, so there is no cycle — it appends one frame under the name the
// statement addressed, waits for group commit once, applies every leg and
// advances each one's applied LSN. Durable, then applied, then
// acknowledged. A plain table's statement is the frame under its own name
// it always was. On a partitioned table the touched partitions are marked
// pending before the frame exists, under their locks, so that no rewrite —
// another table's checkpoint between this statement's append and its apply
// — can take the frame for one no partition needs.
func (s *Store) logStatement(rec *Record, legs []string, apply func() error) error {
	for _, leg := range legs {
		mu := s.tableMu(leg)
		mu.Lock()
		defer mu.Unlock() // held to the end of the statement, all of them
	}
	if len(legs) > 1 || legs[0] != rec.Table {
		// A mark outliving a failed append is harmless: the statement was
		// validated before it got here, so the append fails only on a closed
		// or poisoned log, and nothing is appended to either again.
		first := s.wal.lastAssigned() + 1
		s.mu.Lock()
		for _, leg := range legs {
			if s.pending[leg] == 0 {
				s.pending[leg] = first
			}
		}
		s.mu.Unlock()
	}
	if err := s.wal.append(rec); err != nil {
		return err
	}
	if s.afterAppend != nil {
		s.afterAppend()
	}
	err := apply()
	for _, leg := range legs {
		s.noteApplied(leg, rec.LSN)
	}
	return err
}

// LogCreate logs a CREATE TABLE and applies it.
func (s *Store) LogCreate(name string, defs []store.ColumnDef, apply func() error) error {
	mu := s.tableMu(name)
	mu.Lock()
	defer mu.Unlock()
	rec := Record{Type: recCreate, Table: name, Defs: defs}
	if err := s.wal.append(&rec); err != nil {
		return err
	}
	err := apply()
	if err == nil {
		s.mu.Lock()
		s.applied[name] = rec.LSN
		// The new table's state trivially covers everything before its
		// create record; the record itself replays until a checkpoint.
		s.ckpt[name] = rec.LSN - 1
		delete(s.dropped, name)
		s.mu.Unlock()
	}
	return err
}

// LogCreatePartitioned logs a CREATE TABLE ... PARTITION BY and applies
// it. One record covers the wrapper and all its (empty) partitions; each
// partition then checkpoints and reclaims WAL frames on its own, while the
// wrapper record itself stays uncovered so every recovery re-creates the
// spec before replaying partition history.
func (s *Store) LogCreatePartitioned(name string, defs []store.ColumnDef, spec shard.Spec, apply func() error) error {
	mu := s.tableMu(name)
	mu.Lock()
	defer mu.Unlock()
	rec := Record{Type: recCreatePart, Table: name, Defs: defs,
		Col: spec.Col, PartKind: byte(spec.Kind), PartN: spec.N}
	if err := s.wal.append(&rec); err != nil {
		return err
	}
	err := apply()
	if err == nil {
		s.mu.Lock()
		s.parts[name] = partNames(name, spec.N)
		delete(s.dropped, name)
		for i := 0; i < spec.N; i++ {
			pn := shard.PartName(name, i)
			// A fresh partition is dirty (applied > ckpt) until its first
			// checkpoint persists an empty-base segment.
			s.applied[pn] = rec.LSN
			s.ckpt[pn] = rec.LSN - 1
			delete(s.dropped, pn)
		}
		s.mu.Unlock()
	}
	return err
}

// LogDecompose logs a bwdecompose and applies it.
func (s *Store) LogDecompose(table, col string, bits uint, apply func() error) error {
	mu := s.tableMu(table)
	mu.Lock()
	defer mu.Unlock()
	rec := Record{Type: recDecompose, Table: table, Col: col, Bits: bits}
	if err := s.wal.append(&rec); err != nil {
		return err
	}
	err := apply()
	s.noteApplied(table, rec.LSN)
	return err
}

// LogFKIndex logs an FK index build and applies it.
func (s *Store) LogFKIndex(table, col string, apply func() error) error {
	mu := s.tableMu(table)
	mu.Lock()
	defer mu.Unlock()
	rec := Record{Type: recFKIndex, Table: table, Col: col}
	if err := s.wal.append(&rec); err != nil {
		return err
	}
	err := apply()
	s.noteApplied(table, rec.LSN)
	return err
}

// LogDrop logs a DROP TABLE, applies it, and reclaims the table's durable
// state (segment files, bookkeeping).
func (s *Store) LogDrop(table string, apply func() error) error {
	mu := s.tableMu(table)
	mu.Lock()
	defer mu.Unlock()
	rec := Record{Type: recDrop, Table: table}
	if err := s.wal.append(&rec); err != nil {
		return err
	}
	if err := apply(); err != nil {
		s.noteApplied(table, rec.LSN)
		return err
	}
	s.forget(table, rec.LSN)
	s.mu.Lock()
	delete(s.parts, table)
	s.mu.Unlock()
	return nil
}

// LogLoad registers a bulk-loaded table and immediately persists it as a
// segment — bulk loads skip the WAL (logging millions of rows row-by-row
// would defeat the point of the immutable, page-friendly base format).
func (s *Store) LogLoad(t *store.Table, apply func() error) error {
	name := t.Name()
	mu := s.tableMu(name)
	mu.Lock()
	defer mu.Unlock()
	if err := apply(); err != nil {
		return err
	}
	return s.persistLocked(t, s.wal.lastAssigned())
}

// --- Checkpointing ---

// CheckpointStats describes one checkpoint.
type CheckpointStats struct {
	Table string
	// Clean reports that the table had nothing new since its last
	// checkpoint, so no work was done.
	Clean bool
	// LSN is the WAL horizon the persisted segment covers.
	LSN uint64
	// SegmentBytes is the size of the segment file written; WALBytes the
	// WAL size after the covered prefix was dropped.
	SegmentBytes int64
	WALBytes     int64
	// Merge is the compaction folded into the checkpoint.
	Merge store.MergeStats
}

// Checkpoint merges a table's delta and deletions into a fresh base
// segment (through the ordinary merge path, so incremental
// re-decomposition economics apply), persists the new base atomically with
// the WAL horizon it covers, then reclaims the obsolete bits: superseded
// segment files and every WAL frame now below a covering checkpoint. auto
// marks background-maintenance checkpoints for stats attribution.
func (s *Store) Checkpoint(m *device.Meter, table string, auto bool) (CheckpointStats, error) {
	mu := s.tableMu(table)
	mu.Lock()
	defer mu.Unlock()
	t, err := s.cat.Table(table)
	if err != nil {
		return CheckpointStats{}, err
	}
	s.mu.Lock()
	applied, known := s.applied[table]
	ckpt := s.ckpt[table]
	seg := s.hasSeg[table]
	segBytes := s.segBytes[table]
	s.mu.Unlock()
	snap := t.Snapshot()
	if known && seg && applied == ckpt && snap.DeltaLen() == 0 && snap.DeletedCount() == 0 {
		return CheckpointStats{Table: table, Clean: true, LSN: ckpt, SegmentBytes: segBytes, WALBytes: s.WALSize()}, nil
	}
	st, err := s.cat.MergeTable(m, table, auto)
	if err != nil {
		return CheckpointStats{}, err
	}
	lsn := applied
	if !known {
		// Never logged: the table's state covers the whole current WAL
		// horizon trivially (no records reference it).
		lsn = s.wal.lastAssigned()
	}
	if err := s.persistLocked(t, lsn); err != nil {
		return CheckpointStats{}, err
	}
	s.mu.Lock()
	out := CheckpointStats{Table: table, LSN: lsn, SegmentBytes: s.segBytes[table], Merge: st}
	s.mu.Unlock()
	if err := s.dropCoveredFrames(); err != nil {
		return out, err
	}
	out.WALBytes = s.WALSize()
	return out, nil
}

// persistLocked writes a table's pure-base snapshot as the segment at lsn,
// updates the bookkeeping, and removes superseded segment files. Caller
// holds the table lock.
func (s *Store) persistLocked(t *store.Table, lsn uint64) error {
	table := t.Name()
	_, size, err := writeSegment(s.dir, table, lsn, true, func(w io.Writer) (int64, error) {
		return encodeSegment(w, t, t.Snapshot(), lsn)
	})
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.ckpt[table] = lsn
	if lsn > s.applied[table] {
		s.applied[table] = lsn
	}
	s.hasSeg[table] = true
	s.segBytes[table] = size
	delete(s.pending, table)
	s.ckpts++
	s.mu.Unlock()
	if segs, err := listSegments(s.dir); err == nil {
		for _, f := range segs[table] {
			if f.lsn != lsn {
				os.Remove(f.path)
			}
		}
	}
	return nil
}

// dropCoveredFrames rewrites the WAL without the frames every checkpoint
// already covers — the proactive reclamation of replayed prefix bytes.
func (s *Store) dropCoveredFrames() error { return s.wal.rewrite(s.covered) }

// covered reports whether no recovery could need the frame any more. It
// reads the bookkeeping as it stands while the rewrite holds the log — not a
// copy taken earlier — because a statement marks its partitions pending
// before it appends: a frame the rewrite can see has its mark already.
//
// A dropped table's frames up to the drop are garbage. A statement frame on
// a partitioned table is covered once it lies below every partition's first
// pending frame: a partition with none has checkpointed past it or was never
// touched by it, so an idle partition never pins the log. The wrapper's
// create record has no horizon and stays. Every other frame names a store
// table and is covered by that table's checkpoint horizon.
func (s *Store) covered(h frameHead) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if horizon, ok := s.dropped[string(h.Table)]; ok && h.LSN <= horizon {
		return true
	}
	if legs, ok := s.parts[string(h.Table)]; ok {
		if h.Type != recInsert && h.Type != recDelete {
			return false
		}
		for _, leg := range legs {
			if first, ok := s.pending[leg]; ok && h.LSN >= first {
				return false
			}
		}
		return true
	}
	horizon, ok := s.ckpt[string(h.Table)]
	return ok && h.LSN <= horizon
}

// Dirty reports whether a table has state not yet covered by a segment —
// WAL records past its checkpoint LSN, unmerged delta rows, or no segment
// file at all.
func (s *Store) Dirty(table string) bool {
	t, err := s.cat.Table(table)
	if err != nil {
		return false
	}
	s.mu.Lock()
	applied := s.applied[table]
	ckpt, known := s.ckpt[table]
	seg := s.hasSeg[table]
	s.mu.Unlock()
	if !known || !seg || applied > ckpt {
		return true
	}
	snap := t.Snapshot()
	return snap.DeltaLen() > 0 || snap.DeletedCount() > 0
}

// Close fsyncs and closes the WAL. It does not checkpoint; the engine's
// Close checkpoints every dirty table first so a clean shutdown leaves an
// empty replay tail.
func (s *Store) Close() error { return s.wal.Close() }

// WALSize returns the current WAL file size in bytes.
func (s *Store) WALSize() int64 {
	s.wal.mu.Lock()
	defer s.wal.mu.Unlock()
	return s.wal.size
}

// Stats is a point-in-time snapshot of the durability counters.
type Stats struct {
	Policy            Policy
	WALBytes          int64
	WALRecords        int64 // frames currently in the file
	Appends           int64 // frames appended since open
	Fsyncs            int64
	Checkpoints       int64
	LastCheckpointLSN uint64 // highest checkpoint LSN across tables
	Tables            int    // tables with durable bookkeeping
	SegmentBytes      int64  // total segment file footprint
}

func (st Stats) String() string {
	return fmt.Sprintf("durability: fsync %s, wal %d B (%d records, %d appends, %d fsyncs), %d checkpoints (last lsn %d), %d segment tables (%d B)",
		st.Policy, st.WALBytes, st.WALRecords, st.Appends, st.Fsyncs, st.Checkpoints, st.LastCheckpointLSN, st.Tables, st.SegmentBytes)
}

// Stats returns the current durability counters.
func (s *Store) Stats() Stats {
	s.wal.mu.Lock()
	out := Stats{
		Policy:     s.wal.policy,
		WALBytes:   s.wal.size,
		WALRecords: s.wal.records,
		Appends:    s.wal.appends,
		Fsyncs:     s.wal.fsyncs,
	}
	s.wal.mu.Unlock()
	s.mu.Lock()
	out.Checkpoints = s.ckpts
	out.Tables = len(s.ckpt)
	for table, has := range s.hasSeg {
		if !has {
			continue
		}
		out.SegmentBytes += s.segBytes[table]
		if l := s.ckpt[table]; l > out.LastCheckpointLSN {
			out.LastCheckpointLSN = l
		}
	}
	s.mu.Unlock()
	return out
}

// removeStrayTemps deletes temp files a crash may have left mid-write.
func removeStrayTemps(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}
