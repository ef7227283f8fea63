// Package store is the mutable columnar storage subsystem underneath the
// query catalog. It extends the paper's read-only picture — load once,
// bitwise-decompose once, query forever — with a write path that keeps the
// GPU-resident approximation hot and cheap to maintain:
//
//   - each table is an immutable, bit-sliced **base segment** (one BAT per
//     column, plus the BWD decomposition of every column the user
//     decomposed: approximation on the device, residual on the host),
//   - plus an append-optimized, row-major **delta segment** holding freshly
//     ingested rows in host memory,
//   - plus a **deletion bitmap** over both, mirrored to the device for the
//     base range so approximate selections can discharge deleted rows
//     without a host round-trip.
//
// Reads are snapshot isolated: a reader pins a *Snapshot (one atomic load)
// and sees a frozen base segment, a frozen delta prefix and a frozen
// bitmap for its whole execution; writers never mutate pinned data — every
// write publishes a fresh snapshot with a bumped epoch. A merge compacts
// the delta (and any deletions) into a new base segment, re-decomposing
// and re-shipping only what actually changed: when the decomposition
// parameters of a column are unchanged and no base row moved, only the
// merged delta rows' approximation codes cross the PCI-E bus — the
// paper's "waste not" economics applied to the write path.
package store

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/bat"
	"repro/internal/bulk"
	"repro/internal/bwd"
	"repro/internal/device"
)

// ColumnDef types one column of a table: its name, fixed-point scale
// (1 for plain integers) and physical width in bytes (cost accounting).
type ColumnDef struct {
	Name  string
	Scale int64
	Width int
}

// Range is a closed-range predicate lo <= col <= hi used by DeleteWhere;
// open bounds use math.MinInt64 / math.MaxInt64 like the plan layer.
type Range struct {
	Col    string
	Lo, Hi int64
}

// ParseTypeScale maps a numeric column type name to its fixed-point scale:
// "int" is scale 1, "decimalN" (N fractional digits, 0..9) is 10^N. It is
// the one mapping shared by CREATE TABLE's type names and the CSV loader's
// schema syntax, so the two surfaces cannot drift.
func ParseTypeScale(typ string) (int64, error) {
	if typ == "int" {
		return 1, nil
	}
	if digits, ok := strings.CutPrefix(typ, "decimal"); ok {
		n, err := strconv.Atoi(digits)
		if err == nil && n >= 0 && n <= 9 {
			scale := int64(1)
			for i := 0; i < n; i++ {
				scale *= 10
			}
			return scale, nil
		}
	}
	return 0, fmt.Errorf("store: unsupported column type %q (int, decimal0..decimal9)", typ)
}

// schemaEpochs hands out globally unique table identities. A table created
// under a name previously used by a dropped table gets a fresh epoch, so
// cached bindings compiled against the old schema can be detected as stale.
var schemaEpochs atomic.Uint64

// segment is an immutable base segment: positionally aligned columns with
// their (optional) bitwise decompositions and (optional) pre-built
// foreign-key indexes. Once a segment is reachable from a published
// snapshot it is never mutated; updates clone it.
type segment struct {
	n    int
	cols []*bat.BAT
	decs []*bwd.Column   // nil per column when not decomposed
	fk   []*bulk.FKIndex // nil per column when no FK index was built
}

func (g *segment) clone() *segment {
	out := &segment{n: g.n}
	out.cols = append([]*bat.BAT(nil), g.cols...)
	out.decs = append([]*bwd.Column(nil), g.decs...)
	out.fk = append([]*bulk.FKIndex(nil), g.fk...)
	return out
}

// Snapshot is one immutable version of a table, pinned by readers for the
// duration of a query. All methods are safe for concurrent use.
type Snapshot struct {
	// Epoch is the table's data epoch when this snapshot was published;
	// every insert, delete, merge, decompose or index build bumps it.
	Epoch uint64

	t                   *Table
	base                *segment
	delta               []int64 // row-major, stride len(t.schema); frozen prefix
	deltaN              int
	del                 []uint64 // deletion bitmap over base.n + deltaN positions; nil = none
	liveBase, liveDelta int
}

// BaseLen returns the base-segment row count (including deleted rows).
func (s *Snapshot) BaseLen() int { return s.base.n }

// DeltaLen returns the number of delta rows visible to this snapshot
// (including deleted ones).
func (s *Snapshot) DeltaLen() int { return s.deltaN }

// Len returns the live row count (base + delta, minus deletions).
func (s *Snapshot) Len() int { return s.liveBase + s.liveDelta }

// LiveBase returns the live base-segment row count (base minus deletions).
func (s *Snapshot) LiveBase() int { return s.liveBase }

// LiveDelta returns the live delta row count.
func (s *Snapshot) LiveDelta() int { return s.liveDelta }

// BaseDeleted reports whether base row i is deleted.
func (s *Snapshot) BaseDeleted(i int) bool { return bitSet(s.del, i) }

// DeletedWords returns the deletion bitmap's words: bit i%64 of word i/64
// is BaseDeleted(i) for every base row i (the bits past the base belong to
// delta rows). The slice may end early, even be nil — rows it does not reach
// are live — and is the snapshot's own: callers must not write to it.
func (s *Snapshot) DeletedWords() []uint64 { return s.del }

// DeltaDeleted reports whether delta row j is deleted.
func (s *Snapshot) DeltaDeleted(j int) bool { return bitSet(s.del, s.base.n+j) }

// BaseDeletedCount returns the number of deleted base rows.
func (s *Snapshot) BaseDeletedCount() int { return s.base.n - s.liveBase }

// DeletedCount returns the total number of deleted rows.
func (s *Snapshot) DeletedCount() int {
	return (s.base.n - s.liveBase) + (s.deltaN - s.liveDelta)
}

// Segments reports how many physical segments the snapshot spans: the base
// segment plus, when the delta holds rows, the delta segment.
func (s *Snapshot) Segments() int {
	n := 1
	if s.deltaN > 0 {
		n++
	}
	return n
}

// Column returns the base-segment BAT of a column.
func (s *Snapshot) Column(name string) (*bat.BAT, error) {
	i, err := s.t.colIndex(name)
	if err != nil {
		return nil, err
	}
	return s.base.cols[i], nil
}

// Dec returns the bitwise decomposition of a column, or nil when the
// column was never decomposed.
func (s *Snapshot) Dec(name string) *bwd.Column {
	i, err := s.t.colIndex(name)
	if err != nil {
		return nil
	}
	return s.base.decs[i]
}

// FKIndex returns the pre-built foreign-key index over a column, or nil.
func (s *Snapshot) FKIndex(name string) *bulk.FKIndex {
	i, err := s.t.colIndex(name)
	if err != nil {
		return nil
	}
	return s.base.fk[i]
}

// DeltaValue returns delta row j's value for the column at schema index c.
func (s *Snapshot) DeltaValue(j, c int) int64 {
	return s.delta[j*len(s.t.schema)+c]
}

// DeltaBytes returns the physical footprint of the visible delta rows
// (row-major: a delta scan touches full rows).
func (s *Snapshot) DeltaBytes() int64 {
	return int64(s.deltaN) * s.t.rowBytes
}

// Table returns the mutable table this snapshot was taken from.
func (s *Snapshot) Table() *Table { return s.t }

// Morsel is one scan granule of a snapshot: a half-open row range [Lo, Hi)
// that lies entirely within a single physical segment (Delta reports
// which). Executors hand morsels to concurrent workers; because a morsel
// never straddles the base/delta edge, a worker reads one storage layout
// (bit-sliced columns or row-major delta) per granule.
type Morsel struct {
	Lo, Hi int
	Delta  bool
}

// Morsels splits the snapshot's rows (including deleted ones — the
// deletion bitmap is consulted per row, so ranges stay positional) into
// granules of at most chunk rows. Boundaries are aligned to 64-row
// multiples inside each segment so that concurrent workers probing the
// deletion bitmap touch disjoint bitmap words, and they never cross the
// base/delta segment edge. A chunk <= 0 defaults to 64k rows.
func (s *Snapshot) Morsels(chunk int) []Morsel {
	if chunk <= 0 {
		chunk = 64 << 10
	}
	// Round the granule up to a bitmap-word multiple.
	if chunk&63 != 0 {
		chunk = (chunk + 63) &^ 63
	}
	var out []Morsel
	for lo := 0; lo < s.base.n; lo += chunk {
		hi := lo + chunk
		if hi > s.base.n {
			hi = s.base.n
		}
		out = append(out, Morsel{Lo: lo, Hi: hi})
	}
	for lo := 0; lo < s.deltaN; lo += chunk {
		hi := lo + chunk
		if hi > s.deltaN {
			hi = s.deltaN
		}
		out = append(out, Morsel{Lo: lo, Hi: hi, Delta: true})
	}
	return out
}

// DeltaMorsels returns only the delta-segment granules of Morsels.
func (s *Snapshot) DeltaMorsels(chunk int) []Morsel {
	all := s.Morsels(chunk)
	out := all[:0]
	for _, m := range all {
		if m.Delta {
			out = append(out, m)
		}
	}
	return out
}

func bitSet(bits []uint64, i int) bool {
	w := i >> 6
	if w >= len(bits) {
		return false
	}
	return bits[w]&(1<<(uint(i)&63)) != 0
}

func setBit(bits []uint64, i int) { bits[i>>6] |= 1 << (uint(i) & 63) }

// Table is a mutable table: an atomically published current Snapshot plus
// the writer-side state (delta buffer, recorded decomposition bits, PK
// markers, counters) guarded by a mutex. Readers never take the mutex.
type Table struct {
	name        string
	schemaEpoch uint64
	schema      []ColumnDef
	colIdx      map[string]int
	rowBytes    int64
	sys         *device.System

	mu      sync.Mutex
	cur     atomic.Pointer[Snapshot]
	buf     []int64 // delta backing array; append-only between merges
	decBits []uint  // requested approx bits per column (0 = not decomposed)
	pkCols  []bool  // columns with a registered FK (primary-key) index
	epoch   uint64

	inserts, deletes               int64
	merges, autoMerges             int64
	mergeRows                      int64
	mergeShipBytes, mergeFullBytes int64
}

// New creates a table over the given schema. cols supplies the initial
// base-segment column BATs in schema order (all equal length); nil cols
// creates an empty table.
func New(name string, schema []ColumnDef, cols []*bat.BAT, sys *device.System) (*Table, error) {
	if len(schema) == 0 {
		return nil, fmt.Errorf("store: table %s has no columns", name)
	}
	if cols != nil && len(cols) != len(schema) {
		return nil, fmt.Errorf("store: table %s: %d columns for %d schema entries", name, len(cols), len(schema))
	}
	t := &Table{
		name:        name,
		schemaEpoch: schemaEpochs.Add(1),
		schema:      append([]ColumnDef(nil), schema...),
		colIdx:      make(map[string]int, len(schema)),
		sys:         sys,
		decBits:     make([]uint, len(schema)),
		pkCols:      make([]bool, len(schema)),
	}
	n := 0
	for i, def := range schema {
		if def.Name == "" {
			return nil, fmt.Errorf("store: table %s: empty column name", name)
		}
		if _, dup := t.colIdx[def.Name]; dup {
			return nil, fmt.Errorf("store: duplicate column %s.%s", name, def.Name)
		}
		if def.Scale < 1 {
			return nil, fmt.Errorf("store: column %s.%s has invalid scale %d", name, def.Name, def.Scale)
		}
		if !bat.ValidWidth(def.Width) {
			return nil, fmt.Errorf("store: column %s.%s has unsupported width %d", name, def.Name, def.Width)
		}
		t.colIdx[def.Name] = i
		t.rowBytes += int64(def.Width)
		if cols != nil {
			if i == 0 {
				n = cols[i].Len()
			} else if cols[i].Len() != n {
				return nil, fmt.Errorf("store: column %s.%s has %d rows, table has %d", name, def.Name, cols[i].Len(), n)
			}
		}
	}
	seg := &segment{
		n:    n,
		cols: make([]*bat.BAT, len(schema)),
		decs: make([]*bwd.Column, len(schema)),
		fk:   make([]*bulk.FKIndex, len(schema)),
	}
	for i := range schema {
		if cols != nil {
			seg.cols[i] = cols[i]
		} else {
			seg.cols[i] = bat.NewDense([]int64{}, schema[i].Width)
		}
	}
	t.cur.Store(&Snapshot{t: t, base: seg, liveBase: n})
	return t, nil
}

// Restore rebuilds a table from persisted state: the base-segment columns,
// the (optional, per-column) restored decompositions, the recorded
// decomposition bit widths, and the FK-indexed column markers. It is the
// segment-load path of the durability subsystem — the table comes back
// exactly as a checkpoint captured it, with FK indexes rebuilt from the
// (strictly dense) key columns rather than deserialized. Delta rows are
// not part of a checkpoint; recovery replays them from the WAL tail via
// ordinary Insert/DeleteWhere calls.
func Restore(name string, schema []ColumnDef, cols []*bat.BAT, decs []*bwd.Column, decBits []uint, pkCols []bool, sys *device.System) (*Table, error) {
	if len(decs) != len(schema) || len(decBits) != len(schema) || len(pkCols) != len(schema) {
		return nil, fmt.Errorf("store: restore %s: per-column state does not match schema arity", name)
	}
	t, err := New(name, schema, cols, sys)
	if err != nil {
		return nil, err
	}
	s := t.cur.Load()
	seg := s.base.clone()
	for i := range schema {
		if d := decs[i]; d != nil {
			if d.Len() != seg.n {
				return nil, fmt.Errorf("store: restore %s.%s: decomposition covers %d rows, segment has %d", name, schema[i].Name, d.Len(), seg.n)
			}
			seg.decs[i] = d
		}
		t.decBits[i] = decBits[i]
		if !pkCols[i] {
			continue
		}
		var ix *bulk.FKIndex
		if strictlyDense(seg.cols[i].Tails()) {
			ix = bulk.BuildFKIndex(nil, 1, seg.cols[i].Tails())
		}
		if ix == nil {
			return nil, fmt.Errorf("store: restore %s: %s is no longer a dense key", name, schema[i].Name)
		}
		seg.fk[i] = ix
		t.pkCols[i] = true
	}
	t.cur.Store(&Snapshot{t: t, base: seg, liveBase: seg.n})
	return t, nil
}

// DecBits returns the recorded decomposition bit width per schema column
// (0 = never decomposed) — the durable layer persists them so merges after
// recovery re-decompose at the same resolution.
func (t *Table) DecBits() []uint {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]uint(nil), t.decBits...)
}

// PKCols returns, per schema column, whether a foreign-key (primary-key)
// index is registered — persisted so recovery rebuilds the same indexes.
func (t *Table) PKCols() []bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]bool(nil), t.pkCols...)
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// SchemaEpoch returns the table's creation identity: a globally unique
// number assigned when the table was created. Cached bindings record it
// and treat a mismatch (table dropped, or dropped and re-created) as a
// schema change requiring recompilation.
func (t *Table) SchemaEpoch() uint64 { return t.schemaEpoch }

// Epoch returns the current data epoch (bumped by every visible change).
func (t *Table) Epoch() uint64 { return t.cur.Load().Epoch }

// Snapshot pins the current version of the table.
func (t *Table) Snapshot() *Snapshot { return t.cur.Load() }

// Len returns the current live row count.
func (t *Table) Len() int { return t.cur.Load().Len() }

// DeltaLive returns the current live delta row count (the merge-pressure
// signal the background merger polls).
func (t *Table) DeltaLive() int { return t.cur.Load().liveDelta }

// PendingDecompose reports whether the table records decomposition bit
// widths that the current base segment does not carry. That happens when a
// merge empties the table (an empty column cannot be decomposed, so the
// recorded widths go dormant): once rows exist again, the next merge
// re-decomposes them. The background merger treats this as merge pressure
// regardless of the delta threshold, so A&R routing recovers after one
// maintenance interval instead of waiting for a full delta.
func (t *Table) PendingDecompose() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.cur.Load()
	if s.Len() == 0 {
		return false
	}
	for c, bits := range t.decBits {
		if bits > 0 && s.base.decs[c] == nil {
			return true
		}
	}
	return false
}

// Schema returns the column definitions in schema (insertion) order.
func (t *Table) Schema() []ColumnDef { return t.schema }

// ColumnNames returns the column names in schema order — the implicit
// column order of INSERT INTO ... VALUES.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.schema))
	for i, def := range t.schema {
		out[i] = def.Name
	}
	return out
}

// Columns returns the column names in sorted order (display surfaces).
func (t *Table) Columns() []string {
	out := t.ColumnNames()
	sort.Strings(out)
	return out
}

// Column returns the current base-segment BAT of a column — a convenience
// for loaders and tests; executors read through a pinned Snapshot instead.
func (t *Table) Column(name string) (*bat.BAT, error) {
	return t.cur.Load().Column(name)
}

// ColumnScale returns the fixed-point scale of a column.
func (t *Table) ColumnScale(name string) (int64, error) {
	i, err := t.colIndex(name)
	if err != nil {
		return 0, err
	}
	return t.schema[i].Scale, nil
}

// ColIndex returns the schema index of a column.
func (t *Table) ColIndex(name string) (int, error) { return t.colIndex(name) }

func (t *Table) colIndex(name string) (int, error) {
	i, ok := t.colIdx[name]
	if !ok {
		return 0, fmt.Errorf("store: unknown column %s.%s", t.name, name)
	}
	return i, nil
}

// Insert appends rows (schema order, scaled values) to the delta segment
// and publishes a new snapshot. The append is host-side only: no device or
// bus time is charged beyond the CPU write of the rows themselves.
func (t *Table) Insert(m *device.Meter, rows [][]int64) (int, error) {
	stride := len(t.schema)
	for r, row := range rows {
		if len(row) != stride {
			return 0, fmt.Errorf("store: insert into %s: row %d has %d values, table has %d columns", t.name, r+1, len(row), stride)
		}
	}
	if len(rows) == 0 {
		return 0, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.cur.Load()
	for _, row := range rows {
		t.buf = append(t.buf, row...)
	}
	t.inserts += int64(len(rows))
	t.publish(&Snapshot{
		t: t, base: s.base,
		delta: t.buf, deltaN: s.deltaN + len(rows),
		del:      s.del,
		liveBase: s.liveBase, liveDelta: s.liveDelta + len(rows),
	})
	if m != nil {
		m.CPUWork(1, int64(len(rows))*t.rowBytes, 0, int64(len(rows)))
	}
	return len(rows), nil
}

// DeleteWhere marks every live row satisfying all predicates (conjunction;
// no predicates = all rows) as deleted in a fresh copy of the deletion
// bitmap and publishes a new snapshot. When base rows are newly deleted,
// the refreshed base-range bitmap is shipped to the device so approximate
// selections can mask deleted rows GPU-side.
func (t *Table) DeleteWhere(m *device.Meter, preds []Range) (int64, error) {
	idx := make([]int, len(preds))
	for k, p := range preds {
		i, err := t.colIndex(p.Col)
		if err != nil {
			return 0, err
		}
		idx[k] = i
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.cur.Load()
	total := s.base.n + s.deltaN
	del := make([]uint64, (total+63)/64)
	copy(del, s.del)
	// Base rows: the live ones start a survivor mask that every predicate
	// narrows through the scans' granule walk — a granule whose rows are all
	// deleted already is passed over, one the bounds of a decomposed column
	// settle is not read, exact values are compared in the rest — and what
	// is left of it is the rows to mark.
	hit := make([]uint64, (s.base.n+63)/64)
	removedBase := 0
	for g := range hit {
		hit[g] = ^del[g] & (^uint64(0) >> uint(64-min(64, s.base.n-g*64)))
		removedBase += bits.OnesCount64(hit[g])
	}
	for k, p := range preds {
		d := bwd.Exactly(s.base.decs[idx[k]], s.base.cols[idx[k]].Tails(), p.Lo, p.Hi)
		removedBase, _ = bwd.NarrowGranules([]bwd.Disjunct{d}, hit, 0, s.base.n)
	}
	for g, w := range hit {
		del[g] |= w
	}
	removedDelta := 0
	for j := 0; j < s.deltaN; j++ {
		if bitSet(del, s.base.n+j) {
			continue
		}
		match := true
		for k, p := range preds {
			if v := s.delta[j*len(t.schema)+idx[k]]; v < p.Lo || v > p.Hi {
				match = false
				break
			}
		}
		if match {
			setBit(del, s.base.n+j)
			removedDelta++
		}
	}
	if m != nil {
		var scanned int64
		for k := range preds {
			scanned += s.base.cols[idx[k]].TailBytes()
		}
		scanned += s.DeltaBytes()
		m.CPUWork(1, scanned, 0, int64(total)*int64(max(1, len(preds))))
		if removedBase > 0 {
			m.Transfer(int64((s.base.n + 7) / 8)) // refresh the device-side mask
		}
	}
	if removedBase+removedDelta == 0 {
		return 0, nil
	}
	t.deletes += int64(removedBase + removedDelta)
	t.publish(&Snapshot{
		t: t, base: s.base,
		delta: s.delta, deltaN: s.deltaN,
		del:      del,
		liveBase: s.liveBase - removedBase, liveDelta: s.liveDelta - removedDelta,
	})
	return int64(removedBase + removedDelta), nil
}

// Decompose bitwise-decomposes a column with the given device-resident bit
// width, recording the width so merges re-decompose incrementally. A table
// with delta rows or deletions is merged first: decomposition always
// covers the whole (compacted) base segment.
func (t *Table) Decompose(m *device.Meter, col string, bits uint) (*bwd.Column, error) {
	i, err := t.colIndex(col)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.cur.Load(); s.deltaN > 0 || s.DeletedCount() > 0 {
		if _, err := t.mergeLocked(m, false); err != nil {
			return nil, err
		}
	}
	s := t.cur.Load()
	d, err := bwd.Decompose(s.base.cols[i], bits, t.sys)
	if err != nil {
		return nil, fmt.Errorf("store: bwdecompose(%s.%s, %d): %w", t.name, col, bits, err)
	}
	seg := s.base.clone()
	if old := seg.decs[i]; old != nil {
		old.Release()
	}
	seg.decs[i] = d
	t.decBits[i] = bits
	t.publish(&Snapshot{
		t: t, base: seg,
		delta: s.delta, deltaN: s.deltaN, del: s.del,
		liveBase: s.liveBase, liveDelta: s.liveDelta,
	})
	return d, nil
}

// BuildFKIndex pre-builds the foreign-key (primary-key) index over a
// column and records it for rebuild on merge. Like Decompose, the table is
// compacted first so index positions always address the base segment.
func (t *Table) BuildFKIndex(col string) error {
	i, err := t.colIndex(col)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.cur.Load(); s.deltaN > 0 || s.DeletedCount() > 0 {
		if _, err := t.mergeLocked(nil, false); err != nil {
			return err
		}
	}
	s := t.cur.Load()
	if !strictlyDense(s.base.cols[i].Tails()) {
		return fmt.Errorf("store: %s.%s is not a dense unique key", t.name, col)
	}
	ix := bulk.BuildFKIndex(nil, 1, s.base.cols[i].Tails())
	if ix == nil {
		return fmt.Errorf("store: %s.%s is not a dense unique key", t.name, col)
	}
	seg := s.base.clone()
	seg.fk[i] = ix
	t.pkCols[i] = true
	t.publish(&Snapshot{
		t: t, base: seg,
		delta: s.delta, deltaN: s.deltaN, del: s.del,
		liveBase: s.liveBase, liveDelta: s.liveDelta,
	})
	return nil
}

// MergeStats describes one completed merge.
type MergeStats struct {
	// Merged reports whether there was anything to compact.
	Merged bool
	// DeltaRows and DroppedRows are the delta rows folded into the new
	// base and the deleted rows discarded.
	DeltaRows   int
	DroppedRows int
	// ShippedBytes is the PCI traffic actually charged: for columns whose
	// decomposition parameters are unchanged (and with no base compaction)
	// only the merged rows' approximation codes cross the bus.
	ShippedBytes int64
	// FullBytes is the hypothetical cost of a full re-decomposition — the
	// whole new approximation shipped for every decomposed column. The
	// ratio ShippedBytes/FullBytes is the write path's "waste not" win.
	FullBytes int64
}

// Merge compacts the delta segment and any deletions into a new base
// segment, re-decomposing every column that was decomposed (at its
// recorded bit width) and rebuilding registered FK indexes. auto marks the
// merge as triggered by the background merger (for stats attribution).
func (t *Table) Merge(m *device.Meter, auto bool) (MergeStats, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, err := t.mergeLocked(m, auto)
	return st, err
}

func (t *Table) mergeLocked(m *device.Meter, auto bool) (MergeStats, error) {
	s := t.cur.Load()
	if s.deltaN == 0 && s.DeletedCount() == 0 {
		return MergeStats{}, nil
	}
	stride := len(t.schema)
	newN := s.liveBase + s.liveDelta
	compacted := s.liveBase != s.base.n

	seg := &segment{
		n:    newN,
		cols: make([]*bat.BAT, stride),
		decs: make([]*bwd.Column, stride),
		fk:   make([]*bulk.FKIndex, stride),
	}
	for c := 0; c < stride; c++ {
		vals := make([]int64, 0, newN)
		tails := s.base.cols[c].Tails()
		for i := range tails {
			if !s.BaseDeleted(i) {
				vals = append(vals, tails[i])
			}
		}
		for j := 0; j < s.deltaN; j++ {
			if !s.DeltaDeleted(j) {
				vals = append(vals, s.delta[j*stride+c])
			}
		}
		seg.cols[c] = bat.NewDense(vals, t.schema[c].Width)
	}

	var stats MergeStats
	stats.Merged = true
	stats.DeltaRows = s.liveDelta
	stats.DroppedRows = s.DeletedCount()

	// Re-decompose recorded columns. Decompose-before-release means a
	// racing reader of the old snapshot keeps a valid (released) view; the
	// transient double allocation mirrors Catalog re-decomposition.
	for c := 0; c < stride; c++ {
		if t.decBits[c] == 0 || newN == 0 {
			continue
		}
		d, err := bwd.Decompose(seg.cols[c], t.decBits[c], t.sys)
		if err != nil {
			for _, nd := range seg.decs {
				if nd != nil {
					nd.Release()
				}
			}
			return MergeStats{}, fmt.Errorf("store: merge %s: %w", t.name, err)
		}
		seg.decs[c] = d
		full := packedBytes(newN, d.Dec.ApproxBits)
		stats.FullBytes += full
		old := s.base.decs[c]
		if old != nil && old.Dec == d.Dec && !compacted {
			// Incremental maintenance: the surviving base codes are
			// bit-identical, so only the merged delta rows' codes ship.
			stats.ShippedBytes += packedBytes(s.liveDelta, d.Dec.ApproxBits)
			if m != nil {
				m.CPUWork(1, int64(s.liveDelta)*int64(t.schema[c].Width)*2, 0, int64(s.liveDelta))
			}
		} else {
			// The value range (or the row layout, after compaction) moved:
			// the whole approximation is rebuilt and re-shipped.
			stats.ShippedBytes += full
			if m != nil {
				m.CPUWork(1, int64(newN)*int64(t.schema[c].Width)*2, 0, int64(newN))
				if compacted && old != nil {
					// Device-side compaction pass over the stale codes.
					m.GPUKernel(old.GPUBytes(), 0, int64(s.base.n))
				}
			}
		}
	}
	if m != nil {
		m.Transfer(stats.ShippedBytes)
	}

	// Rebuild registered FK indexes over the compacted key columns. The
	// key must remain STRICTLY dense (v[i] == v[0] + i): the A&R join maps
	// foreign keys to dimension positions arithmetically (§IV-D), so a
	// compaction that punches holes into the key — or an append that
	// leaves one — would silently mis-join. bulk.BuildFKIndex alone is not
	// enough of a guard: it tolerates gaps (the classic hash path handles
	// them), which the positional path cannot.
	for c := 0; c < stride; c++ {
		if !t.pkCols[c] {
			continue
		}
		var ix *bulk.FKIndex
		if strictlyDense(seg.cols[c].Tails()) {
			ix = bulk.BuildFKIndex(nil, 1, seg.cols[c].Tails())
		}
		if ix == nil {
			for _, nd := range seg.decs {
				if nd != nil {
					nd.Release()
				}
			}
			return MergeStats{}, fmt.Errorf("store: merge %s: %s is no longer a dense key (deletes from an indexed dimension key cannot be compacted; drop and reload the table)", t.name, t.schema[c].Name)
		}
		seg.fk[c] = ix
	}

	for _, d := range s.base.decs {
		if d != nil {
			d.Release()
		}
	}
	t.buf = nil // old snapshots keep their own frozen prefix
	t.merges++
	if auto {
		t.autoMerges++
	}
	t.mergeRows += int64(s.liveDelta)
	t.mergeShipBytes += stats.ShippedBytes
	t.mergeFullBytes += stats.FullBytes
	t.publish(&Snapshot{t: t, base: seg, liveBase: newN})
	return stats, nil
}

// publish stamps the next epoch on s and makes it the current snapshot.
// Callers must hold t.mu.
func (t *Table) publish(s *Snapshot) {
	t.epoch++
	s.Epoch = t.epoch
	t.cur.Store(s)
}

// ReleaseDecompositions frees the device allocations of the current base
// segment (catalog teardown).
func (t *Table) ReleaseDecompositions() {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.cur.Load()
	seg := s.base.clone()
	for i, d := range seg.decs {
		if d != nil {
			d.Release()
			seg.decs[i] = nil
		}
	}
	t.publish(&Snapshot{
		t: t, base: seg,
		delta: s.delta, deltaN: s.deltaN, del: s.del,
		liveBase: s.liveBase, liveDelta: s.liveDelta,
	})
}

// TableStats is a point-in-time snapshot of one table's store counters.
type TableStats struct {
	Name                string
	BaseRows, DeltaRows int // live rows per segment
	DeletedRows         int // marked, not yet compacted
	Segments            int
	Inserts, Deletes    int64
	Merges, AutoMerges  int64
	MergeRows           int64
	MergeShippedBytes   int64
	MergeFullBytes      int64
	Epoch               uint64
}

// Stats returns the table's current counters.
func (t *Table) Stats() TableStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.cur.Load()
	return TableStats{
		Name:              t.name,
		BaseRows:          s.liveBase,
		DeltaRows:         s.liveDelta,
		DeletedRows:       s.DeletedCount(),
		Segments:          s.Segments(),
		Inserts:           t.inserts,
		Deletes:           t.deletes,
		Merges:            t.merges,
		AutoMerges:        t.autoMerges,
		MergeRows:         t.mergeRows,
		MergeShippedBytes: t.mergeShipBytes,
		MergeFullBytes:    t.mergeFullBytes,
		Epoch:             t.epoch,
	}
}

// strictlyDense reports whether vals is exactly v[0], v[0]+1, v[0]+2, …
// — the invariant the positional (dense-PK) join arithmetic relies on.
func strictlyDense(vals []int64) bool {
	for i, v := range vals {
		if v != vals[0]+int64(i) {
			return false
		}
	}
	return len(vals) > 0
}

func packedBytes(n int, bits uint) int64 {
	return (int64(n)*int64(bits) + 7) / 8
}
