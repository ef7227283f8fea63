// Package store is the mutable columnar storage subsystem underneath the
// query catalog. It extends the paper's read-only picture — load once,
// bitwise-decompose once, query forever — with a write path that keeps the
// GPU-resident approximation hot and cheap to maintain:
//
//   - each table is an immutable, bit-sliced **base segment**: every column
//     held once, as its BWD decomposition — approximation on the device,
//     residual on the host — a column the user never decomposed as one with
//     no device bits, every bit on the host,
//   - plus an append-only **delta segment** holding freshly ingested rows in
//     host memory, stored by column like the base: one array of exact values
//     per column, never decomposed,
//   - plus **deletion words** per segment, each aligned at its segment's row
//     0; the base's are mirrored to the device so approximate selections can
//     discharge deleted rows without a host round-trip.
//
// Reads are snapshot isolated: a reader pins a *Snapshot (one atomic load)
// and sees a frozen base segment, a frozen prefix of every delta column and
// frozen deletion words for its whole execution; writers never mutate
// pinned data — every write publishes a fresh snapshot with a bumped epoch.
// A merge compacts the delta (and any deletions) into a new base segment,
// re-decomposing and re-shipping only what actually changed: when the
// decomposition parameters of a column are unchanged and no base row moved,
// only the merged delta rows' approximation codes cross the PCI-E bus —
// the paper's "waste not" economics applied to the write path.
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
	"repro/internal/mem"
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

// segment is an immutable base segment: positionally aligned columns, each
// held once, as its bitwise decomposition — with no device bits where it was
// never decomposed — with (optional) pre-built foreign-key indexes. A
// column's exact values are its code and residual (bwd.Column.Decode); no
// full-width copy is kept beside them. Once a segment is reachable from a
// published snapshot it is never mutated; updates clone it.
type segment struct {
	n    int
	cols []*bwd.Column
	fk   []*bulk.FKIndex // nil per column when no FK index was built
}

func (g *segment) clone() *segment {
	out := &segment{n: g.n}
	out.cols = append([]*bwd.Column(nil), g.cols...)
	out.fk = append([]*bulk.FKIndex(nil), g.fk...)
	return out
}

// values returns rows [lo, hi) of column c, lo a multiple of
// bwd.GranuleRows, decoded into room, or into a new slice when room is too
// short.
func (g *segment) values(c, lo, hi int, room []int64) []int64 {
	if cap(room) < hi-lo {
		room = make([]int64, hi-lo)
	}
	return g.cols[c].Decode(room[:hi-lo], lo)
}

// Snapshot is one immutable version of a table, pinned by readers for the
// duration of a query. All methods are safe for concurrent use.
type Snapshot struct {
	// Epoch is the table's data epoch when this snapshot was published;
	// every insert, delete, merge, decompose or index build bumps it.
	Epoch uint64

	t    *Table
	base *segment
	// delta holds one append-only array per schema column, each as long as
	// its capacity: this snapshot sees rows [0, deltaN) of them, and the
	// writer appends past the last published deltaN, so the arrays are
	// shared with the snapshots before and after until a grow or a merge
	// replaces them.
	delta               [][]int64
	deltaN              int
	del, deltaDel       []uint64 // deletion words of the base and the delta; nil = none
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

// DeletedWords returns the base's deletion words: bit i%64 of word i/64 is
// BaseDeleted(i). The slice may end early, even be nil — rows it does not
// reach are live — and is the snapshot's own: callers must not write to it.
func (s *Snapshot) DeletedWords() []uint64 { return s.del }

// DeltaDeletedWords returns the delta's deletion words, laid out as
// DeletedWords is but aligned at delta row 0: bit j%64 of word j/64 is
// DeltaDeleted(j).
func (s *Snapshot) DeltaDeletedWords() []uint64 { return s.deltaDel }

// DeltaDeleted reports whether delta row j is deleted.
func (s *Snapshot) DeltaDeleted(j int) bool { return bitSet(s.deltaDel, j) }

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

// BaseValues returns the base segment's values of a column at rows [lo,
// hi), lo a multiple of bwd.GranuleRows, decoded from its code and residual
// into room, or into a new slice when room is too short. A reader that needs
// a column's values whole reads them a block at a time.
func (s *Snapshot) BaseValues(name string, lo, hi int, room []int64) ([]int64, error) {
	i, err := s.t.colIndex(name)
	if err != nil {
		return nil, err
	}
	return s.base.values(i, lo, hi, room), nil
}

// Dec returns the bitwise decomposition of a column, or nil when the
// column was never decomposed: one with no device bits is not decomposed to
// the planner, which neither prices nor runs an approximate scan of it.
func (s *Snapshot) Dec(name string) *bwd.Column {
	i, err := s.t.colIndex(name)
	if err != nil || s.base.cols[i].Dec.ApproxBits == 0 {
		return nil
	}
	return s.base.cols[i]
}

// BaseColumn returns the base segment's stored column: its decomposition,
// with no device bits when it was never decomposed. A classic scan reads it
// through its code and residual.
func (s *Snapshot) BaseColumn(name string) (*bwd.Column, error) {
	i, err := s.t.colIndex(name)
	if err != nil {
		return nil, err
	}
	return s.base.cols[i], nil
}

// FKIndex returns the pre-built foreign-key index over a column, or nil.
func (s *Snapshot) FKIndex(name string) *bulk.FKIndex {
	i, err := s.t.colIndex(name)
	if err != nil {
		return nil
	}
	return s.base.fk[i]
}

// DeltaColumn returns the delta segment's values of a column: entry j is
// delta row j's, for every delta row the snapshot sees. The slice is the
// snapshot's own: callers must not write to it.
func (s *Snapshot) DeltaColumn(name string) ([]int64, error) {
	i, err := s.t.colIndex(name)
	if err != nil {
		return nil, err
	}
	return s.deltaCol(i), nil
}

func (s *Snapshot) deltaCol(c int) []int64 {
	if s.deltaN == 0 {
		return nil
	}
	return s.delta[c][:s.deltaN:s.deltaN]
}

// DeltaValue returns delta row j's value for the column at schema index c.
func (s *Snapshot) DeltaValue(j, c int) int64 { return s.deltaCol(c)[j] }

// DeltaBytes returns the footprint of the visible delta rows as a row store
// holds them: what the meter bills a delta scan's whole-row pass for, though
// the host reads the delta by column (DESIGN.md §7).
func (s *Snapshot) DeltaBytes() int64 {
	return int64(s.deltaN) * s.t.rowBytes
}

// Table returns the mutable table this snapshot was taken from.
func (s *Snapshot) Table() *Table { return s.t }

func bitSet(bits []uint64, i int) bool {
	w := i >> 6
	if w >= len(bits) {
		return false
	}
	return bits[w]&(1<<(uint(i)&63)) != 0
}

// Table is a mutable table: an atomically published current Snapshot plus
// the writer-side state (recorded decomposition bits, PK markers, counters)
// guarded by a mutex; the current snapshot's delta columns are the writer's
// append buffer. Readers never take the mutex.
type Table struct {
	name        string
	schemaEpoch uint64
	schema      []ColumnDef
	colIdx      map[string]int
	rowBytes    int64
	sys         *device.System

	mu      sync.Mutex
	cur     atomic.Pointer[Snapshot]
	decBits []uint // requested approx bits per column (0 = not decomposed)
	pkCols  []bool // columns with a registered FK (primary-key) index
	epoch   uint64

	inserts, deletes               int64
	merges, autoMerges             int64
	mergeRows                      int64
	mergeShipBytes, mergeFullBytes int64
}

// New creates a table over the given schema. cols supplies the initial
// base-segment columns in schema order (all equal length), each as
// bwd.Decompose built it — a loader's with no device bits; nil cols creates
// an empty table.
func New(name string, schema []ColumnDef, cols []*bwd.Column, sys *device.System) (*Table, error) {
	if len(schema) == 0 {
		return nil, fmt.Errorf("store: table %s has no columns", name)
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
	if cols != nil && len(cols) != len(schema) {
		return nil, fmt.Errorf("store: table %s: %d columns for %d schema entries", name, len(cols), len(schema))
	}
	seg := &segment{
		cols: make([]*bwd.Column, len(schema)),
		fk:   make([]*bulk.FKIndex, len(schema)),
	}
	copy(seg.cols, cols)
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
		if seg.cols[i] == nil {
			if cols != nil {
				return nil, fmt.Errorf("store: column %s.%s has no values", name, def.Name)
			}
			seg.cols[i], _ = bwd.Decompose(nil, def.Width, 0, nil)
		}
		rows := seg.cols[i].Len()
		if i == 0 {
			seg.n = rows
		} else if rows != seg.n {
			return nil, fmt.Errorf("store: column %s.%s has %d rows, table has %d", name, def.Name, rows, seg.n)
		}
	}
	t.cur.Store(&Snapshot{t: t, base: seg, liveBase: seg.n})
	return t, nil
}

// Restore rebuilds a table from persisted state: the base-segment columns
// (restored decompositions, with no device bits where a column was never
// decomposed), the recorded decomposition bit widths, and the FK-indexed
// column markers. It is the segment-load path of the durability subsystem —
// the table comes back exactly as a checkpoint captured it, with FK indexes
// rebuilt from the (strictly dense) key columns rather than deserialized.
// Delta rows are not part of a checkpoint; recovery replays them from the
// WAL tail via ordinary Insert/DeleteWhere calls.
func Restore(name string, schema []ColumnDef, cols []*bwd.Column, decBits []uint, pkCols []bool, sys *device.System) (*Table, error) {
	if len(cols) != len(schema) || len(decBits) != len(schema) || len(pkCols) != len(schema) {
		return nil, fmt.Errorf("store: restore %s: per-column state does not match schema arity", name)
	}
	t, err := New(name, schema, cols, sys)
	if err != nil {
		return nil, err
	}
	seg := t.cur.Load().base
	for i := range schema {
		t.decBits[i] = decBits[i]
		if !pkCols[i] {
			continue
		}
		ix := bulk.BuildFKIndex(seg.values(i, 0, seg.n, nil))
		if ix == nil {
			return nil, fmt.Errorf("store: restore %s: %s is no longer a dense key", name, schema[i].Name)
		}
		seg.fk[i] = ix
		t.pkCols[i] = true
	}
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
		if bits > 0 && s.base.cols[c].Dec.ApproxBits == 0 {
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

// ColumnScale returns the fixed-point scale of a column.
func (t *Table) ColumnScale(name string) (int64, error) {
	i, err := t.colIndex(name)
	if err != nil {
		return 0, err
	}
	return t.schema[i].Scale, nil
}

// ColumnWidth returns the physical bytes per value of a column: what the
// cost model bills a scan of it by, whatever form the base holds it in.
func (t *Table) ColumnWidth(name string) (int, error) {
	i, err := t.colIndex(name)
	if err != nil {
		return 0, err
	}
	return t.schema[i].Width, nil
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

// Insert appends rows (schema order, scaled values) to the delta segment,
// column by column, and publishes a new snapshot. The append is host-side
// only: no device or bus time is charged beyond the CPU write of the rows
// themselves.
func (t *Table) Insert(m *device.Meter, rows [][]int64) (int, error) {
	for r, row := range rows {
		if len(row) != len(t.schema) {
			return 0, fmt.Errorf("store: insert into %s: row %d has %d values, table has %d columns", t.name, r+1, len(row), len(t.schema))
		}
	}
	if len(rows) == 0 {
		return 0, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.cur.Load()
	next := *s
	next.deltaN += len(rows)
	next.liveDelta += len(rows)
	if len(s.delta) == 0 || next.deltaN > len(s.delta[0]) {
		// Grow every column at once, carved from one backing array; the
		// snapshots published so far keep the arrays they were handed.
		c := max(2*next.deltaN, 256)
		back := make([]int64, c*len(t.schema))
		next.delta = make([][]int64, len(t.schema))
		for col := range next.delta {
			next.delta[col] = back[col*c : (col+1)*c : (col+1)*c]
			copy(next.delta[col], s.deltaCol(col))
		}
	}
	for col, vals := range next.delta {
		for r, row := range rows {
			vals[s.deltaN+r] = row[col]
		}
	}
	t.inserts += int64(len(rows))
	t.publish(&next)
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
	base, delta := make([]bwd.Disjunct, len(preds)), make([]bwd.Disjunct, len(preds))
	for k, p := range preds {
		// A base column is compared by its code and residual, as phase R
		// compares it; the delta by its values.
		base[k] = bwd.Exactly(s.base.cols[idx[k]], nil, p.Lo, p.Hi)
		delta[k] = bwd.Exactly(nil, s.deltaCol(idx[k]), p.Lo, p.Hi)
	}
	next := *s
	var removedBase, removedDelta int
	next.del, removedBase = markWhere(s.del, s.base.n, base)
	next.deltaDel, removedDelta = markWhere(s.deltaDel, s.deltaN, delta)
	if m != nil {
		var scanned int64
		for k := range preds {
			scanned += int64(s.base.n) * int64(t.schema[idx[k]].Width)
		}
		scanned += s.DeltaBytes()
		m.CPUWork(1, scanned, 0, int64(s.base.n+s.deltaN)*int64(max(1, len(preds))))
		if removedBase > 0 {
			m.Transfer(int64((s.base.n + 7) / 8)) // refresh the device-side mask
		}
	}
	if removedBase+removedDelta == 0 {
		return 0, nil
	}
	t.deletes += int64(removedBase + removedDelta)
	next.liveBase -= removedBase
	next.liveDelta -= removedDelta
	t.publish(&next)
	return int64(removedBase + removedDelta), nil
}

// markWhere returns the deletion words of a segment of n rows, del before,
// with the live rows that satisfy every conjunct of ds deleted, and how many
// those are. The live rows start a survivor mask, with the bitmap of its
// live granules, that each conjunct narrows through the scans' granule walk
// over the live ones — a granule whose rows are all deleted already is
// passed over, one the bounds of a decomposed column settle is not read,
// exact values are compared in the rest — and what is left of it is marked
// in a copy of del, or nothing is and del comes back.
func markWhere(del []uint64, n int, ds []bwd.Disjunct) ([]uint64, int) {
	hit := make([]uint64, (n+63)/64)
	live := make([]uint64, (len(hit)+63)/64)
	removed := 0
	for g := range hit {
		hit[g] = ^uint64(0) >> uint(64-min(64, n-g*64))
		if g < len(del) {
			hit[g] &^= del[g]
		}
		if hit[g] != 0 {
			live[g/64] |= 1 << uint(g%64)
		}
		removed += bits.OnesCount64(hit[g])
	}
	for k := range ds {
		removed, _ = bwd.NarrowGranules(ds[k:k+1], hit, live, 0, n)
	}
	if removed == 0 {
		return del, 0
	}
	for g := range min(len(del), len(hit)) {
		hit[g] |= del[g]
	}
	return hit, removed
}

// Decompose bitwise-decomposes a column with the given device-resident bit
// width (1..63), recording the width so merges re-decompose incrementally:
// the column is decomposed anew from its code and residual, which replace
// the ones it had — none on the device, when it was never decomposed. A
// table with delta rows or deletions is merged first: decomposition always
// covers the whole (compacted) base segment.
func (t *Table) Decompose(m *device.Meter, col string, bits uint) (*bwd.Column, error) {
	i, err := t.colIndex(col)
	if err != nil {
		return nil, err
	}
	if bits == 0 {
		return nil, fmt.Errorf("store: bwdecompose(%s.%s, 0): no device bits to decompose into", t.name, col)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.cur.Load(); s.deltaN > 0 || s.DeletedCount() > 0 {
		if _, err := t.mergeLocked(m, false); err != nil {
			return nil, err
		}
	}
	s := t.cur.Load()
	d, err := s.base.cols[i].Redecompose(bits, t.sys)
	if err != nil {
		return nil, fmt.Errorf("store: bwdecompose(%s.%s, %d): %w", t.name, col, bits, err)
	}
	seg := s.base.clone()
	seg.cols[i].Release()
	seg.cols[i] = d
	t.decBits[i] = bits
	next := *s
	next.base = seg
	t.publish(&next)
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
	ix := bulk.BuildFKIndex(s.base.values(i, 0, s.base.n, nil))
	if ix == nil {
		return fmt.Errorf("store: %s.%s is not a dense unique key", t.name, col)
	}
	seg := s.base.clone()
	seg.fk[i] = ix
	t.pkCols[i] = true
	next := *s
	next.base = seg
	t.publish(&next)
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
		cols: make([]*bwd.Column, stride),
		fk:   make([]*bulk.FKIndex, stride),
	}
	fail := func(err error) (MergeStats, error) {
		for _, nd := range seg.cols {
			if nd != nil {
				nd.Release()
			}
		}
		return MergeStats{}, err
	}

	var stats MergeStats
	stats.Merged = true
	stats.DeltaRows = s.liveDelta
	stats.DroppedRows = s.DeletedCount()

	// Each column's surviving rows, base then delta — the base decoded a
	// block at a time — are decomposed at the recorded width, with no device
	// bits where none is recorded or no row is left, and dropped: the next
	// column reuses their buffer. Decompose-before-release means a racing
	// reader of the old snapshot keeps a valid (released) view; the
	// transient double allocation mirrors Catalog re-decomposition.
	room := mem.I64.GetN(min(s.base.n, bwd.BlockRows))
	defer mem.I64.Put(room)
	vals := make([]int64, 0, newN)
	for c := 0; c < stride; c++ {
		vals = vals[:0]
		for lo := 0; lo < s.base.n; lo += bwd.BlockRows {
			for i, v := range s.base.values(c, lo, min(lo+bwd.BlockRows, s.base.n), room) {
				if !s.BaseDeleted(lo + i) {
					vals = append(vals, v)
				}
			}
		}
		for j, v := range s.deltaCol(c) {
			if !s.DeltaDeleted(j) {
				vals = append(vals, v)
			}
		}
		bits := t.decBits[c]
		if newN == 0 {
			bits = 0
		}
		d, err := bwd.Decompose(vals, t.schema[c].Width, bits, t.sys)
		if err != nil {
			return fail(fmt.Errorf("store: merge %s: %w", t.name, err))
		}
		seg.cols[c] = d
		if bits == 0 {
			continue
		}
		full := packedBytes(newN, d.Dec.ApproxBits)
		stats.FullBytes += full
		old := s.base.cols[c]
		if old.Dec == d.Dec && !compacted {
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
				if compacted && old.Dec.ApproxBits > 0 {
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
	// key must remain STRICTLY dense (v[i] == v[0] + i): the join maps
	// foreign keys to dimension positions arithmetically (§IV-D), so a
	// compaction that punches holes into the key — or an append that
	// leaves one — would silently mis-join; bulk.BuildFKIndex refuses it.
	for c := 0; c < stride; c++ {
		if !t.pkCols[c] {
			continue
		}
		ix := bulk.BuildFKIndex(seg.values(c, 0, newN, nil))
		if ix == nil {
			return fail(fmt.Errorf("store: merge %s: %s is no longer a dense key (deletes from an indexed dimension key cannot be compacted; drop and reload the table)", t.name, t.schema[c].Name))
		}
		seg.fk[c] = ix
	}

	for _, d := range s.base.cols {
		d.Release()
	}
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
// segment (catalog teardown, a dropped table); a reader that pinned a
// snapshot of it still reads its planes.
func (t *Table) ReleaseDecompositions() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, d := range t.cur.Load().base.cols {
		d.Release()
	}
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

func packedBytes(n int, bits uint) int64 {
	return (int64(n)*int64(bits) + 7) / 8
}
