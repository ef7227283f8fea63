// Package plan implements the query layer of the reproduction: a logical
// query model, the bwd_pipe rewriter that turns classic bulk plans into
// Approximate & Refine plans (§V-B, Fig 7), a rule-based optimizer that
// pushes approximate selections down (§III-A), and two executors — the A&R
// executor spanning the simulated GPU/CPU system and the classic
// bulk-processing executor that serves as the paper's MonetDB baseline.
//
// Storage is the mutable column store of internal/store: every table is an
// immutable bit-sliced base segment plus an append-optimized delta segment
// and a deletion bitmap. Both executors pin a per-table snapshot at query
// start, scan the base segment through their native operator set, scan the
// delta with classic bulk passes, and merge the two honoring the deletion
// bitmap — so readers are snapshot isolated against concurrent DML.
package plan

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bat"
	"repro/internal/bulk"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/shard"
	"repro/internal/store"
)

// Table is a column-set builder used by the data loaders: columns are
// accumulated (with their fixed-point scales) and AddTable turns the
// builder into a mutable store.Table registered in the catalog. The
// AddColumn order becomes the table's schema order — the implicit column
// order of INSERT INTO ... VALUES.
type Table struct {
	Name  string
	cols  map[string]column
	order []string
	n     int
}

// column pairs the stored BAT with its fixed-point scale (1 for plain
// integers, 100 for decimal(_,2) money, 100000 for the decimal(_,5) GPS
// coordinates). The scale lets the SQL layer align decimal literals with
// the storage encoding.
type column struct {
	b     *bat.BAT
	scale int64
}

// NewTable creates an empty table builder.
func NewTable(name string) *Table {
	return &Table{Name: name, cols: make(map[string]column), n: -1}
}

// AddColumn adds a plain integer column (scale 1); all columns of a table
// must have equal length.
func (t *Table) AddColumn(name string, b *bat.BAT) error {
	return t.AddColumnScaled(name, b, 1)
}

// AddColumnScaled adds a fixed-point column with the given decimal scale.
func (t *Table) AddColumnScaled(name string, b *bat.BAT, scale int64) error {
	if _, dup := t.cols[name]; dup {
		return fmt.Errorf("plan: duplicate column %s.%s", t.Name, name)
	}
	if t.n >= 0 && b.Len() != t.n {
		return fmt.Errorf("plan: column %s.%s has %d rows, table has %d", t.Name, name, b.Len(), t.n)
	}
	if scale < 1 {
		return fmt.Errorf("plan: column %s.%s has invalid scale %d", t.Name, name, scale)
	}
	t.n = b.Len()
	t.cols[name] = column{b: b, scale: scale}
	t.order = append(t.order, name)
	return nil
}

// Column returns a column by name.
func (t *Table) Column(name string) (*bat.BAT, error) {
	c, ok := t.cols[name]
	if !ok {
		return nil, fmt.Errorf("plan: unknown column %s.%s", t.Name, name)
	}
	return c.b, nil
}

// Len returns the row count.
func (t *Table) Len() int {
	if t.n < 0 {
		return 0
	}
	return t.n
}

// Columns returns the column names in sorted order.
func (t *Table) Columns() []string {
	out := append([]string(nil), t.order...)
	sort.Strings(out)
	return out
}

// Durability is the write-ahead hook a durability subsystem (see
// internal/durable) installs with SetDurability. Every catalog write calls
// the matching Log method, passing the in-memory mutation as the apply
// callback; the implementation logs the operation to stable storage before
// (or around) invoking apply, and serializes per-table writes against
// checkpoints. A nil Durability means the catalog is memory-only and apply
// runs directly.
//
// An INSERT or DELETE is logged once per statement, whatever the number of
// partitions it touches: one record under the name the statement addressed,
// one commit wait, then apply — so a crash recovers all of the statement or
// none of it.
//
// The interface lives here (not in internal/durable) so the durability
// layer can depend on the catalog without an import cycle.
type Durability interface {
	// LogCreate logs a CREATE TABLE; apply registers the table.
	LogCreate(name string, defs []store.ColumnDef, apply func() error) error
	// LogInsert logs one INSERT statement into table: rows are row-major,
	// schema-order values in statement order, legs names the store tables
	// they route to, in partition-index order (the table itself when it is
	// not partitioned). apply appends the rows to every one of those legs.
	LogInsert(table string, legs []string, rows [][]int64, apply func() error) error
	// LogDelete logs one DELETE statement by conjunction of closed ranges;
	// legs and apply are as for LogInsert.
	LogDelete(table string, legs []string, preds []store.Range, apply func() error) error
	// LogDecompose logs a bitwise decomposition (col, approx bits).
	LogDecompose(table, col string, bits uint, apply func() error) error
	// LogFKIndex logs an FK index build over table.col.
	LogFKIndex(table, col string, apply func() error) error
	// LogDrop logs a DROP TABLE and reclaims the table's durable state.
	LogDrop(table string, apply func() error) error
	// LogLoad persists a bulk-loaded table wholesale (no per-row logging);
	// apply registers it.
	LogLoad(t *store.Table, apply func() error) error
	// LogCreatePartitioned logs a CREATE TABLE ... PARTITION BY; apply
	// registers the wrapper and its partition tables.
	LogCreatePartitioned(name string, defs []store.ColumnDef, spec shard.Spec, apply func() error) error
}

// Catalog holds the mutable store tables, bound to one simulated device
// system.
//
// A Catalog is safe for concurrent use: the table registry is guarded by
// an RWMutex, and each store.Table publishes immutable snapshots — queries
// (Pin) pin a snapshot at start and may run concurrently
// with each other and with DML (Insert/Delete/Merge/Decompose), which
// swaps fresh versions in without mutating pinned data.
type Catalog struct {
	sys *device.System
	dur Durability

	// prunedParts counts partition legs skipped by range-partition
	// pruning before scattering (see exec); exposed through
	// PlannerStats and the engine's ar_partition_pruned_total metric.
	prunedParts    atomic.Int64
	plans, replans atomic.Int64 // see PlannerStats

	mu     sync.RWMutex
	tables map[string]*store.Table
	parted map[string]*shard.Partitioned

	// betweenLegs, when set, runs between two legs' applies of one DML
	// statement: the seam the statement-fence test pins a reader at.
	betweenLegs func()
}

// PlannerStats is a point-in-time snapshot of optimizer counters.
type PlannerStats struct {
	// PartitionsPruned counts partition legs excluded from scatter-gather
	// executions because the anchor column's filters ruled out their slab.
	PartitionsPruned int64
	// Plans counts statements planned from scratch; Replans the executions
	// of a kept plan that priced it again because a table it reads had moved
	// (DML, merge, bwdecompose, drop and re-create). An execution counted by
	// neither estimated no selectivity and compiled nothing.
	Plans, Replans int64
}

// PlannerStats returns the current optimizer counters.
func (c *Catalog) PlannerStats() PlannerStats {
	return PlannerStats{PartitionsPruned: c.prunedParts.Load(), Plans: c.plans.Load(), Replans: c.replans.Load()}
}

// NewCatalog creates a catalog bound to the given simulated system.
func NewCatalog(sys *device.System) *Catalog {
	return &Catalog{
		sys:    sys,
		tables: make(map[string]*store.Table),
		parted: make(map[string]*shard.Partitioned),
	}
}

// System returns the catalog's simulated system.
func (c *Catalog) System() *device.System { return c.sys }

// SetDurability installs the write-ahead hook: from now on every catalog
// write flows through d. Install it after recovery has re-applied history
// directly (recovery must not re-log what it replays). A nil d detaches
// durability.
func (c *Catalog) SetDurability(d Durability) {
	c.mu.Lock()
	c.dur = d
	c.mu.Unlock()
}

func (c *Catalog) durability() Durability {
	c.mu.RLock()
	d := c.dur
	c.mu.RUnlock()
	return d
}

// AddTable registers a loaded table builder as a mutable store table.
func (c *Catalog) AddTable(t *Table) error {
	defs := make([]store.ColumnDef, len(t.order))
	cols := make([]*bat.BAT, len(t.order))
	for i, name := range t.order {
		col := t.cols[name]
		defs[i] = store.ColumnDef{Name: name, Scale: col.scale, Width: col.b.Width()}
		cols[i] = col.b
	}
	st, err := store.New(t.Name, defs, cols, c.sys)
	if err != nil {
		return err
	}
	if d := c.durability(); d != nil {
		return d.LogLoad(st, func() error { return c.register(st) })
	}
	return c.register(st)
}

// CreateTable registers a new empty table with the given schema — the
// engine-level CREATE TABLE.
func (c *Catalog) CreateTable(name string, defs []store.ColumnDef) (*store.Table, error) {
	st, err := store.New(name, defs, nil, c.sys)
	if err != nil {
		return nil, err
	}
	if d := c.durability(); d != nil {
		if err := d.LogCreate(name, defs, func() error { return c.register(st) }); err != nil {
			return nil, err
		}
		return st, nil
	}
	if err := c.register(st); err != nil {
		return nil, err
	}
	return st, nil
}

// Register adds an already-built store table to the catalog without
// logging — the durability layer uses it while restoring segments and
// replaying the WAL, when the history is already on disk.
func (c *Catalog) Register(st *store.Table) error { return c.register(st) }

func (c *Catalog) register(st *store.Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[st.Name()]; dup {
		return fmt.Errorf("plan: duplicate table %s", st.Name())
	}
	if _, dup := c.parted[st.Name()]; dup {
		return fmt.Errorf("plan: duplicate table %s", st.Name())
	}
	c.tables[st.Name()] = st
	return nil
}

func (c *Catalog) dropTable(name string) error {
	c.mu.Lock()
	t, ok := c.tables[name]
	if ok {
		delete(c.tables, name)
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("plan: unknown table %s", name)
	}
	t.ReleaseDecompositions()
	return nil
}

// DropTable removes a table, releases its device allocations, and — with
// durability attached — logs the drop and reclaims the table's segment
// files. In-flight queries holding a snapshot keep reading their pinned
// version. Dropping a partitioned table drops every partition.
func (c *Catalog) DropTable(name string) error {
	if p, ok := c.Partitioned(name); ok {
		return c.dropPartitioned(p)
	}
	if d := c.durability(); d != nil {
		return d.LogDrop(name, func() error { return c.dropTable(name) })
	}
	return c.dropTable(name)
}

// legs resolves a table name to its ordered legs — the store.Tables that
// hold its rows. A plain table is one leg under its own name; a partitioned
// table is its partitions in index order, returned with the wrapper that
// routes rows to them (p is nil for a plain table). Queries, DML and
// maintenance all reach a table's contents through this one resolver, so
// none of them forks on whether the table is partitioned.
func (c *Catalog) legs(name string) (tables []*store.Table, p *shard.Partitioned, err error) {
	c.mu.RLock()
	t, ok := c.tables[name]
	p = c.parted[name]
	c.mu.RUnlock()
	switch {
	case ok:
		return []*store.Table{t}, nil, nil
	case p != nil:
		return p.Parts, p, nil
	}
	return nil, nil, fmt.Errorf("plan: unknown table %s", name)
}

// Table returns a registered table. A partitioned table's wrapper name is
// not a plain table — callers that only need the schema use SchemaTable,
// everything that reads or writes rows resolves the legs.
func (c *Catalog) Table(name string) (*store.Table, error) {
	c.mu.RLock()
	t, ok := c.tables[name]
	_, isPart := c.parted[name]
	c.mu.RUnlock()
	if !ok {
		if isPart {
			return nil, fmt.Errorf("plan: table %s is partitioned and cannot be used here", name)
		}
		return nil, fmt.Errorf("plan: unknown table %s", name)
	}
	return t, nil
}

// TableNames returns the registered table names in sorted order.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	out := make([]string, 0, len(c.tables))
	for name := range c.tables {
		out = append(out, name)
	}
	c.mu.RUnlock()
	sort.Strings(out)
	return out
}

// TableSchemaEpoch returns the schema identity of a table (see
// store.Table.SchemaEpoch); ok is false when the table does not exist. The
// engine's plan cache records these per binding and invalidates entries
// whose dependencies changed.
func (c *Catalog) TableSchemaEpoch(name string) (uint64, bool) {
	t, err := c.SchemaTable(name)
	if err != nil {
		return 0, false
	}
	return t.SchemaEpoch(), true
}

// SchemaEpochs snapshots the schema epoch of every registered table. The
// engine reads it BEFORE compiling a statement: schema epochs are globally
// monotonic, so dependencies recorded from a pre-compilation snapshot can
// only be stale-conservative — a table replaced mid-compilation makes the
// cached entry invalid on its first hit instead of silently current.
func (c *Catalog) SchemaEpochs() map[string]uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]uint64, len(c.tables)+len(c.parted))
	for name, t := range c.tables {
		out[name] = t.SchemaEpoch()
	}
	for name, p := range c.parted {
		out[name] = p.Schema().SchemaEpoch()
	}
	return out
}

// Decompose bitwise-decomposes table.col with approxBits device-resident
// bits — the engine-level equivalent of the paper's
// `select bwdecompose(col, approxBits) from table` (§V-A). Decomposing an
// already decomposed column replaces the previous decomposition; a table
// with delta rows or deletions is compacted first so the decomposition
// covers every live row.
func (c *Catalog) Decompose(table, col string, approxBits uint) (*bwd.Column, error) {
	return c.DecomposeMetered(nil, table, col, approxBits)
}

// DecomposeMetered is Decompose charging the implicit pre-merge compaction
// (delta rows folded in, deletions dropped) to m — the SQL bwdecompose
// path uses it so the bus bytes a compaction ships appear in the engine
// totals, not just in the store counters. Every non-empty leg is decomposed
// (one WAL record each, under the leg table's name); the returned column is
// the first leg's. Empty legs are skipped — bwd rejects empty columns, and
// routing skew (e.g. range partitioning a narrow domain) legitimately leaves
// partitions empty — so their scans fall back to classic until rows arrive
// and a re-decompose runs. An entirely empty table is an error.
func (c *Catalog) DecomposeMetered(m *device.Meter, table, col string, approxBits uint) (*bwd.Column, error) {
	legs, _, err := c.legs(table)
	if err != nil {
		return nil, err
	}
	d := c.durability()
	var out *bwd.Column
	for _, t := range legs {
		if t.Snapshot().Len() == 0 {
			continue
		}
		var dec *bwd.Column
		apply := func() error {
			var aerr error
			dec, aerr = t.Decompose(m, col, approxBits)
			return aerr
		}
		if d != nil {
			err = d.LogDecompose(t.Name(), col, approxBits, apply)
		} else {
			err = apply()
		}
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = dec
		}
	}
	if out == nil {
		return nil, fmt.Errorf("store: bwdecompose(%s.%s, %d): bwd: cannot decompose empty column", table, col, approxBits)
	}
	return out, nil
}

// Decomposition returns the current decomposition of table.col (the first
// leg's: all legs share one schema and bwdecompose fans out), or an error
// if the column was never decomposed (A&R plans require explicit
// decomposition, like an index).
func (c *Catalog) Decomposition(table, col string) (*bwd.Column, error) {
	legs, _, err := c.legs(table)
	if err != nil {
		return nil, err
	}
	d := legs[0].Snapshot().Dec(col)
	if d == nil {
		return nil, fmt.Errorf("plan: column %s.%s is not bitwise decomposed; call Decompose first", legs[0].Name(), col)
	}
	return d, nil
}

// ReleaseDecompositions frees all device allocations held by the catalog.
func (c *Catalog) ReleaseDecompositions() {
	c.mu.RLock()
	tables := make([]*store.Table, 0, len(c.tables))
	for _, t := range c.tables {
		tables = append(tables, t)
	}
	c.mu.RUnlock()
	for _, t := range tables {
		t.ReleaseDecompositions()
	}
}

// BuildFKIndex pre-builds the foreign-key (primary-key) index over
// table.col on the CPU, as the paper does for joins (§IV-D). The index is
// segment-bound: merges rebuild it over the compacted key column.
func (c *Catalog) BuildFKIndex(table, col string) error {
	if _, ok := c.Partitioned(table); ok {
		return fmt.Errorf("plan: cannot build an FK index on partitioned table %s (partitioned tables are fact tables, not join dimensions)", table)
	}
	t, err := c.Table(table)
	if err != nil {
		return err
	}
	build := func() error {
		if err := t.BuildFKIndex(col); err != nil {
			return fmt.Errorf("plan: %s.%s is not a dense unique key", table, col)
		}
		return nil
	}
	if d := c.durability(); d != nil {
		return d.LogFKIndex(table, col, build)
	}
	return build()
}

// FKIndex returns the current pre-built index over table.col.
func (c *Catalog) FKIndex(table, col string) (*bulk.FKIndex, error) {
	t, err := c.Table(table)
	if err != nil {
		return nil, err
	}
	ix := t.Snapshot().FKIndex(col)
	if ix == nil {
		return nil, fmt.Errorf("plan: no FK index on %s.%s; call BuildFKIndex first", table, col)
	}
	return ix, nil
}

// InsertRows appends rows (schema order, scaled values) to the delta
// segment of the leg each row routes to, charging the host-side append to m
// (which may be nil). The statement is atomic, however many partitions it
// touches: every row is validated before anything happens, with durability
// attached the whole statement is one WAL record under table's name and one
// commit wait (replay re-splits it by the partition spec), and its rows
// become visible to readers together (applyStatement). A crash recovers all
// of it or none of it.
func (c *Catalog) InsertRows(m *device.Meter, table string, rows [][]int64) (int, error) {
	legs, p, err := c.legs(table)
	if err != nil {
		return 0, err
	}
	stride := len(legs[0].Schema())
	for r, row := range rows {
		if len(row) != stride {
			return 0, fmt.Errorf("store: insert into %s: row %d has %d values, table has %d columns", table, r+1, len(row), stride)
		}
	}
	if len(rows) == 0 {
		return 0, nil
	}
	groups := [][][]int64{rows}
	if p != nil {
		// Keep the touched legs only, in partition-index order.
		groups = p.Split(rows)
		legs = make([]*store.Table, 0, len(groups))
		for i, group := range groups {
			if len(group) > 0 {
				groups[len(legs)] = group
				legs = append(legs, p.Parts[i])
			}
		}
		groups = groups[:len(legs)]
	}
	total := 0
	apply := func() error {
		return c.applyStatement(p, legs, func(i int, t *store.Table) error {
			n, err := t.Insert(m, groups[i])
			total += n
			return err
		})
	}
	if d := c.durability(); d != nil {
		err = d.LogInsert(table, legNames(legs), rows, apply)
	} else {
		err = apply()
	}
	return total, err
}

// DeleteRows marks every live row of table satisfying all filters deleted
// and returns the count. A DELETE touches every leg; like an INSERT it is
// one statement — validated first, one WAL record, visible as a unit.
func (c *Catalog) DeleteRows(m *device.Meter, table string, filters []Filter) (int64, error) {
	legs, p, err := c.legs(table)
	if err != nil {
		return 0, err
	}
	preds := make([]store.Range, len(filters))
	for i, f := range filters {
		if _, err := legs[0].ColIndex(f.Col); err != nil {
			return 0, err
		}
		preds[i] = store.Range{Col: f.Col, Lo: f.Lo, Hi: f.Hi}
	}
	var total int64
	apply := func() error {
		return c.applyStatement(p, legs, func(_ int, t *store.Table) error {
			n, err := t.DeleteWhere(m, preds)
			total += n
			return err
		})
	}
	if d := c.durability(); d != nil {
		err = d.LogDelete(table, legNames(legs), preds, apply)
	} else {
		err = apply()
	}
	return total, err
}

// applyStatement runs one DML statement's in-memory mutation, each, on the
// legs it touches in partition-index order. Every leg publishes its own
// snapshot, so a statement over several holds the wrapper's statement fence
// across them — Pin holds it while it loads the legs' snapshots, and so sees
// all of the statement or none of it. One leg publishes atomically by
// itself: no fence. The statement was validated before it was logged, so
// each cannot fail on a later leg after an earlier one took its rows.
func (c *Catalog) applyStatement(p *shard.Partitioned, legs []*store.Table, each func(i int, t *store.Table) error) error {
	if len(legs) > 1 {
		p.Fence.Lock()
		defer p.Fence.Unlock()
	}
	for i, t := range legs {
		if i > 0 && c.betweenLegs != nil {
			c.betweenLegs()
		}
		if err := each(i, t); err != nil {
			return err
		}
	}
	return nil
}

func legNames(legs []*store.Table) []string {
	names := make([]string, len(legs))
	for i, t := range legs {
		names[i] = t.Name()
	}
	return names
}

// MergeTable compacts the delta segment and deletions of every leg of table
// into a fresh base segment, charging the incremental re-decomposition to m
// and summing the stats. auto marks background-merger invocations for stats
// attribution.
func (c *Catalog) MergeTable(m *device.Meter, table string, auto bool) (store.MergeStats, error) {
	var out store.MergeStats
	legs, _, err := c.legs(table)
	if err != nil {
		return out, err
	}
	for _, t := range legs {
		st, err := t.Merge(m, auto)
		if err != nil {
			return out, err
		}
		out.Merged = out.Merged || st.Merged
		out.DeltaRows += st.DeltaRows
		out.DroppedRows += st.DroppedRows
		out.ShippedBytes += st.ShippedBytes
		out.FullBytes += st.FullBytes
	}
	return out, nil
}

// StoreStats aggregates the store counters over every registered table.
type StoreStats struct {
	Tables            int
	Segments          int
	DeltaRows         int
	DeletedRows       int
	Merges            int64
	AutoMerges        int64
	MergeRows         int64
	MergeShippedBytes int64
	MergeFullBytes    int64
}

// StoreStats returns the aggregated mutable-store counters (the \stats
// surface).
func (c *Catalog) StoreStats() StoreStats {
	c.mu.RLock()
	tables := make([]*store.Table, 0, len(c.tables))
	for _, t := range c.tables {
		tables = append(tables, t)
	}
	c.mu.RUnlock()
	var out StoreStats
	out.Tables = len(tables)
	for _, t := range tables {
		st := t.Stats()
		out.Segments += st.Segments
		out.DeltaRows += st.DeltaRows
		out.DeletedRows += st.DeletedRows
		out.Merges += st.Merges
		out.AutoMerges += st.AutoMerges
		out.MergeRows += st.MergeRows
		out.MergeShippedBytes += st.MergeShippedBytes
		out.MergeFullBytes += st.MergeFullBytes
	}
	return out
}

func (s StoreStats) String() string {
	return fmt.Sprintf("store: %d tables, %d segments, %d delta rows, %d deleted, %d merges (%d auto, %d rows), merge shipped %d B (full re-decomposition %d B)",
		s.Tables, s.Segments, s.DeltaRows, s.DeletedRows, s.Merges, s.AutoMerges, s.MergeRows, s.MergeShippedBytes, s.MergeFullBytes)
}
