package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"
)

// conns is the number of closed-loop connections every workload is driven
// with: each sends its next statement only after the previous reply. Fixed
// (and no larger than this host's 2 CPUs) so that hosts compare.
const conns = 2

type kind uint8

const (
	kSelect kind = iota
	kInsert
	kDelete
)

// stmt is one generated statement.
type stmt struct {
	line string // what goes over the wire
	kind kind
	// sql is the SQL text behind a `\run` line (parameters substituted);
	// empty when line is itself SQL. The layer run times the front end on it.
	sql string
	// cached says the text is in the plan cache once warm-up is over.
	cached bool
	// rows and sumV are what an acknowledged write adds to (or, for a delete,
	// takes from) the events table: the generator's own tally.
	rows, sumV int64
}

func (s stmt) text() string {
	if s.sql != "" {
		return s.sql
	}
	return s.line
}

// workload is one traffic mix together with the server it runs against.
type workload struct {
	name    string
	flags   []string // arserve flags besides -addr (and -data, when durable)
	durable bool     // runs on a data directory and is checked across a kill -9
	session []string // lines every measuring connection sends first
	warmup  int      // statements per connection before the clock starts
	rate    int      // statements/s expected here: sizes the pre-generated sequences
	layerK  int      // statements the layer run replays
	// load runs over the wire once the server listens (nil: the preloaded
	// demo tables are the data). It returns the timed bwdecompose, in ms.
	load func(c *client) (decomposeMS float64, err error)
	// loaded is what load leaves in the events table.
	loaded tally
	// sequence returns connection conn's statement generator. The same
	// (seed, conn) always yields the same statements.
	sequence func(conn int) func() stmt
}

// newWorkload builds a workload for a seed. quick shrinks tables and counts
// (about 1/50) for the test in bench_test.go; numbers taken at quick scale
// mean nothing.
func newWorkload(name string, seed int64, quick bool) (*workload, error) {
	pick := func(full, small int) int {
		if quick {
			return small
		}
		return full
	}
	switch name {
	case "scan_range":
		return &workload{
			name:     name,
			flags:    []string{"-spatial", fmt.Sprint(pick(2_000_000, 80_000)), "-sf", "0.001"},
			warmup:   pick(60, 2),
			rate:     pick(300, 4000),
			layerK:   pick(200, 20),
			sequence: func(conn int) func() stmt { return scanRangeSeq(connRand(seed, conn)) },
		}, nil
	case "olap_tail":
		sf := "0.04"
		if quick {
			sf = "0.002"
		}
		return &workload{
			name:     name,
			flags:    []string{"-sf", sf, "-spatial", "1000"},
			warmup:   pick(15, 3),
			rate:     pick(80, 3000),
			layerK:   pick(52, 8),
			sequence: func(conn int) func() stmt { return olapTailSeq(connRand(seed, conn)) },
		}, nil
	case "short_stmt":
		boxes := fixedBoxes(rand.New(rand.NewSource(seed)))
		return &workload{
			name:     name,
			flags:    []string{"-spatial", "2000", "-sf", "0.001"},
			session:  []string{`\prepare q ` + rangeCount("$1", "$2", "$3", "$4")},
			warmup:   pick(10_000, 200),
			rate:     30_000,
			layerK:   pick(2000, 200),
			sequence: func(conn int) func() stmt { return shortStmtSeq(connRand(seed, conn), boxes) },
		}, nil
	case "ingest_mixed":
		in := newIngest(seed, pick(200, 16), pick(1000, 256))
		return &workload{
			name:     name,
			flags:    []string{"-fsync", "always", "-merge-threshold", "16384", "-sf", "0.001", "-spatial", "1000"},
			durable:  true,
			warmup:   pick(500, 16),
			rate:     pick(1200, 4000),
			layerK:   pick(200, 32),
			load:     in.load,
			loaded:   in.loaded(),
			sequence: in.sequence,
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// connRand decorrelates the per-connection streams of one seed.
func connRand(seed int64, conn int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(conn)*104729 + 1))
}

// ---- spatial range counts (scan_range, short_stmt) ----

// The trips table's coordinate domain and its hot spot near Calais, where
// one trip in forty starts (internal/spatial).
const (
	lonMin, lonMax = -12.62427, 29.64975
	latMin, latMax = 27.09371, 70.13643
	hotLon, hotLat = 2.69258, 50.43535
)

type box struct{ lonLo, lonHi, latLo, latHi string }

func rangeCount(lonLo, lonHi, latLo, latHi string) string {
	return "select count(lon) from trips where lon between " + lonLo + " and " + lonHi +
		" and lat between " + latLo + " and " + latHi
}

func (b box) sql() string { return rangeCount(b.lonLo, b.lonHi, b.latLo, b.latHi) }

// squareBox is a side×side degree box centred on (lon, lat), written with
// five decimals like the paper's Table I query.
func squareBox(lon, lat, side float64) box {
	f := func(v float64) string { return fmt.Sprintf("%.5f", v) }
	return box{f(lon - side/2), f(lon + side/2), f(lat - side/2), f(lat + side/2)}
}

func uniform(rng *rand.Rand, lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }

func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo * math.Pow(hi/lo, rng.Float64())
}

// scanRangeSeq: every literal unique, so the plan cache never hits. 85 % of
// boxes are selective (side 0.05°–2°, a quarter of them on the hot spot) and
// go to the A&R executor; 15 % are wide (side 15°–40°) and go to classic.
func scanRangeSeq(rng *rand.Rand) func() stmt {
	return func() stmt {
		var b box
		switch p := rng.Float64(); {
		case p < 0.15:
			side := uniform(rng, 15, 40)
			b = squareBox(uniform(rng, lonMin+side/2, lonMax-side/2), uniform(rng, latMin+side/2, latMax-side/2), side)
		case p < 0.15+0.85/4:
			side := logUniform(rng, 0.05, 2)
			b = squareBox(hotLon+uniform(rng, -side/4, side/4), hotLat+uniform(rng, -side/4, side/4), side)
		default:
			b = squareBox(uniform(rng, lonMin, lonMax), uniform(rng, latMin, latMax), logUniform(rng, 0.05, 2))
		}
		return stmt{line: b.sql(), kind: kSelect}
	}
}

// fixedBoxes are short_stmt's 16 repeated boxes: half around the hot spot,
// half anywhere, all large enough to count some of the 2 000 fixes.
func fixedBoxes(rng *rand.Rand) []box {
	boxes := make([]box, 16)
	for i := range boxes {
		boxes[i] = shortBox(rng, i%2 == 0)
	}
	return boxes
}

func shortBox(rng *rand.Rand, hot bool) box {
	if hot {
		return squareBox(hotLon, hotLat, logUniform(rng, 0.1, 5))
	}
	return squareBox(uniform(rng, lonMin, lonMax), uniform(rng, latMin, latMax), uniform(rng, 5, 20))
}

// shortStmtSeq mixes the three ways into the front end: 70 % a repeated text
// (plan-cache hit), 15 % `\run` of the prepared statement (compiled afresh
// from substituted text, no cache), 15 % a never-seen text (miss: lex, parse,
// bind, insert, evict).
func shortStmtSeq(rng *rand.Rand, boxes []box) func() stmt {
	return func() stmt {
		switch p := rng.Float64(); {
		case p < 0.70:
			return stmt{line: boxes[rng.Intn(len(boxes))].sql(), kind: kSelect, cached: true}
		case p < 0.85:
			b := boxes[rng.Intn(len(boxes))]
			return stmt{line: `\run q ` + b.lonLo + " " + b.lonHi + " " + b.latLo + " " + b.latHi, sql: b.sql(), kind: kSelect}
		default:
			return stmt{line: shortBox(rng, rng.Intn(2) == 0).sql(), kind: kSelect}
		}
	}
}

// ---- TPC-H shaped analytics (olap_tail) ----

// day encodes a date like internal/tpch: days since 1992-01-01.
func day(y, m, d int) int {
	epoch := time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)
	return int(time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC).Sub(epoch).Hours() / 24)
}

// olapTailSeq rotates the paper's three TPC-H queries with jittered
// parameters: Q1, Q6, Q1, Q14-shaped. Q1 is every other statement because
// the latencies fall in two groups — a few ms for a Q6 or Q14 that finds the
// GPU stream free, a Q1's worth for everything else — and with Q1 at a third
// the boundary between them wanders around the median. The p_type range
// 75..99 is the PROMO prefix in the ordered part-type dictionary (the paper's
// rewrite of `like 'PROMO%'`).
func olapTailSeq(rng *rand.Rand) func() stmt {
	i := 0
	return func() stmt {
		i++
		var q string
		switch i % 4 {
		case 1, 3: // Q1
			q = fmt.Sprintf("select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty, sum(l_extendedprice) as sum_base_price, "+
				"sum(l_extendedprice * (1.00 - l_discount)) as sum_disc_price, "+
				"sum(l_extendedprice * (1.00 - l_discount) * (1.00 + l_tax)) as sum_charge, "+
				"avg(l_quantity) as avg_qty, avg(l_extendedprice) as avg_price, avg(l_discount) as avg_disc, count(*) as count_order "+
				"from lineitem where l_shipdate <= %d group by l_returnflag, l_linestatus",
				day(1998, 12, 1)-60-rng.Intn(61))
		case 2: // Q6
			year, disc := 1993+rng.Intn(5), 2+rng.Intn(8)
			q = fmt.Sprintf("select sum(l_extendedprice * l_discount) as revenue from lineitem "+
				"where l_shipdate between %d and %d and l_discount between 0.%02d and 0.%02d and l_quantity < %d",
				day(year, 1, 1)+rng.Intn(31), day(year+1, 1, 1)-1+rng.Intn(31), disc-1, disc+1, 24+rng.Intn(2))
		default: // Q14-shaped
			year, month := 1993+rng.Intn(5), 1+rng.Intn(12)
			from := day(year, month, 1) + rng.Intn(28)
			q = fmt.Sprintf("select sum(l_extendedprice * (1.00 - l_discount)) as promo_revenue, count(*) as n "+
				"from lineitem join part on lineitem.l_partkey = part.p_partkey "+
				"where l_shipdate between %d and %d and part.p_type between 75 and 99", from, from+30)
		}
		return stmt{line: q, kind: kSelect}
	}
}

// ---- writes beside reads on a partitioned, durable table (ingest_mixed) ----

const (
	ingestRows = 64   // rows per measured INSERT, and per deleted slice
	ingestKeys = 4096 // distinct k, Zipf(1.2)
	ingestVMax = 100_000
)

// ingest is the preload — one bulk INSERT per batch, ts counting up from 0 —
// and what the generator must remember of it to keep its own tally of the
// table: the row count and Σv of every 64-row slice of ts.
type ingest struct {
	seed     int64
	preload  []string
	rows     int64
	sliceSum []int64
}

func newIngest(seed int64, batches, batchRows int) *ingest {
	in := &ingest{seed: seed, rows: int64(batches * batchRows)}
	in.sliceSum = make([]int64, in.rows/ingestRows)
	rng := rand.New(rand.NewSource(seed))
	zipf := newZipf(rng)
	for b := 0; b < batches; b++ {
		in.preload = append(in.preload, ingestInsert(rng, zipf, int64(b*batchRows), batchRows,
			func(ts, v int64) { in.sliceSum[ts/ingestRows] += v }))
	}
	return in
}

// ingestInsert renders one INSERT of n events rows with ts counting up from
// firstTS and tells each row's ts and v to each. ts is unique per row; k is
// Zipf-skewed so group sizes are uneven; v and amt are uniform.
func ingestInsert(rng *rand.Rand, zipf *rand.Zipf, firstTS int64, n int, each func(ts, v int64)) string {
	var sb strings.Builder
	sb.WriteString("insert into events values ")
	for r := int64(0); r < int64(n); r++ {
		if r > 0 {
			sb.WriteString(", ")
		}
		v := rng.Int63n(ingestVMax)
		fmt.Fprintf(&sb, "(%d, %d, %d, %d.%02d)", firstTS+r, zipf.Uint64(), v, rng.Intn(1000), rng.Intn(100))
		each(firstTS+r, v)
	}
	return sb.String()
}

func (in *ingest) loaded() tally {
	t := tally{rows: in.rows}
	for _, s := range in.sliceSum {
		t.sumV += s
	}
	return t
}

func newZipf(rng *rand.Rand) *rand.Zipf { return rand.NewZipf(rng, 1.2, 1, ingestKeys-1) }

// load creates the table, sends the preload through the real ingest path,
// decomposes the filtered columns and checkpoints, so measurement starts
// from a bit-sliced base with an empty delta.
func (in *ingest) load(c *client) (float64, error) {
	if _, err := c.query("create table events (ts int, k int, v int, amt decimal2) partition by hash(ts) partitions 4"); err != nil {
		return 0, err
	}
	for _, insert := range in.preload {
		if _, err := c.query(insert); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	if _, err := c.query("select bwdecompose(ts, 24), bwdecompose(k, 12), bwdecompose(v, 16) from events"); err != nil {
		return 0, err
	}
	decomposeMS := float64(time.Since(start)) / 1e6
	_, err := c.query(`\checkpoint`)
	return decomposeMS, err
}

// sequence: statement i is a top-10 group-by over a v range when i%8 == 7, a
// delete of one not-yet-deleted 64-row slice of the preload when i%64 == 32,
// and a 64-row INSERT of fresh ts values otherwise.
func (in *ingest) sequence(conn int) func() stmt {
	rng := connRand(in.seed, conn)
	zipf := newZipf(rng)
	i, inserts, deletes := 0, int64(0), 0
	return func() stmt {
		defer func() { i++ }()
		switch {
		case i%8 == 7:
			x := rng.Intn(ingestVMax - 500)
			return stmt{kind: kSelect, line: fmt.Sprintf(
				"select k, count(*) as n, sum(v) as s from events where v between %d and %d group by k order by n desc limit 10", x, x+500)}
		case i%64 == 32:
			// Connections take alternate slices; past the end of the preload
			// a slice comes round again and its delete removes nothing.
			slice := deletes*conns + conn
			deletes++
			st := stmt{kind: kDelete}
			if slice < len(in.sliceSum) {
				st.rows, st.sumV = -ingestRows, -in.sliceSum[slice]
			}
			slice %= len(in.sliceSum)
			st.line = fmt.Sprintf("delete from events where ts between %d and %d", slice*ingestRows, slice*ingestRows+ingestRows-1)
			return st
		default:
			st := stmt{kind: kInsert, rows: ingestRows}
			first := in.rows + (inserts*conns+int64(conn))*ingestRows
			inserts++
			st.line = ingestInsert(rng, zipf, first, ingestRows, func(_, v int64) { st.sumV += v })
			return st
		}
	}
}
