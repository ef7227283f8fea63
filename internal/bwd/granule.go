package bwd

import (
	"math/bits"

	"repro/internal/bitpack"
	"repro/internal/mem"
)

// This file is how a scan reads a column by granule: the bounds every
// granule carries, the one decision they allow — which of a granule's rows a
// range predicate admits, settled without reading a row wherever the bounds
// can settle it — and the loops that apply it to a survivor mask, all through
// one per-granule body: the walk that starts a mask, the narrowing of one,
// and the part index, which finds the granules a selective first step can
// meet by code so that it settles only those instead of walking the bounds
// of every granule of the table. The A&R approximate selection and its
// refinement (internal/ar), the classic selection (internal/plan) and
// DELETE ... WHERE (internal/store) all select through it; they differ only
// in what a Disjunct compares in a granule the bounds leave open (DESIGN.md
// §13). Packed codes are compared where they lie, by bitpack.InRange64 —
// several to a word where the width allows — so a walk unpacks no granule
// and keeps no buffer. A foreign-key join selects through it too: its probe
// and the filters on its dimension are disjuncts read through a Key
// (DESIGN.md §8).

// GranuleRows is the row count of one scan granule: the rows whose
// survivors a scan records in one 64-bit word. It is the machine word size,
// not a setting.
const GranuleRows = 64

// Bounds is the closed interval of approximation codes a run of rows spans;
// both ends are attained.
type Bounds struct{ Min, Max uint64 }

// Split is a granule cut in two row ranges, [0,K) and [K,GranuleRows), at
// its largest jump between adjacent codes, with the code bounds of each:
// a granule that straddles a run break — the last fixes of one trip, the
// first of the next — spans both runs as a whole but each part spans one, so
// a range that falls between the runs, or takes one and leaves the other,
// is settled from the parts. K is 0 when the granule is not split (its rows
// share one code, or there is one row); Head and Tail then mean nothing.
type Split struct {
	K          int
	Head, Tail Bounds
}

// summarizeGranule returns the bounds of the rows codes of one granule (at
// least one, at most GranuleRows) and its split, and counts the codes into
// the bucket histogram hist (bucket code >> shift), in one pass: tail spans
// the rows since the largest jump seen so far and head the rows before it,
// so a larger jump moves everything before it into the head.
func summarizeGranule(codes []uint64, hist []int64, shift uint) (Bounds, Split) {
	var head Bounds
	tail := Bounds{Min: codes[0], Max: codes[0]}
	hist[codes[0]>>shift]++
	k, jump := 0, uint64(0)
	for i := 1; i < len(codes); i++ {
		c, p := codes[i], codes[i-1]
		hist[c>>shift]++
		if d := max(c, p) - min(c, p); d > jump {
			if k == 0 {
				head = tail
			} else {
				head = head.union(tail)
			}
			tail = Bounds{Min: c, Max: c}
			k, jump = i, d
			continue
		}
		tail.Min, tail.Max = min(tail.Min, c), max(tail.Max, c)
	}
	if k == 0 {
		return tail, Split{}
	}
	return head.union(tail), Split{K: k, Head: head, Tail: tail}
}

func (b Bounds) union(o Bounds) Bounds {
	return Bounds{Min: min(b.Min, o.Min), Max: max(b.Max, o.Max)}
}

// Codes is a closed interval [Lo, Hi] of approximation codes in the form
// the granule decision compares with bounds: a plain interval, no flags.
// Codes are at most 63 bits wide, so NoCodes holds none and AllCodes all.
type Codes struct{ Lo, Hi uint64 }

var (
	NoCodes  = Codes{Lo: ^uint64(0)}
	AllCodes = Codes{Hi: ^uint64(0)}
)

// Codes returns the relaxed range as a plain interval.
func (r ApproxRange) Codes() Codes {
	switch {
	case r.Empty:
		return NoCodes
	case r.Full:
		return AllCodes
	}
	return Codes{Lo: r.Lo, Hi: r.Hi}
}

// misses reports that no code within b lies in r; holds that all do.
func (r Codes) misses(b Bounds) bool { return b.Max < r.Lo || b.Min > r.Hi }
func (r Codes) holds(b Bounds) bool  { return b.Min >= r.Lo && b.Max <= r.Hi }

// RelaxExact compiles the value predicate lo <= v <= hi into the two code
// ranges that bracket it: outer, the relaxed range of Relax — no value
// outside it qualifies — and inner, the codes whose whole bucket lies in
// [lo, hi] — every value inside it qualifies. They differ by the boundary
// buckets the predicate cuts through, and not at all on a fully resident
// column.
func (c *Column) RelaxExact(lo, hi int64) (outer, inner Codes) {
	r := c.Relax(lo, hi)
	outer = r.Codes()
	if r.Empty || r.Full || c.Dec.ResBits == 0 {
		return outer, outer
	}
	inner = outer
	slo, shi, _ := c.shift(lo, hi)
	low := bitpack.Mask(c.Dec.ResBits)
	if slo&low != 0 {
		inner.Lo++ // lo lies above its bucket's first value
	}
	if shi&low != low {
		if inner.Hi == 0 {
			return outer, NoCodes
		}
		inner.Hi-- // hi lies below its bucket's last value
	}
	if inner.Lo > inner.Hi {
		inner = NoCodes
	}
	return outer, inner
}

// settleBounds decides rows, whose codes span b, as a whole: none qualifies,
// all do, or the bounds cannot tell.
func settleBounds(b Bounds, rows uint64, outer, inner Codes) (sure, maybe uint64) {
	switch {
	case outer.misses(b):
		return 0, 0
	case inner.holds(b):
		return rows, 0
	}
	return 0, rows
}

// Decide is the granule decision. Of the rows live of granule g it returns
// the ones the bounds show to carry a code in inner (sure) and the ones they
// leave open (maybe); every other row carries a code outside outer. inner
// must lie within outer. The four outcomes: a miss (both zero), all live
// rows (sure = live), exactly these rows (sure is one part of the split, the
// other part missed) — none of which reads a row — and compare (maybe is
// the granule, or only the part the range cuts through).
func (c *Column) Decide(g int, live uint64, outer, inner Codes) (sure, maybe uint64) {
	if sure, maybe = settleBounds(c.granules[g], live, outer, inner); maybe == 0 {
		return sure, 0
	}
	return c.splits[g].decide(live, outer, inner)
}

// decide is Decide for a granule whose bounds as a whole the range cuts
// through: each part of the split is settled on its own.
func (s *Split) decide(live uint64, outer, inner Codes) (sure, maybe uint64) {
	if s.K == 0 {
		return 0, live
	}
	head := uint64(1)<<uint(s.K) - 1
	hs, hm := settleBounds(s.Head, live&head, outer, inner)
	ts, tm := settleBounds(s.Tail, live&^head, outer, inner)
	return hs | ts, hm | tm
}

// Disjunct is one range predicate on one column in the form a granule walk
// evaluates. The bounds of Col decide against Outer and Inner; where they
// leave rows open, the rows' exact values are compared with [Lo, Hi] — Tails,
// or, for an exact disjunct without them, Col's own values, each rebuilt from
// its code and residual where the code lies in a boundary bucket (refinement)
// — or, the approximate selection, their packed codes with Outer. Col is nil
// for a column that was never decomposed: no bounds, every granule is
// compared.
//
// A disjunct with a Key is read through it: Col and Tails belong to the
// dimension the key joins, and row i of the walk is asked about their entry
// at Key.At(i). A row whose key has no partner fails; so does one whose
// partner is set in Deleted, the dimension's deletion bitmap; and with
// neither Col nor Tails that is the whole test — the join's probe. The bounds
// of a dimension column say nothing about a granule of fact rows, so none
// apply.
type Disjunct struct {
	Col          *Column
	Outer, Inner Codes
	Tails        []int64
	Lo, Hi       int64
	Key          *Key
	Deleted      []uint64
	exact        bool // compares exact values with [Lo, Hi] (Exactly)
}

// Key is a foreign-key column read as an address: row i of the fact table
// joins position key(i) − Base of a dimension of Len rows, whose primary key
// is dense from Base (the FK index over it verifies that). The key values are
// the packed codes of Col — a decomposition that keeps every bit on the
// device, so a code is the value — for an approximate selection, and the
// exact values Tails for a classic one, of the base or of the delta. It is
// the one definition of the join: the A&R probe, dimension filters,
// projections and refinements and the classic join chain over either
// segment all go through Pos.
type Key struct {
	Col   *Column
	Tails []int64
	Base  int64
	Len   int
}

// Pos returns the dimension position the key value fk joins; ok is false
// when it has no partner.
func (k *Key) Pos(fk int64) (pos int, ok bool) {
	d := uint64(fk) - uint64(k.Base) // wraps below Base: one compare tests both ends
	return int(d), d < uint64(k.Len)
}

// At returns the dimension position row joins.
func (k *Key) At(row int) (pos int, ok bool) {
	if k.Tails != nil {
		return k.Pos(k.Tails[row])
	}
	return k.Pos(k.Col.Dec.Base + int64(k.Col.Approx.Get(row)))
}

// Through returns the disjunct read through key.
func (d Disjunct) Through(key *Key) Disjunct {
	d.Key = key
	return d
}

// Joined returns the disjunct a join's probe is: the rows whose key has a
// partner that deleted, the dimension's deletion bitmap (which may end
// early), does not hold.
func (k *Key) Joined(deleted []uint64) Disjunct {
	return Disjunct{Key: k, Deleted: deleted}
}

// Approximately returns the disjunct of an approximate selection: the rows
// whose code lies in the relaxed range r.
func (c *Column) Approximately(r ApproxRange) Disjunct {
	return Disjunct{Col: c, Outer: r.Codes(), Inner: r.Codes()}
}

// Exactly returns the disjunct lo <= v <= hi over a column's exact values
// tails, decided from the bounds of its decomposition dec where it has one
// (nil otherwise). With tails nil the values are dec's own: a row whose code
// lies in a boundary bucket of the range — inside Outer, outside Inner — has
// its value rebuilt from code and residual (ReconstructFrom) and compared,
// which is the refinement of an approximate selection over dec (§IV-C).
func Exactly(dec *Column, tails []int64, lo, hi int64) Disjunct {
	d := Disjunct{Col: dec, Tails: tails, Lo: lo, Hi: hi, exact: true}
	if dec != nil {
		d.Outer, d.Inner = dec.RelaxExact(lo, hi)
	}
	return d
}

// Outcomes counts how a walk disposed of the granules it visited: Skipped
// admitted no row and Inside some, both from the bounds alone; Compared had
// rows read.
type Outcomes struct{ Skipped, Inside, Compared uint64 }

// misses reports that the bounds of granule g rule every row of it out. It
// is Decide's first outcome on its own, small enough to inline: the walks
// ask it of every granule they visit and go on to settle only for the
// granules a range reaches.
func (d *Disjunct) misses(g int) bool {
	return d.Col != nil && d.Key == nil && d.Outer.misses(d.Col.granules[g])
}

// settle returns which of the rows live of granule g satisfy the disjunct,
// and whether rows had to be read for it.
func (d *Disjunct) settle(g int, live uint64) (word uint64, compared bool) {
	if d.Key != nil {
		return d.through(g*GranuleRows, live), true
	}
	sure, maybe := uint64(0), live
	if d.Col != nil {
		sure, maybe = d.Col.Decide(g, live, d.Outer, d.Inner)
	}
	switch {
	case maybe == 0:
		return sure, false
	case d.Tails != nil:
		return sure | compareValues(d.Tails, g*GranuleRows, maybe, d.Lo, d.Hi), true
	case d.exact:
		return sure | d.compareRebuilt(g*GranuleRows, maybe), true
	}
	return sure | compareCodes(d.Col.Approx, g*GranuleRows, maybe, d.Outer.Lo, d.Outer.Hi-d.Outer.Lo), true
}

// through is settle for a disjunct read through its key: one look at the
// dimension per row of rows, the granule at base.
func (d *Disjunct) through(base int, rows uint64) uint64 {
	lo, span, none := d.Outer.Lo, d.Outer.Hi-d.Outer.Lo, d.Outer.Lo > d.Outer.Hi
	if d.exact {
		lo, span, none = uint64(d.Lo), uint64(d.Hi)-uint64(d.Lo), d.Lo > d.Hi
	}
	if none {
		return 0
	}
	var word uint64
	for w := rows; w != 0; w &= w - 1 {
		i := bits.TrailingZeros64(w)
		pos, ok := d.Key.At(base + i)
		switch {
		case !ok || pos>>6 < len(d.Deleted) && d.Deleted[pos>>6]>>(uint(pos)&63)&1 != 0:
			continue
		case d.Tails != nil:
			word |= inRange(uint64(d.Tails[pos]), lo, span) << uint(i)
		case d.exact:
			word |= d.rebuilt(pos) << uint(i)
		case d.Col != nil:
			word |= inRange(d.Col.Approx.Get(pos), lo, span) << uint(i)
		default:
			word |= 1 << uint(i)
		}
	}
	return word
}

// count files one granule's outcome.
func (o *Outcomes) count(word uint64, compared bool) {
	switch {
	case compared:
		o.Compared++
	case word != 0:
		o.Inside++
	default:
		o.Skipped++
	}
}

// ScanGranules is the walk that starts a survivor mask: for every granule of
// rows [lo, hi) — lo a multiple of GranuleRows — it writes the word of the
// rows that satisfy any of the disjuncts ds into mask and returns how many
// there are. Concurrent calls on disjoint row ranges write disjoint words.
// Where Indexed says so, ScanIndexed does the same for the whole table by
// walking only the granules the part index finds.
func ScanGranules(ds []Disjunct, mask []uint64, lo, hi int) (n int, o Outcomes) {
	return walk(ds, mask, lo, hi, false)
}

// NarrowGranules is ScanGranules for a further conjunct: the same question
// asked only about the rows earlier steps left in a granule's word, the
// answer ANDed in — and not asked at all of a granule whose word is already
// zero, which is passed over without a look at its bounds and counts as
// skipped.
func NarrowGranules(ds []Disjunct, mask []uint64, lo, hi int) (n int, o Outcomes) {
	return walk(ds, mask, lo, hi, true)
}

// walk is the one loop of every granule walk, and its body the one
// per-granule decision: every disjunct whose bounds do not miss the granule
// is asked in turn about the rows live — every row of it, or when narrowing
// the rows its word still holds — the answers OR-ed, none asked once all of
// live is in. When narrowing, a zero word starts a tight loop to the next
// live one: after a selective first step almost every word is dead.
func walk(ds []Disjunct, mask []uint64, lo, hi int, narrowing bool) (n int, o Outcomes) {
	end := (hi + GranuleRows - 1) / GranuleRows
	for g := lo / GranuleRows; g < end; g++ {
		live := ^uint64(0) >> uint(GranuleRows-min(GranuleRows, hi-g*GranuleRows))
		if narrowing {
			if live = mask[g]; live == 0 {
				dead := g
				for g+1 < end && mask[g+1] == 0 {
					g++
				}
				o.Skipped += uint64(g + 1 - dead)
				continue
			}
		}
		var word uint64
		compared := false
		for j := range ds {
			if d := &ds[j]; !d.misses(g) {
				w, c := d.settle(g, live)
				compared = compared || c
				if word |= w; word == live {
					break
				}
			}
		}
		o.count(word, compared)
		mask[g] = word
		n += bits.OnesCount64(word)
	}
	return n, o
}

// The part index. A granule's bounds are wide wherever it straddles a run
// break, but each of its parts — a split's head and tail, or the whole
// granule when it is not split — spans one run, so on trip-clustered data
// almost every part is narrow, and a selective range meets few of them. A
// column whose parts are narrow keeps them indexed by their low code, and
// the first step of a selection asks that index which granules its range
// can meet (ScanIndexed) instead of walking the bounds of every granule of
// the table (ScanGranules).
//
// The constants are measured cost ratios, like denseRows, not settings. The
// figures are from 2 M trips (spatial.Generate) at 24 bits on a 2-vCPU
// x86-64 host.
const (
	// narrowShift: a part is narrow when it spans at most 1/64 of the code
	// domain. On trips 99.5 % of the parts span under 0.32 % of it and
	// 0.25 % are wider than 1/64 (they are listed by granule, in wide),
	// so a lookup's window widens by w ≈ 1.5 % of the domain.
	narrowShift = 6
	// wideShare: a column with more than 1/64 of its parts wide gets no
	// index: the wide list alone would be read at every lookup, and codes
	// that scattered leave an index nothing to skip. At SF 0.04 every
	// lineitem and part column has 50–98 % of its parts wide.
	wideShare = 64
	// partsPerBucket is the least mean bucket fill the bucket count (a
	// power of two) aims at: a lookup reads its window's buckets whole, so
	// coarser buckets read parts a range cannot meet, and finer ones cost
	// memory — trips' 62,500 parts get 4,096 buckets.
	partsPerBucket = 8
	// indexNum/indexDen: a lookup reads an entry in about a third of the
	// time the walk takes to test a granule's bounds (≈ 5 against 13.5 ns
	// on one core), but it runs on one core, where the walk runs on every
	// one, and settles the granules it finds there too. At 2 cores the two
	// paths take the same time (≈ 0.35 ms) when the lookup reads 0.3
	// entries per granule of the table, and at 0.5 the walk is ahead by
	// 20–40 %: the index is taken below 1/3. scan_range's selective boxes
	// (sides of 0.05–2°) read at most 0.2, its wide ones 1.4 on average.
	indexNum, indexDen = 1, 3
)

// partIndex is a column's granule parts indexed by their low code. The
// narrow parts are filed by bucket Min >> shift, in bucket order (a counting
// sort; granules ascending within a bucket): bucket b holds entries
// [starts[b], starts[b+1]) of mins, maxs and gran, the bounds of each part
// and its granule. w is the widest narrow part's span, so every narrow part
// that meets [lo, hi] lies in the buckets from (lo−w) >> shift to hi >> shift.
// A granule with a wide part is listed in wide, to be asked by its whole
// bounds. Like the bounds it is derived when the column is built and never
// persisted.
type partIndex struct {
	shift      uint
	w          uint64
	starts     []int32
	mins, maxs []uint64
	gran       []int32
	wide       []int32
}

// eachPart calls fn with every part of the column, granule by granule.
func (c *Column) eachPart(fn func(g int, b Bounds)) {
	for g := range c.splits {
		if s := &c.splits[g]; s.K != 0 {
			fn(g, s.Head)
			fn(g, s.Tail)
		} else {
			fn(g, c.granules[g])
		}
	}
}

// indexParts builds the part index from the granule bounds and splits, in
// three passes over the parts and no sort, or returns nil when too many
// parts are wide.
func (c *Column) indexParts() *partIndex {
	limit := c.Dec.MaxApprox() >> narrowShift
	parts, wideParts, wideGranules, last := 0, 0, 0, -1
	c.eachPart(func(g int, b Bounds) {
		parts++
		if b.Max-b.Min > limit {
			wideParts++
			if g != last {
				wideGranules, last = wideGranules+1, g
			}
		}
	})
	if parts == 0 || wideParts*wideShare > parts {
		return nil
	}
	narrow := parts - wideParts
	bucketBits := min(uint(bits.Len(uint(max(narrow/partsPerBucket, 1))))-1, c.Dec.ApproxBits)
	x := &partIndex{
		shift: c.Dec.ApproxBits - bucketBits,
		mins:  make([]uint64, narrow),
		maxs:  make([]uint64, narrow),
		gran:  make([]int32, narrow),
		wide:  make([]int32, 0, wideGranules),
	}
	x.starts = make([]int32, c.Dec.MaxApprox()>>x.shift+2)
	c.eachPart(func(g int, b Bounds) {
		switch {
		case b.Max-b.Min <= limit:
			x.starts[b.Min>>x.shift+1]++
			x.w = max(x.w, b.Max-b.Min)
		case len(x.wide) == 0 || x.wide[len(x.wide)-1] != int32(g):
			x.wide = append(x.wide, int32(g))
		}
	})
	for b := 1; b < len(x.starts); b++ {
		x.starts[b] += x.starts[b-1]
	}
	// File every narrow part at its bucket's cursor, starts[b], which then
	// ends at the next bucket's start: shifted up one, the starts are back.
	c.eachPart(func(g int, b Bounds) {
		if b.Max-b.Min <= limit {
			at := &x.starts[b.Min>>x.shift]
			x.mins[*at], x.maxs[*at], x.gran[*at] = b.Min, b.Max, int32(g)
			*at++
		}
	})
	copy(x.starts[1:], x.starts)
	x.starts[0] = 0
	return x
}

// entries returns the entries [i0, i1) of the buckets that can hold a narrow
// part meeting r.
func (x *partIndex) entries(r Codes) (i0, i1 int) {
	if r.Lo > r.Hi {
		return 0, 0
	}
	b0 := uint64(0)
	if r.Lo > x.w {
		b0 = (r.Lo - x.w) >> x.shift
	}
	b1 := min(r.Hi>>x.shift, uint64(len(x.starts)-2))
	if b0 > b1 {
		return 0, 0
	}
	return int(x.starts[b0]), int(x.starts[b1+1])
}

// markParts sets in seen, a bitmap over the granules, every granule of the
// column a part of which meets r: the narrow parts of the buckets r can
// reach that do, and the wide granules whose whole bounds do.
func (c *Column) markParts(r Codes, seen []uint64) {
	x := c.parts
	i0, i1 := x.entries(r)
	for i := i0; i < i1; i++ {
		if x.maxs[i] >= r.Lo && x.mins[i] <= r.Hi {
			g := x.gran[i]
			seen[g>>6] |= 1 << uint(g&63)
		}
	}
	for _, g := range x.wide {
		if !r.misses(c.granules[g]) {
			seen[g>>6] |= 1 << uint(g&63)
		}
	}
}

// Indexed reports whether the first step of a selection over a table of
// granules granules, with the disjuncts ds, finds its granules through the
// part index (ScanIndexed) rather than walking them all (ScanGranules):
// every disjunct reads a column that has an index, through no key, and the
// lookups read fewer entries than 1/3 of the granules. A full range, a wide
// one and a column without bounds or without an index walk.
func Indexed(ds []Disjunct, granules int) bool {
	look := 0
	for j := range ds {
		d := &ds[j]
		if d.Key != nil || d.Col == nil || d.Col.parts == nil {
			return false
		}
		i0, i1 := d.Col.parts.entries(d.Outer)
		look += i1 - i0 + len(d.Col.parts.wide)
	}
	return len(ds) > 0 && look*indexDen < granules*indexNum
}

// ScanIndexed is ScanGranules over rows [0, rows) for disjuncts Indexed
// accepts: it clears mask and walks only the granules some disjunct's part
// index finds — each once, in row order, by ScanGranules itself — so every
// word it writes is the walk's. counts gets every work-group's survivor
// count, chunk rows (a whole number of granules) to a group; the outcomes are
// the walk's, every granule not found counted as skipped. It runs on the
// calling goroutine.
func ScanIndexed(ds []Disjunct, mask []uint64, rows, chunk int, counts []int) (n int, o Outcomes) {
	granules := (rows + GranuleRows - 1) / GranuleRows
	clear(mask[:granules])
	clear(counts)
	seen := mem.U64.GetN((granules + 63) / 64)
	clear(seen)
	for j := range ds {
		ds[j].Col.markParts(ds[j].Outer, seen)
	}
	for i, w := range seen {
		for ; w != 0; w &= w - 1 {
			g := i*64 + bits.TrailingZeros64(w)
			k, og := ScanGranules(ds, mask, g*GranuleRows, min(g*GranuleRows+GranuleRows, rows))
			counts[g*GranuleRows/chunk] += k
			n += k
			o.Inside, o.Compared = o.Inside+og.Inside, o.Compared+og.Compared
		}
	}
	mem.U64.Put(seen)
	o.Skipped = uint64(granules) - o.Inside - o.Compared
	return n, o
}

// denseRows is the row count from which reading a granule whole — one
// in-place compare of its codes, one pass over its values — is cheaper than
// one positional access per row wanted. For codes that point moves with the
// width: one Get per row costs as much as the whole-granule compare at about
// 7 rows for 8-bit codes, 12 for 16-bit ones and 17–20 for 12- and 23-bit
// ones, which cut words (2-vCPU x86-64 host); 16 sits between them.
const denseRows = 16

// compareCodes returns which of the rows of the granule at base that are set
// in rows have a code in [lo, lo+span]: the granule's codes compared where
// they lie (bitpack.InRange64), or — when few rows are asked about — one Get
// per row.
func compareCodes(approx *bitpack.Array, base int, rows, lo, span uint64) uint64 {
	if bits.OnesCount64(rows) < denseRows {
		var word uint64
		for w := rows; w != 0; w &= w - 1 {
			i := bits.TrailingZeros64(w)
			word |= inRange(approx.Get(base+i), lo, span) << uint(i)
		}
		return word
	}
	return approx.InRange64(base, lo, span) & rows
}

// compareValues is compareCodes over exact values: which of the rows set in
// rows of the granule at base hold lo <= tails[row] <= hi.
func compareValues(tails []int64, base int, rows uint64, lo, hi int64) uint64 {
	if lo > hi {
		return 0
	}
	// v-lo wraps below lo, so one unsigned compare tests both ends.
	ulo, span := uint64(lo), uint64(hi)-uint64(lo)
	var word uint64
	if bits.OnesCount64(rows) < denseRows {
		for w := rows; w != 0; w &= w - 1 {
			i := bits.TrailingZeros64(w)
			word |= inRange(uint64(tails[base+i]), ulo, span) << uint(i)
		}
		return word
	}
	for i, v := range tails[base:min(base+GranuleRows, len(tails))] {
		word |= inRange(uint64(v), ulo, span) << uint(i)
	}
	return word & rows
}

// compareRebuilt is compareCodes for an exact disjunct without tails: which
// of the rows set in rows of the granule at base hold Lo <= v <= Hi, v being
// Col's own value (rebuilt). In a granule with many such rows the codes are
// compared twice where they lie, with Inner and with Outer, and that settles
// every row but those in a boundary bucket.
func (d *Disjunct) compareRebuilt(base int, rows uint64) uint64 {
	var word uint64
	if bits.OnesCount64(rows) < denseRows {
		for w := rows; w != 0; w &= w - 1 {
			i := bits.TrailingZeros64(w)
			word |= d.rebuilt(base+i) << uint(i)
		}
		return word
	}
	approx := d.Col.Approx
	if d.Inner.Lo <= d.Inner.Hi {
		word = approx.InRange64(base, d.Inner.Lo, d.Inner.Hi-d.Inner.Lo) & rows
	}
	for w := approx.InRange64(base, d.Outer.Lo, d.Outer.Hi-d.Outer.Lo) & rows &^ word; w != 0; w &= w - 1 {
		i := bits.TrailingZeros64(w)
		word |= d.rebuilt(base+i) << uint(i)
	}
	return word
}

// rebuilt is 1 when Col's value at pos lies in [Lo, Hi] and 0 otherwise: a
// code inside Inner qualifies and one outside Outer does not; only a code in
// a boundary bucket between the two has its residual read and the value
// rebuilt (ReconstructFrom).
func (d *Disjunct) rebuilt(pos int) uint64 {
	code := d.Col.Approx.Get(pos)
	switch {
	case code >= d.Inner.Lo && code <= d.Inner.Hi:
		return 1
	case code < d.Outer.Lo || code > d.Outer.Hi:
		return 0
	}
	v := d.Col.ReconstructFrom(code, d.Col.Residual.Get(pos))
	return inRange(uint64(v), uint64(d.Lo), uint64(d.Hi)-uint64(d.Lo))
}

// inRange is 1 when lo <= code <= lo+span and 0 otherwise, without a branch.
func inRange(code, lo, span uint64) uint64 {
	if code-lo <= span {
		return 1
	}
	return 0
}
