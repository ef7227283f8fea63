package bwd

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/bitpack"
	"repro/internal/mem"
)

// This file is how a scan reads a column by granule: the one record every
// granule carries (Split), the one decision it allows — which of a
// granule's rows a range predicate admits, settled without a branch and
// without reading a row wherever the bounds can settle it — and the loops
// that apply it to a survivor mask and the bitmap of its live granules: one
// walk that starts a mask or narrows it over its live granules only, and the
// part index, which finds the granule parts a selective step can meet by
// code, so that a first step settles only those, from the index entries
// themselves, and a further one drops the live granules it does not find
// before it walks. The A&R approximate selection and its refinement
// (internal/ar), the classic selection (internal/plan) and DELETE ... WHERE
// (internal/store) all select through it; they differ only in what a
// Disjunct compares in a granule the bounds leave open (DESIGN.md §13).
// Packed codes are compared where they lie, by bitpack.InRange64: below 32
// bits all 64 codes of a granule at once, lanes across its words whatever
// the width, with a range the walk compiles on its stack where it first
// compares a granule (ranges) and reuses to its end — so a walk unpacks no
// granule and keeps no buffer on the heap. A foreign-key join selects
// through it too: its probe and the filters on its dimension are disjuncts
// read through a Key (DESIGN.md §8).

// GranuleRows is the row count of one scan granule: the rows whose
// survivors a scan records in one 64-bit word. It is the machine word size,
// not a setting.
const GranuleRows = 64

// Bounds is the closed interval of approximation codes a run of rows spans;
// both ends are attained.
type Bounds struct{ Min, Max uint64 }

// Split is the one summary a granule keeps (40 B on a 64-bit host): its rows
// cut in two ranges, [0,K) and [K,GranuleRows), at their largest jump
// between adjacent codes, with the code bounds of each. A granule that
// straddles a run break — the last fixes of one trip, the first of the next
// — spans both runs as a whole but each part spans one, so a range that
// falls between the runs, or takes one and leaves the other, is settled from
// the parts. K is 0 when the granule is not split (its rows share one code,
// or there is one row): the head is then empty and Head and Tail both hold
// the granule's bounds. The bounds of the granule as a whole are the union
// of the two (Bounds).
type Split struct {
	K          int
	Head, Tail Bounds
}

// Bounds returns the code bounds of the granule's rows: its parts' union.
func (s *Split) Bounds() Bounds { return s.Head.union(s.Tail) }

// summarizeGranule returns the record of the rows codes of one granule (at
// least one, at most GranuleRows), and counts the codes into the bucket
// histogram hist (bucket code >> shift), in one pass: tail spans the rows
// since the largest jump seen so far and head the rows before it, so a
// larger jump moves everything before it into the head.
func summarizeGranule(codes []uint64, hist []int64, shift uint) Split {
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
		return Split{Head: tail, Tail: tail}
	}
	return Split{K: k, Head: head, Tail: tail}
}

func (b Bounds) union(o Bounds) Bounds {
	return Bounds{Min: min(b.Min, o.Min), Max: max(b.Max, o.Max)}
}

// Codes is a closed interval [Lo, Hi] of approximation codes in the form
// the granule decision compares with bounds: a plain interval, no flags.
// Codes are at most 63 bits wide and so are both ends, but for NoCodes' Lo,
// 2^63, which lies above every code: NoCodes holds none and AllCodes all.
// The decision compares by the top bit of a difference (settle), which those
// limits keep exact.
type Codes struct{ Lo, Hi uint64 }

var (
	NoCodes  = Codes{Lo: 1 << 63}
	AllCodes = Codes{Hi: 1<<63 - 1}
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

// settle decides rows, whose codes span b, as a whole and without a branch:
// sure is rows when inner holds b, maybe is rows when outer meets b but inner
// does not hold it, and both are zero when outer misses b. inner must lie
// within outer. Every code and range end is below 2^63 but NoCodes' Lo,
// which equals it, and that one is only ever subtracted: x − y wraps into
// the top half exactly when x < y, so the top bit of a difference is the
// compare.
func settle(b Bounds, rows uint64, outer, inner Codes) (sure, maybe uint64) {
	miss := ((b.Max - outer.Lo) | (outer.Hi - b.Min)) >> 63
	open := ((b.Min - inner.Lo) | (inner.Hi - b.Max)) >> 63
	return rows & (open - 1), rows & -(open &^ miss)
}

// nonZero is 1 when w is not zero and 0 otherwise, without a branch.
func nonZero(w uint64) uint64 { return (w | -w) >> 63 }

// Decide is the granule decision. Of the rows live of granule g it returns
// the ones the bounds show to carry a code in inner (sure) and the ones they
// leave open (maybe); every other row carries a code outside outer. inner
// must lie within outer. The four outcomes: a miss (both zero), all live
// rows (sure = live), exactly these rows (sure is one part of the split, the
// other part missed) — none of which reads a row — and compare (maybe is
// the granule, or only the part the range cuts through).
func (c *Column) Decide(g int, live uint64, outer, inner Codes) (sure, maybe uint64) {
	return c.splits[g].decide(live, outer, inner)
}

// decide is Decide over the granule's record: each part settled on its own
// and the two OR-ed, without a branch. An unsplit granule's head is empty
// (its row mask 1<<0 − 1 is zero) and its tail is the granule.
func (s *Split) decide(live uint64, outer, inner Codes) (sure, maybe uint64) {
	head := uint64(1)<<(uint(s.K)&63) - 1
	hs, hm := settle(s.Head, live&head, outer, inner)
	ts, tm := settle(s.Tail, live&^head, outer, inner)
	return hs | ts, hm | tm
}

// Disjunct is one range predicate on one column in the form a granule walk
// evaluates. The bounds of Col decide against Outer and Inner; where they
// leave rows open, the rows' exact values are compared with [Lo, Hi] — Tails,
// or, for an exact disjunct without them, Col's own values, each rebuilt from
// its code and residual where the code lies in a boundary bucket (refinement)
// — or, the approximate selection, their packed codes with Outer. Col is nil
// for the delta's values and for a column with no device bits: no bounds,
// every granule is compared — the latter's residual codes with Outer, its
// predicate in code space.
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
	exact        bool           // compares exact values with [Lo, Hi] (Exactly)
	codes        *bitpack.Array // the packed codes compared with Outer: Col's approximation, or a residual
}

// Key is a foreign-key column read as an address: row i of the fact table
// joins position key(i) − Base of a dimension of Len rows, whose primary key
// is dense from Base (the FK index over it verifies that). The key values are
// those of Col, the key column's decomposition — for an approximate selection
// one that keeps every bit on the device, so a code is the value — or the
// exact values Tails of a column that has none, or of the delta. It is
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
	return k.Pos(k.Col.Reconstruct(row))
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
	return Disjunct{Col: c, Outer: r.Codes(), Inner: r.Codes(), codes: c.Approx}
}

// Exactly returns the disjunct lo <= v <= hi over a column's exact values
// tails, decided from the bounds of its decomposition dec where it has one
// (nil otherwise). With tails nil the values are dec's own: a row whose code
// lies in a boundary bucket of the range — inside Outer, outside Inner — has
// its value rebuilt from code and residual (ReconstructFrom) and compared,
// which is the refinement of an approximate selection over dec (§IV-C). A
// dec with no device bits has no bounds and its values are its residual
// codes plus its base: the disjunct compares those codes with the range
// less the base, as an approximate selection compares a resident column's.
func Exactly(dec *Column, tails []int64, lo, hi int64) Disjunct {
	if dec != nil && dec.Approx == nil {
		r := NoCodes
		if slo, shi, ok := dec.shift(lo, hi); ok {
			r = Codes{Lo: slo, Hi: shi}
		}
		return Disjunct{Outer: r, Inner: r, Lo: lo, Hi: hi, codes: dec.Residual}
	}
	d := Disjunct{Col: dec, Tails: tails, Lo: lo, Hi: hi, exact: true}
	if dec != nil {
		d.Outer, d.Inner = dec.RelaxExact(lo, hi)
		d.codes = dec.Approx
	}
	return d
}

// Outcomes counts how a walk disposed of the granules it visited: Skipped
// admitted no row and Inside some, both from the bounds alone; Compared had
// rows read.
type Outcomes struct{ Skipped, Inside, Compared uint64 }

// compare returns which of the rows of granule g satisfy the disjunct,
// reading them: through its key, its exact values (Tails, or Col's own,
// rebuilt) or its packed codes. The packed codes are compared with Outer and
// Inner compiled into rs (bitpack.Range), the walk's, where they are first
// compared whole; rs holds them for the rest of the walk.
func (d *Disjunct) compare(g int, rows uint64, rs *ranges) uint64 {
	base := g * GranuleRows
	switch {
	case d.Key != nil:
		return d.through(base, rows)
	case d.Tails != nil:
		return compareValues(d.Tails, base, rows, d.Lo, d.Hi)
	case d.exact:
		return d.compareRebuilt(base, rows, rs)
	}
	return compareCodes(d.codes, base, rows, d.Outer, &rs[0])
}

// ranges is where a walk, on its stack, compiles the code ranges it compares
// packed codes with: a disjunct's Outer in the first and its Inner in the
// second. A range is compiled where a granule is first compared whole and
// kept to the walk's end, unless another disjunct of its OR group compiled a
// different one in between; a walk that compares nothing compiles nothing.
type ranges [2]bitpack.Range

// through is compare for a disjunct read through its key: one look at the
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
		case d.codes != nil:
			word |= inRange(d.codes.At(pos), lo, span) << uint(i)
		default:
			word |= 1 << uint(i)
		}
	}
	return word
}

// ScanGranules is the walk that starts a survivor mask: for every granule of
// rows [lo, hi) — lo a multiple of GranuleRows — it writes the word of the
// rows that satisfy any of the disjuncts ds into mask, keeps the granule's
// bit in live — the set's bitmap of its live granules, bit g%64 of word
// g/64 — set exactly when that word is not zero, and returns how many rows
// there are. Concurrent calls on disjoint row ranges write disjoint words,
// and disjoint bits of live: a bitmap word two ranges share is written
// atomically. Where Indexed says so, ScanIndexed does the same for the whole
// table by settling only the granule parts the part index finds.
func ScanGranules(ds []Disjunct, mask, live []uint64, lo, hi int) (n int, o Outcomes) {
	return walk(ds, mask, live, lo, hi, false)
}

// NarrowGranules is ScanGranules for a further conjunct: the same question
// asked only about the granules of [lo, hi) whose bit live holds, and of
// each only about the rows its word still holds, the answer ANDed in. live
// must hold every granule whose word is not zero; a granule it does not hold
// is passed over without a look and counts as skipped, and on return it
// holds exactly the granules of [lo, hi) whose word is not zero.
func NarrowGranules(ds []Disjunct, mask, live []uint64, lo, hi int) (n int, o Outcomes) {
	return walk(ds, mask, live, lo, hi, true)
}

// walk is the one loop of every granule walk. It takes the granules 64 at a
// time, a word of live: the ones it visits are all of [lo, hi) when it
// starts a mask, the live ones when it narrows, and each disjunct in turn
// decides the ones it is asked about in a loop of its own, which holds the
// disjunct's records and ranges in locals, the granules' live rows in an
// array beside it. A disjunct with bounds settles each granule without a
// branch and compares only the rows it leaves open; one without (no column,
// or read through a key) compares every row. The first disjunct's answer
// replaces a granule's word and a later one's is OR-ed in; a later disjunct
// of an OR group is not asked about a granule whose live rows are all in. A
// granule counts as compared when any disjunct read rows of it, as inside
// when none did and its word is not zero, and as skipped otherwise.
func walk(ds []Disjunct, mask, live []uint64, lo, hi int, narrowing bool) (n int, o Outcomes) {
	g0, g1 := lo/GranuleRows, (hi+GranuleRows-1)/GranuleRows
	var rows [64]uint64
	var rs ranges
	if !narrowing {
		for j := range rows {
			rows[j] = ^uint64(0)
		}
	}
	for i := g0 / 64; i*64 < g1; i++ {
		base := i * 64
		span := granuleSpan(g0-base, g1-base)
		own := base >= g0 && base+64 <= g1
		visit := span
		if narrowing {
			visit &= loadLive(live, i, own)
			for t := visit; t != 0; t &= t - 1 {
				j := bits.TrailingZeros64(t)
				rows[j] = mask[base+j]
			}
		} else if g1-base <= 64 {
			rows[g1-1-base] = granuleRows(g1-1, hi) // the range's last granule may be short
		}
		var full, compared, nz uint64
		keep := uint64(0) // the first disjunct's answer replaces the word
		for k := range ds {
			c, z, m := ds[k].decideBlock(mask, &rows, base, visit&^full, keep, &rs)
			compared, nz, n, keep = compared|c, nz|z, n+m, ^uint64(0)
			if k+1 < len(ds) {
				full = fullGranules(mask, &rows, base, visit)
			}
		}
		storeLive(live, i, own, span, nz)
		o.Compared += uint64(bits.OnesCount64(compared))
		o.Inside += uint64(bits.OnesCount64(nz &^ compared))
	}
	o.Skipped = uint64(g1-g0) - o.Inside - o.Compared
	return n, o
}

// decideBlock asks the disjunct about the granules todo of the 64 from base
// — of granule base+j the rows rows[j] — and ORs the rows that satisfy it
// into their words, kept only as far as keep says (0: replaced), comparing
// packed codes with the ranges compiled in rs. It returns the granules it
// read rows of, the granules whose word is not zero, and how many rows it
// added.
func (d *Disjunct) decideBlock(mask []uint64, rows *[64]uint64, base int, todo, keep uint64, rs *ranges) (compared, nz uint64, n int) {
	bounded := d.Col != nil && d.Key == nil
	var recs []Split
	if bounded {
		recs = d.Col.splits
	}
	outer, inner := d.Outer, d.Inner
	for t := todo; t != 0; t &= t - 1 {
		j := bits.TrailingZeros64(t)
		g := base + j
		sure, maybe := uint64(0), rows[j]
		if bounded {
			// Split.decide, written out: the compiler will not inline it.
			s := &recs[g]
			head := uint64(1)<<(uint(s.K)&63) - 1
			hs, hm := settle(s.Head, maybe&head, outer, inner)
			ts, tm := settle(s.Tail, maybe&^head, outer, inner)
			sure, maybe = hs|ts, hm|tm
		}
		if maybe != 0 {
			sure |= d.compare(g, maybe, rs)
			compared |= 1 << uint(j)
		}
		old := mask[g] & keep
		w := old | sure
		mask[g] = w
		n += bits.OnesCount64(w &^ old)
		nz |= nonZero(w) << uint(j)
	}
	return compared, nz, n
}

// fullGranules returns the granules of visit, of the 64 from base, whose
// words hold all their live rows.
func fullGranules(mask []uint64, rows *[64]uint64, base int, visit uint64) (full uint64) {
	for t := visit; t != 0; t &= t - 1 {
		j := bits.TrailingZeros64(t)
		full |= (nonZero(mask[base+j]^rows[j]) ^ 1) << uint(j)
	}
	return full
}

// granuleSpan returns the bits [max(a, 0), min(b, 64)) of a word of live: of
// the 64 granules it covers, the ones of a range [a, b) counted from its
// first. a < 64 and b > 0.
func granuleSpan(a, b int) uint64 {
	return ^uint64(0) >> uint(64-min(b, 64)) &^ (uint64(1)<<uint(max(a, 0)) - 1)
}

// loadLive reads word i of live: plainly when the walk owns all of it
// (own), atomically when another range may be writing its other bits.
func loadLive(live []uint64, i int, own bool) uint64 {
	if own {
		return live[i]
	}
	return atomic.LoadUint64(&live[i])
}

// storeLive sets the bits span of word i of live to bits, leaving the rest;
// plainly when the walk owns all of it (own), atomically otherwise.
func storeLive(live []uint64, i int, own bool, span, bits uint64) {
	if own {
		live[i] = bits
		return
	}
	atomic.AndUint64(&live[i], bits|^span)
	atomic.OrUint64(&live[i], bits)
}

// The part index. A granule's bounds are wide wherever it straddles a run
// break, but each of its parts — a split's head and tail, or the whole
// granule when it is not split — spans one run, so on trip-clustered data
// almost every part is narrow, and a selective range meets few of them. A
// column whose parts are narrow keeps them indexed by their low code, with
// the rows of each, and the first step of a selection settles the parts
// that index finds (ScanIndexed) instead of walking the records of every
// granule of the table (ScanGranules); a further step walks only the set's
// live granules (NarrowGranules) and reads no index.
//
// The constants are measured cost ratios, like denseRows, not settings. The
// figures are from 2 M trips (spatial.Generate) at 24 bits on a 2-vCPU
// x86-64 host.
const (
	// narrowShift: a part is narrow when it spans at most 1/64 of the code
	// domain. On trips 99.5 % of the parts span under 0.32 % of it and
	// 0.25 % are wider than 1/64 (their granules are listed whole, in
	// wide), so a lookup's window widens by w ≈ 1.5 % of the domain.
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
	// A narrowing reads no index: after a selective lon step, a lat lookup
	// ANDed into the live granules cost about what the walk of the ≈ 680
	// live granules it dropped did (157 against 176 µs per selective box,
	// 322 against 306 µs per hot-spot box, within the host's spread).
	indexNum, indexDen = 1, 3
)

// partIndex is a column's granule parts indexed by their low code. The
// narrow parts are filed by bucket Min >> shift, in bucket order (a counting
// sort; granules ascending within a bucket): bucket b holds entries
// [starts[b], starts[b+1]) of mins, maxs, gran and part — the bounds of
// each part, its granule, and its granule's K with, in bit 7, whether it is
// the tail, which give its rows in the granule's word (partRows) — so an
// entry is settled without a look at its granule's record. w is the widest
// narrow part's span, so every narrow part that meets [lo, hi] lies in the
// buckets from (lo−w) >> shift to hi >> shift. A granule with a wide part
// is listed in wide instead, to be decided whole from its record. Like the
// records it is derived when the column is built and never persisted.
type partIndex struct {
	shift      uint
	w          uint64
	starts     []int32
	mins, maxs []uint64
	gran       []int32
	part       []uint8
	wide       []int32
}

// tailPart marks an entry's part as its granule's tail.
const tailPart = 1 << 7

// partRows returns the rows of entry i's part in the word of its granule, of
// a column of n rows: the head [0,K) or the tail [K,64), short in a short
// last granule.
func (x *partIndex) partRows(i, n int) uint64 {
	p := x.part[i]
	head := uint64(1)<<(p&63) - 1
	tail := uint64(p >> 7)
	return head&(tail-1) | granuleRows(int(x.gran[i]), n)&^head&-tail
}

// eachPart calls fn with every part of the column, granule by granule: its
// bounds and its entry's part (partRows).
func (c *Column) eachPart(fn func(g int, b Bounds, part uint8)) {
	for g := range c.splits {
		s := &c.splits[g]
		if s.K != 0 {
			fn(g, s.Head, uint8(s.K))
		}
		fn(g, s.Tail, uint8(s.K)|tailPart)
	}
}

// granuleRows is the word of every row of granule g of a table of n rows.
func granuleRows(g, n int) uint64 {
	return ^uint64(0) >> uint(GranuleRows-min(GranuleRows, n-g*GranuleRows))
}

// indexParts builds the part index from the granule records, in three
// passes over the parts and no sort, or returns nil when too many parts are
// wide. A granule with a wide part is listed whole; its other part is not
// filed.
func (c *Column) indexParts() *partIndex {
	limit := c.Dec.MaxApprox() >> narrowShift
	isWide := func(b Bounds) bool { return b.Max-b.Min > limit }
	wide := func(g int) bool { return isWide(c.splits[g].Head) || isWide(c.splits[g].Tail) }
	parts, wideParts, narrow, wideGranules := 0, 0, 0, 0
	c.eachPart(func(g int, b Bounds, _ uint8) {
		parts++
		switch {
		case isWide(b):
			wideParts++
		case !wide(g):
			narrow++
		}
	})
	if parts == 0 || wideParts*wideShare > parts {
		return nil
	}
	for g := range c.splits {
		if wide(g) {
			wideGranules++
		}
	}
	bucketBits := min(uint(bits.Len(uint(max(narrow/partsPerBucket, 1))))-1, c.Dec.ApproxBits)
	x := &partIndex{
		shift: c.Dec.ApproxBits - bucketBits,
		mins:  make([]uint64, narrow),
		maxs:  make([]uint64, narrow),
		gran:  make([]int32, narrow),
		part:  make([]uint8, narrow),
		wide:  make([]int32, 0, wideGranules),
	}
	x.starts = make([]int32, c.Dec.MaxApprox()>>x.shift+2)
	c.eachPart(func(g int, b Bounds, _ uint8) {
		switch {
		case !wide(g):
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
	c.eachPart(func(g int, b Bounds, part uint8) {
		if !wide(g) {
			at := &x.starts[b.Min>>x.shift]
			x.mins[*at], x.maxs[*at], x.gran[*at], x.part[*at] = b.Min, b.Max, int32(g), part
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

// lookups is how many entries the part index of d reads for its range: its
// window's and the wide list.
func (d *Disjunct) lookups() int {
	i0, i1 := d.Col.parts.entries(d.Outer)
	return i1 - i0 + len(d.Col.parts.wide)
}

// Indexed reports whether the first step of a selection over a table of
// granules granules, with the disjuncts ds, settles what the part index finds
// (ScanIndexed) rather than walking every granule (ScanGranules): every
// disjunct reads a column that has an index, through no key, and the lookups
// read fewer entries than 1/3 of the granules. A full range, a wide one and a column without bounds or without
// an index walk.
func Indexed(ds []Disjunct, granules int) bool {
	look := 0
	for j := range ds {
		d := &ds[j]
		if d.Key != nil || d.Col == nil || d.Col.parts == nil {
			return false
		}
		look += d.lookups()
	}
	return len(ds) > 0 && look*indexDen < granules*indexNum
}

// ScanIndexed is ScanGranules over rows [0, rows) for disjuncts Indexed
// accepts: it clears mask and live and settles only what the part index
// finds, on the calling goroutine. Each disjunct in turn decides every
// entry of its lookup's window from the entry alone — its part's bounds and
// rows, no look at the granule's record — ORs the sure rows into the
// granule's word and marks the granule in live; a wide-listed granule takes
// the whole decision (Decide). The rows left open are compared afterwards,
// and a later disjunct of an OR group skips the granules whose rows are all
// in. So every word it writes is the walk's. counts gets every work-group's
// survivor count, chunk rows (a whole number of granules) to a group; live
// ends holding exactly the granules whose word is not zero; the outcomes are
// the walk's, every granule not found counted as skipped.
func ScanIndexed(ds []Disjunct, mask, live []uint64, rows, chunk int, counts []int) (n int, o Outcomes) {
	granules := (rows + GranuleRows - 1) / GranuleRows
	words := (granules + 63) / 64
	clear(mask[:granules])
	clear(live[:words])
	clear(counts)
	most := 0
	for j := range ds {
		most = max(most, ds[j].lookups())
	}
	var rs ranges
	scratch := mem.U64.GetN(2*words + 2*most)
	compared, full, open := scratch[:words], scratch[words:2*words], scratch[2*words:]
	clear(compared)
	clear(full)
	for j := range ds {
		d := &ds[j]
		if j > 0 { // the granules the earlier disjuncts filled are not asked again
			for i, w := range live[:words] {
				full[i] = 0
				for t := w; t != 0; t &= t - 1 {
					g := i*64 + bits.TrailingZeros64(t)
					full[i] |= (nonZero(mask[g]^granuleRows(g, rows)) ^ 1) << uint(g&63)
				}
			}
		}
		k := d.settleParts(mask, live, full, rows, open)
		for p := 0; p < k; p += 2 {
			g := int(open[p])
			mask[g] |= d.compare(g, open[p+1], &rs)
			compared[g>>6] |= 1 << uint(g&63)
		}
	}
	for i, w := range live[:words] {
		o.Compared += uint64(bits.OnesCount64(compared[i]))
		o.Inside += uint64(bits.OnesCount64(w &^ compared[i]))
		var dead uint64
		for t := w; t != 0; t &= t - 1 {
			g := i*64 + bits.TrailingZeros64(t)
			k := bits.OnesCount64(mask[g])
			counts[g*GranuleRows/chunk] += k
			n += k
			dead |= (nonZero(mask[g]) ^ 1) << uint(g&63)
		}
		live[i] = w &^ dead
	}
	mem.U64.Put(scratch)
	o.Skipped = uint64(granules) - o.Inside - o.Compared
	return n, o
}

// settleParts is the first step of d over the rows rows of its column for
// every entry of its lookup's window and every wide-listed granule, except
// the granules full holds: the sure rows are ORed into the granule's word,
// the granule is marked in live when any of its rows can qualify, and the
// rows left open are written to open as (granule, rows) pairs. It returns
// the length of those.
func (d *Disjunct) settleParts(mask, live, full []uint64, rows int, open []uint64) (k int) {
	x, outer, inner := d.Col.parts, d.Outer, d.Inner
	i0, i1 := x.entries(outer)
	for i := i0; i < i1; i++ {
		g := int(x.gran[i])
		r := x.partRows(i, rows) &^ -(full[g>>6] >> uint(g&63) & 1)
		sure, maybe := settle(Bounds{Min: x.mins[i], Max: x.maxs[i]}, r, outer, inner)
		k = found(mask, live, open, k, g, sure, maybe)
	}
	for _, g32 := range x.wide {
		g := int(g32)
		r := granuleRows(g, rows) &^ -(full[g>>6] >> uint(g&63) & 1)
		sure, maybe := d.Col.Decide(g, r, outer, inner)
		k = found(mask, live, open, k, g, sure, maybe)
	}
	return k
}

// found files what a part decision found in granule g, without a branch:
// sure into its word, the granule into live when sure or maybe has a row,
// and (g, maybe) at open[k] — kept, k advanced, only when maybe has one.
func found(mask, live, open []uint64, k, g int, sure, maybe uint64) int {
	mask[g] |= sure
	live[g>>6] |= nonZero(sure|maybe) << uint(g&63)
	open[k], open[k+1] = uint64(g), maybe
	return k + 2*int(nonZero(maybe))
}

// denseRows is the row count from which reading a granule whole — one
// in-place compare of its codes, one pass over its values — is cheaper than
// one positional access per row wanted. For codes, one At per row costs as
// much as the whole-granule compare (a compiled range, lanes across words)
// at about 8 rows for 6- and 12-bit codes and 10 for 23-bit ones, in order
// over 1 M codes (2-vCPU x86-64 host). In a walk the rows asked about are
// scattered: at 8, TPC-H Q6 and Q14 (BenchmarkOpOlapTail) ran no faster
// than at 16, within the host's spread, and a granule of exact values, read
// whole, costs more than one of codes; 16 stays.
const denseRows = 16

// compareCodes returns which of the rows of the granule at base that are set
// in rows have a code in r: the granule's codes compared where they lie,
// with r compiled into c (bitpack.Array.InRange64), or — when few rows are
// asked about — one At per row.
func compareCodes(approx *bitpack.Array, base int, rows uint64, r Codes, c *bitpack.Range) uint64 {
	if r.Lo > r.Hi {
		return 0
	}
	lo, span := r.Lo, r.Hi-r.Lo
	if bits.OnesCount64(rows) < denseRows {
		var word uint64
		for w := rows; w != 0; w &= w - 1 {
			i := bits.TrailingZeros64(w)
			word |= inRange(approx.At(base+i), lo, span) << uint(i)
		}
		return word
	}
	c.Compile(approx.Width(), lo, span)
	return approx.InRange64(base, c) & rows
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
func (d *Disjunct) compareRebuilt(base int, rows uint64, rs *ranges) uint64 {
	var word uint64
	if bits.OnesCount64(rows) < denseRows {
		for w := rows; w != 0; w &= w - 1 {
			i := bits.TrailingZeros64(w)
			word |= d.rebuilt(base+i) << uint(i)
		}
		return word
	}
	approx := d.codes
	if d.Inner.Lo <= d.Inner.Hi {
		word = compareCodes(approx, base, rows, d.Inner, &rs[1])
	}
	if d.Inner == d.Outer { // no boundary bucket: a resident column, or a range of every code or none
		return word
	}
	for w := compareCodes(approx, base, rows, d.Outer, &rs[0]) &^ word; w != 0; w &= w - 1 {
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
	code := d.codes.At(pos)
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
