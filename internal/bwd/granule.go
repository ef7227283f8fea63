package bwd

import (
	"math/bits"

	"repro/internal/bitpack"
)

// This file is how a scan reads a column by granule: the bounds every
// granule carries, the one decision they allow — which of a granule's rows a
// range predicate admits, settled without reading a row wherever the bounds
// can settle it — and the two loops that apply it to a survivor mask. The
// A&R approximate selection (internal/ar), the classic selection
// (internal/plan) and DELETE ... WHERE (internal/store) all select through
// it; they differ only in what a Disjunct compares in a granule the bounds
// leave open (DESIGN.md §13). A foreign-key join selects through it too: its
// probe and the filters on its dimension are disjuncts read through a Key
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
// leave rows open, the rows' exact values Tails are compared with [Lo, Hi]
// or — Tails nil, the approximate selection — their packed codes with Outer.
// Col is nil for a column that was never decomposed: no bounds, every
// granule is compared.
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
}

// Key is a foreign-key column read as an address: row i of the fact table
// joins position key(i) − Base of a dimension of Len rows, whose primary key
// is dense from Base (the FK index over it verifies that). The key values are
// the packed codes of Col — a decomposition that keeps every bit on the
// device, so a code is the value — for an approximate selection, and the
// exact values Tails for a classic one; a Key with neither only maps values
// (Pos), which is all the delta scan asks. It is the one definition of the
// join: the A&R probe, dimension filters, projections and refinements, the
// classic join chain and the delta scan all go through Pos.
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
// (nil otherwise).
func Exactly(dec *Column, tails []int64, lo, hi int64) Disjunct {
	d := Disjunct{Col: dec, Tails: tails, Lo: lo, Hi: hi}
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
// ask it of every granule of a table and go on to settle only for the
// granules a range reaches.
func (d *Disjunct) misses(g int) bool {
	return d.Col != nil && d.Key == nil && d.Outer.misses(d.Col.granules[g])
}

// settle returns which of the rows live of granule g satisfy the disjunct,
// and whether rows had to be read for it.
func (d *Disjunct) settle(g int, live uint64, buf *[GranuleRows]uint64) (word uint64, compared bool) {
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
	}
	return sure | compareCodes(d.Col.Approx, g*GranuleRows, maybe, d.Outer.Lo, d.Outer.Hi-d.Outer.Lo, buf), true
}

// through is settle for a disjunct read through its key: one look at the
// dimension per row of rows, the granule at base.
func (d *Disjunct) through(base int, rows uint64) uint64 {
	lo, span, none := d.Outer.Lo, d.Outer.Hi-d.Outer.Lo, d.Outer.Lo > d.Outer.Hi
	if d.Tails != nil {
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
func ScanGranules(ds []Disjunct, mask []uint64, lo, hi int) (n int, o Outcomes) {
	var buf [GranuleRows]uint64
	for g := lo / GranuleRows; g*GranuleRows < hi; g++ {
		all := ^uint64(0) >> uint(GranuleRows-min(GranuleRows, hi-g*GranuleRows))
		var word uint64
		compared := false
		for j := range ds {
			if d := &ds[j]; !d.misses(g) {
				w, c := d.settle(g, all, &buf)
				compared = compared || c
				if word |= w; word == all {
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

// NarrowGranules is ScanGranules for a further conjunct: the same question
// asked only about the rows earlier steps left in a granule's word, the
// answer ANDed in — and not asked at all of a granule whose word is already
// zero, which is passed over without a look at its bounds and counts as
// skipped. It is a loop of its own because the first scan visits every
// granule of the table and should test nothing it does not need.
func NarrowGranules(ds []Disjunct, mask []uint64, lo, hi int) (n int, o Outcomes) {
	var buf [GranuleRows]uint64
	for g := lo / GranuleRows; g*GranuleRows < hi; g++ {
		live := mask[g]
		if live == 0 {
			o.Skipped++
			continue
		}
		var word uint64
		compared := false
		for j := range ds {
			if d := &ds[j]; !d.misses(g) {
				w, c := d.settle(g, live, &buf)
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

// denseRows is the row count from which reading a granule whole — one
// 64-row decode, one pass over its values — is cheaper than one positional
// access per row wanted.
const denseRows = 16

// compareCodes returns which of the rows of the granule at base that are set
// in rows have a code in [lo, lo+span]: the granule unpacked into buf and
// compared row by row, or — when few rows are asked about — one Get per row.
func compareCodes(approx *bitpack.Array, base int, rows, lo, span uint64, buf *[GranuleRows]uint64) uint64 {
	var word uint64
	if bits.OnesCount64(rows) < denseRows {
		for w := rows; w != 0; w &= w - 1 {
			i := bits.TrailingZeros64(w)
			word |= inRange(approx.Get(base+i), lo, span) << uint(i)
		}
		return word
	}
	approx.Unpack64(buf, base)
	for i := 0; i < GranuleRows; i += 8 {
		b := (*[8]uint64)(buf[i : i+8])
		word |= (inRange(b[0], lo, span) | inRange(b[1], lo, span)<<1 |
			inRange(b[2], lo, span)<<2 | inRange(b[3], lo, span)<<3 |
			inRange(b[4], lo, span)<<4 | inRange(b[5], lo, span)<<5 |
			inRange(b[6], lo, span)<<6 | inRange(b[7], lo, span)<<7) << uint(i)
	}
	return word & rows
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

// inRange is 1 when lo <= code <= lo+span and 0 otherwise, without a branch.
func inRange(code, lo, span uint64) uint64 {
	if code-lo <= span {
		return 1
	}
	return 0
}
