// Package tpch generates the TPC-H subset the paper evaluates (§VI-D) —
// the lineitem and part columns touched by queries Q1, Q6 and Q14 — and
// builds those queries against the plan layer, in both classic and A&R
// form.
//
// The generator reproduces the distributions the paper calls out:
// l_quantity has 50 values (6 bits), l_discount 10 values (4 bits),
// l_shipdate 2526 values (12 bits) — "there is simply very little to
// decompose" — and p_type is a dictionary of part-type strings whose
// ordered codes turn Q14's PROMO% prefix predicate into a range selection
// (§VI-D1).
package tpch

import (
	"math/rand"
	"time"

	"repro/internal/bat"
	"repro/internal/plan"
)

// Scale-factor row counts (per TPC-H: SF-1 = 6 M lineitems, 200 k parts).
const (
	LineitemPerSF = 6_000_000
	PartPerSF     = 200_000
)

// Epoch is day zero of the shipdate encoding.
var Epoch = time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)

// Day encodes a calendar date as days since Epoch.
func Day(y, m, d int) int64 {
	t := time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC)
	return int64(t.Sub(Epoch).Hours() / 24)
}

// ShipdateDays is the number of distinct l_shipdate values (the paper's
// "2526 values/12 bits").
const ShipdateDays = 2526

// Data holds the generated tables.
type Data struct {
	SF float64

	// lineitem
	Quantity  []int64 // 1..50
	ExtPrice  []int64 // cents
	Discount  []int64 // percent hundredths: 1..10 (0.01..0.10)
	Tax       []int64 // 0..8
	Shipdate  []int64 // days since Epoch, 0..2525
	RetFlag   []int64 // dictionary: 0=A, 1=N, 2=R
	LineStat  []int64 // dictionary: 0=F, 1=O
	Partkey   []int64 // 1..PartPerSF*SF
	LineCount int

	// part
	PKey      []int64 // dense 1..P
	PType     []int64 // ordered dictionary code into Types
	PartCount int
}

// Generate builds a data set at the given scale factor. The same seed
// reproduces the same data.
func Generate(sf float64, seed int64) *Data {
	nL := int(float64(LineitemPerSF) * sf)
	nP := int(float64(PartPerSF) * sf)
	if nP < 1 {
		nP = 1
	}
	rng := rand.New(rand.NewSource(seed))
	d := &Data{SF: sf, LineCount: nL, PartCount: nP}

	d.PKey = make([]int64, nP)
	d.PType = make([]int64, nP)
	for i := 0; i < nP; i++ {
		d.PKey[i] = int64(i) + 1
		d.PType[i] = int64(rng.Intn(len(Types)))
	}

	d.Quantity = make([]int64, nL)
	d.ExtPrice = make([]int64, nL)
	d.Discount = make([]int64, nL)
	d.Tax = make([]int64, nL)
	d.Shipdate = make([]int64, nL)
	d.RetFlag = make([]int64, nL)
	d.LineStat = make([]int64, nL)
	d.Partkey = make([]int64, nL)

	statusCut := Day(1995, 6, 17) // TPC-H: linestatus F up to currentdate
	for i := 0; i < nL; i++ {
		qty := int64(rng.Intn(50)) + 1
		pk := int64(rng.Intn(nP)) + 1
		d.Quantity[i] = qty
		d.Partkey[i] = pk
		d.ExtPrice[i] = qty * retailPriceCents(pk)
		d.Discount[i] = int64(rng.Intn(10)) + 1 // 0.01 .. 0.10
		d.Tax[i] = int64(rng.Intn(9))           // 0.00 .. 0.08
		ship := int64(rng.Intn(ShipdateDays))
		d.Shipdate[i] = ship
		if ship <= statusCut {
			d.LineStat[i] = 0 // F
			switch {
			case ship > statusCut-90 && rng.Intn(2) == 0:
				// Shipped before but received after the status date: the
				// small (N, F) group of the canonical Q1 answer.
				d.RetFlag[i] = 1 // N
			case rng.Intn(2) == 0:
				d.RetFlag[i] = 0 // A
			default:
				d.RetFlag[i] = 2 // R
			}
		} else {
			d.LineStat[i] = 1 // O
			d.RetFlag[i] = 1  // N
		}
	}
	return d
}

// retailPriceCents follows the TPC-H p_retailprice formula, in cents.
func retailPriceCents(pk int64) int64 {
	return 90000 + (pk/10)%20001 + 100*(pk%1000)
}

// Load registers lineitem and part in the catalog and pre-builds the
// foreign-key index over p_partkey (§IV-D: hash tables are pre-built on
// the CPU).
func (d *Data) Load(c *plan.Catalog) error {
	li := plan.NewTable("lineitem")
	for _, col := range []struct {
		name  string
		vals  []int64
		width int
		scale int64
	}{
		{"l_quantity", d.Quantity, bat.Width8, 1},
		{"l_extendedprice", d.ExtPrice, bat.Width32, 100},
		{"l_discount", d.Discount, bat.Width8, 100},
		{"l_tax", d.Tax, bat.Width8, 100},
		{"l_shipdate", d.Shipdate, bat.Width32, 1},
		{"l_returnflag", d.RetFlag, bat.Width8, 1},
		{"l_linestatus", d.LineStat, bat.Width8, 1},
		{"l_partkey", d.Partkey, bat.Width32, 1},
	} {
		if err := li.AddColumnScaled(col.name, col.vals, col.width, col.scale); err != nil {
			return err
		}
	}
	if err := c.AddTable(li); err != nil {
		return err
	}
	part := plan.NewTable("part")
	if err := part.AddColumn("p_partkey", d.PKey, bat.Width32); err != nil {
		return err
	}
	if err := part.AddColumn("p_type", d.PType, bat.Width8); err != nil {
		return err
	}
	if err := c.AddTable(part); err != nil {
		return err
	}
	return c.BuildFKIndex("part", "p_partkey")
}

// DecomposeAll decomposes every column A&R plans touch. With
// spaceConstrained false every column keeps all its bits on the device —
// the paper's "A & R" configuration, possible because the TPC-H columns
// are narrow (§VI-D1). With spaceConstrained true, l_shipdate is
// decomposed with its low 8 bits on the CPU (the paper's "A & R Space
// Constraint": `bwdecompose(l_shipdate, 24)` over the 32-bit
// representation).
func (d *Data) DecomposeAll(c *plan.Catalog, spaceConstrained bool) error {
	shipBits := uint(32)
	if spaceConstrained {
		// 12 significant bits minus 8 residual bits = 4 device bits.
		shipBits = 4
	}
	cols := map[string]uint{
		"l_quantity":      32,
		"l_extendedprice": 32,
		"l_discount":      32,
		"l_tax":           32,
		"l_shipdate":      shipBits,
		"l_returnflag":    32,
		"l_linestatus":    32,
		"l_partkey":       32,
	}
	for col, bits := range cols {
		if _, err := c.Decompose("lineitem", col, bits); err != nil {
			return err
		}
	}
	if _, err := c.Decompose("part", "p_type", 32); err != nil {
		return err
	}
	return nil
}
