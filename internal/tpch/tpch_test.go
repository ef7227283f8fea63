package tpch

import (
	"context"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/plan"
)

func smallCatalog(t *testing.T, sf float64, spaceConstrained bool) (*plan.Catalog, *Data) {
	t.Helper()
	d := Generate(sf, 42)
	c := plan.NewCatalog(device.PaperSystem())
	if err := d.Load(c); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if err := d.DecomposeAll(c, spaceConstrained); err != nil {
		t.Fatalf("DecomposeAll: %v", err)
	}
	return c, d
}

func TestDay(t *testing.T) {
	if Day(1992, 1, 1) != 0 {
		t.Errorf("Day(1992-01-01) = %d, want 0", Day(1992, 1, 1))
	}
	if Day(1992, 1, 2) != 1 {
		t.Errorf("Day(1992-01-02) = %d, want 1", Day(1992, 1, 2))
	}
	// The paper's 2526 distinct shipdates span 1992-01 .. 1998-12-01-ish.
	if d := Day(1998, 12, 1); d < 2500 || d > 2530 {
		t.Errorf("Day(1998-12-01) = %d, want ~2526", d)
	}
}

func TestGeneratorDistributions(t *testing.T) {
	d := Generate(0.001, 7) // 6000 lineitems
	if d.LineCount != 6000 {
		t.Fatalf("LineCount = %d, want 6000", d.LineCount)
	}
	seenQty := map[int64]bool{}
	for i := 0; i < d.LineCount; i++ {
		if d.Quantity[i] < 1 || d.Quantity[i] > 50 {
			t.Fatalf("quantity %d out of 1..50", d.Quantity[i])
		}
		seenQty[d.Quantity[i]] = true
		if d.Discount[i] < 1 || d.Discount[i] > 10 {
			t.Fatalf("discount %d out of 1..10", d.Discount[i])
		}
		if d.Tax[i] < 0 || d.Tax[i] > 8 {
			t.Fatalf("tax %d out of 0..8", d.Tax[i])
		}
		if d.Shipdate[i] < 0 || d.Shipdate[i] >= ShipdateDays {
			t.Fatalf("shipdate %d out of range", d.Shipdate[i])
		}
		if d.Partkey[i] < 1 || d.Partkey[i] > int64(d.PartCount) {
			t.Fatalf("partkey %d dangling", d.Partkey[i])
		}
		if d.ExtPrice[i] <= 0 {
			t.Fatalf("non-positive extendedprice")
		}
		// linestatus/returnflag consistency with the status cutoff.
		if d.LineStat[i] == 1 && d.RetFlag[i] != 1 {
			t.Fatalf("open lineitem with returnflag %d", d.RetFlag[i])
		}
	}
	if len(seenQty) != 50 {
		t.Errorf("only %d distinct quantities, want 50 (paper: 50 values/6 bits)", len(seenQty))
	}
}

// TestPaperBitWidths verifies §VI-D1's observation: the selection columns
// of Q6 need only 6, 4 and 12 bits.
func TestPaperBitWidths(t *testing.T) {
	c, _ := smallCatalog(t, 0.001, false)
	for col, maxBits := range map[string]uint{
		"l_quantity": 6,
		"l_discount": 4,
		"l_shipdate": 12,
	} {
		d, err := c.Decomposition("lineitem", col)
		if err != nil {
			t.Fatal(err)
		}
		if d.Dec.TotalBits > maxBits {
			t.Errorf("%s needs %d bits, paper says %d", col, d.Dec.TotalBits, maxBits)
		}
		if d.Dec.ResBits != 0 {
			t.Errorf("%s not fully device resident in unconstrained config", col)
		}
	}
}

func TestSpaceConstrainedShipdateSplit(t *testing.T) {
	c, _ := smallCatalog(t, 0.001, true)
	d, err := c.Decomposition("lineitem", "l_shipdate")
	if err != nil {
		t.Fatal(err)
	}
	if d.Dec.ResBits != 8 {
		t.Errorf("space-constrained l_shipdate has %d residual bits, want 8", d.Dec.ResBits)
	}
}

func TestTypeDictionaryOrderedAndPrefixRange(t *testing.T) {
	for i := 1; i < len(Types); i++ {
		if Types[i-1] >= Types[i] {
			t.Fatalf("dictionary not strictly sorted at %d", i)
		}
	}
	lo, hi, ok := PrefixRange("PROMO")
	if !ok {
		t.Fatal("PROMO prefix missing")
	}
	if hi-lo+1 != 25 {
		t.Errorf("PROMO covers %d codes, want 25 (5x5 suffixes)", hi-lo+1)
	}
	for i := lo; i <= hi; i++ {
		if !strings.HasPrefix(Types[i], "PROMO") {
			t.Errorf("code %d (%s) inside PROMO range", i, Types[i])
		}
	}
	if lo > 0 && strings.HasPrefix(Types[lo-1], "PROMO") {
		t.Error("PROMO range misses a leading entry")
	}
	if int(hi) < len(Types)-1 && strings.HasPrefix(Types[hi+1], "PROMO") {
		t.Error("PROMO range misses a trailing entry")
	}
	if _, _, ok := PrefixRange("XYZZY"); ok {
		t.Error("nonexistent prefix matched")
	}
}

func TestQ1ARMatchesClassic(t *testing.T) {
	c, _ := smallCatalog(t, 0.002, false)
	q := Q1(90)
	arRes, err := c.ExecAR(context.Background(), q, plan.ExecOpts{})
	if err != nil {
		t.Fatalf("ExecAR: %v", err)
	}
	clRes, err := c.ExecClassic(context.Background(), q, plan.ExecOpts{})
	if err != nil {
		t.Fatalf("ExecClassic: %v", err)
	}
	if !plan.EqualResults(arRes.Rows, clRes.Rows) {
		t.Fatalf("Q1 A&R != classic:\n%s\nvs\n%s",
			plan.FormatRows(arRes.Rows), plan.FormatRows(clRes.Rows))
	}
	// Q1 yields the classic 4 groups: (A,F), (N,F), (N,O), (R,F).
	if len(arRes.Rows) != 4 {
		t.Errorf("Q1 produced %d groups, want 4:\n%s", len(arRes.Rows), plan.FormatRows(arRes.Rows))
	}
}

func TestQ6ARMatchesClassicBothConfigs(t *testing.T) {
	for _, constrained := range []bool{false, true} {
		c, _ := smallCatalog(t, 0.002, constrained)
		q := Q6(1994, 6, 24)
		arRes, err := c.ExecAR(context.Background(), q, plan.ExecOpts{})
		if err != nil {
			t.Fatalf("constrained=%v ExecAR: %v", constrained, err)
		}
		clRes, err := c.ExecClassic(context.Background(), q, plan.ExecOpts{})
		if err != nil {
			t.Fatalf("ExecClassic: %v", err)
		}
		if !plan.EqualResults(arRes.Rows, clRes.Rows) {
			t.Fatalf("constrained=%v: Q6 A&R != classic: %s vs %s", constrained,
				plan.FormatRows(arRes.Rows), plan.FormatRows(clRes.Rows))
		}
		if arRes.Rows[0].Vals[0] <= 0 {
			t.Error("Q6 revenue not positive; generator selectivities off")
		}
		// The space-constrained run must produce false positives that the
		// refinement eliminates.
		if constrained && arRes.Candidates <= arRes.Refined {
			t.Error("space-constrained Q6 produced no false positives")
		}
		if !arRes.Approx.Aggs[0].Contains(arRes.Rows[0].Vals[0]) {
			t.Errorf("approximate revenue %v does not contain exact %d",
				arRes.Approx.Aggs[0], arRes.Rows[0].Vals[0])
		}
	}
}

func TestQ14ARMatchesClassic(t *testing.T) {
	c, _ := smallCatalog(t, 0.002, false)
	q, err := Q14(1995, 9)
	if err != nil {
		t.Fatal(err)
	}
	arRes, err := c.ExecAR(context.Background(), q, plan.ExecOpts{})
	if err != nil {
		t.Fatalf("ExecAR: %v", err)
	}
	clRes, err := c.ExecClassic(context.Background(), q, plan.ExecOpts{})
	if err != nil {
		t.Fatalf("ExecClassic: %v", err)
	}
	if !plan.EqualResults(arRes.Rows, clRes.Rows) {
		t.Fatalf("Q14 A&R != classic:\n%s\nvs\n%s",
			plan.FormatRows(arRes.Rows), plan.FormatRows(clRes.Rows))
	}
	ratio := Q14Ratio(arRes)
	// ~25/150 of types are PROMO: the ratio must be in a sane band.
	if ratio < 5 || ratio > 35 {
		t.Errorf("Q14 promo ratio = %.2f%%, want ~16%%", ratio)
	}
	if Q14Ratio(&plan.Result{}) != 0 {
		t.Error("Q14Ratio on empty result should be 0")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(0.0005, 9)
	b := Generate(0.0005, 9)
	for i := 0; i < a.LineCount; i++ {
		if a.Shipdate[i] != b.Shipdate[i] || a.ExtPrice[i] != b.ExtPrice[i] {
			t.Fatal("generator not deterministic")
		}
	}
}
