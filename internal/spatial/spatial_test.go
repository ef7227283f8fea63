package spatial

import (
	"context"
	"testing"

	"repro/internal/device"
	"repro/internal/plan"
)

func TestGenerateBoundsAndContinuity(t *testing.T) {
	d := Generate(20000, 1)
	if d.Len() != 20000 {
		t.Fatalf("Len = %d, want 20000", d.Len())
	}
	for i := 0; i < d.Len(); i++ {
		if d.Lon[i] < LonMin || d.Lon[i] > LonMax {
			t.Fatalf("lon %d outside paper bounds", d.Lon[i])
		}
		if d.Lat[i] < LatMin || d.Lat[i] > LatMax {
			t.Fatalf("lat %d outside paper bounds", d.Lat[i])
		}
	}
	// Trip-local continuity: successive fixes of the same trip are close
	// (< ~400 m -> < 0.006 degrees ~ 600 fixed-point units at 1e-5).
	for i := 1; i < d.Len(); i++ {
		if d.TripID[i] != d.TripID[i-1] {
			continue
		}
		dLat := d.Lat[i] - d.Lat[i-1]
		if dLat < 0 {
			dLat = -dLat
		}
		if dLat > 600 {
			t.Fatalf("trip jump of %d lat units at fix %d", dLat, i)
		}
	}
	// Time restarts per trip and advances in 10 s steps.
	for i := 1; i < d.Len(); i++ {
		if d.TripID[i] == d.TripID[i-1] && d.Time[i] != d.Time[i-1]+10 {
			t.Fatalf("time not sampled at 10s at fix %d", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(5000, 3), Generate(5000, 3)
	for i := range a.Lon {
		if a.Lon[i] != b.Lon[i] || a.Lat[i] != b.Lat[i] {
			t.Fatal("generator not deterministic")
		}
	}
}

func TestTable1QueryFindsMatchesAndAgreesWithClassic(t *testing.T) {
	sys := device.PaperSystem()
	c := plan.NewCatalog(sys)
	d := Generate(100000, 2)
	if err := d.Load(c); err != nil {
		t.Fatal(err)
	}
	if err := d.Decompose(c); err != nil {
		t.Fatal(err)
	}
	q := RangeCountQuery()
	arRes, err := c.ExecAR(context.Background(), q, plan.ExecOpts{})
	if err != nil {
		t.Fatalf("ExecAR: %v", err)
	}
	clRes, err := c.ExecClassic(context.Background(), q, plan.ExecOpts{})
	if err != nil {
		t.Fatalf("ExecClassic: %v", err)
	}
	if !plan.EqualResults(arRes.Rows, clRes.Rows) {
		t.Fatalf("spatial A&R != classic: %s vs %s",
			plan.FormatRows(arRes.Rows), plan.FormatRows(clRes.Rows))
	}
	if arRes.Rows[0].Vals[0] == 0 {
		t.Error("Table I query found no fixes; hot-region seeding broken")
	}
	if !arRes.Approx.Count.Contains(arRes.Rows[0].Vals[0]) {
		t.Errorf("approximate count %v does not contain %d", arRes.Approx.Count, arRes.Rows[0].Vals[0])
	}
}

// TestCompressionMatchesPaper reproduces §VI-C2: the wide coordinate
// ranges limit prefix compression to roughly a quarter of the data volume.
func TestCompressionMatchesPaper(t *testing.T) {
	sys := device.PaperSystem()
	c := plan.NewCatalog(sys)
	d := Generate(50000, 4)
	if err := d.Load(c); err != nil {
		t.Fatal(err)
	}
	if err := d.Decompose(c); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"lon", "lat"} {
		dec, err := c.Decomposition("trips", col)
		if err != nil {
			t.Fatal(err)
		}
		ratio := dec.CompressionRatio()
		if ratio < 0.20 || ratio > 0.35 {
			t.Errorf("%s compression ratio %.2f, want ~0.25 (paper §VI-C2)", col, ratio)
		}
		if dec.Dec.ResBits != 0 {
			t.Errorf("%s: Table I decomposition (24 bit) should be fully device resident, got %d residual bits",
				col, dec.Dec.ResBits)
		}
	}
}

func TestEmptyBoxReturnsZero(t *testing.T) {
	sys := device.PaperSystem()
	c := plan.NewCatalog(sys)
	d := Generate(10000, 5)
	if err := d.Load(c); err != nil {
		t.Fatal(err)
	}
	if err := d.Decompose(c); err != nil {
		t.Fatal(err)
	}
	// A degenerate box in the Atlantic, below the data's latitude floor.
	q := RangeCount(LonMin, LonMin+10, LatMin, LatMin+1)
	res, err := c.ExecAR(context.Background(), q, plan.ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0].Vals[0] != 0 && res.Rows[0].Vals[0] > 10 {
		t.Errorf("degenerate box count = %d", res.Rows[0].Vals[0])
	}
}
