package plan

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/device"
	"repro/internal/fixed"
)

// A column that was never decomposed is stored with no device bits, and
// nothing may price or bill it as decomposed. Over a trips-shaped table —
// lon decomposed at 24 bits, time loaded and left alone — \explain prints a
// time filter's estimate as est=n/a (no histogram), a forced A&R statement
// over time is refused, Catalog.Decomposition errors, the load takes no
// device memory and the decomposition of lon takes only lon's, and a
// classic statement over time bills neither the device nor the bus.
func TestUndecomposedColumnIsNotPricedAsDecomposed(t *testing.T) {
	sys := device.PaperSystem()
	c := NewCatalog(sys)
	const n = 5000
	rng := rand.New(rand.NewSource(51))
	lon, tm := make([]int64, n), make([]int64, n)
	for i := range lon {
		lon[i] = rng.Int63n(4_000_000)
		tm[i] = int64(1_700_000_000 + 3*i)
	}
	tbl := NewTable("trips")
	if err := tbl.AddColumnScaled("lon", lon, bat.Width32, fixed.Scale5); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddColumn("time", tm, bat.Width32); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	if used := sys.GPU.Used(); used != 0 {
		t.Fatalf("the load took %d B of device memory", used)
	}
	d, err := c.Decompose("trips", "lon", 24)
	if err != nil {
		t.Fatal(err)
	}
	if used := sys.GPU.Used(); used != d.GPUBytes() {
		t.Fatalf("device holds %d B, lon's approximation %d B", used, d.GPUBytes())
	}
	st, err := c.Table("trips")
	if err != nil {
		t.Fatal(err)
	}
	col, err := st.Snapshot().BaseColumn("time")
	if err != nil {
		t.Fatal(err)
	}
	if col.Dec.ApproxBits != 0 || col.Approx != nil || col.GPUBytes() != 0 || st.Snapshot().Dec("time") != nil {
		t.Fatalf("time is stored as %v with %d device bytes, or reads as decomposed", col.Dec, col.GPUBytes())
	}
	if _, err := c.Decomposition("trips", "time"); err == nil {
		t.Error("Catalog.Decomposition returned a decomposition of time")
	}

	q := Query{
		Table:   "trips",
		Filters: []Filter{{Col: "lon", Lo: 1_000_000, Hi: 3_000_000}, {Col: "time", Lo: 1_700_000_000, Hi: 1_700_003_000}},
		Aggs:    []AggSpec{{Name: "n", Func: Count}},
	}
	lines, err := explainQuery(c, q, ModeClassic)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range lines {
		if strings.Contains(line, "trips.time") && !strings.Contains(line, "est=n/a (no stats)") {
			t.Errorf("time's filter is priced from statistics: %q", line)
		}
	}
	if _, err := c.ExecAR(context.Background(), q, ExecOpts{}); err == nil {
		t.Error("a forced A&R statement ran over time")
	}
	res, err := c.ExecClassic(context.Background(), q, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Meter.GPU != 0 || res.Meter.PCI != 0 {
		t.Errorf("the classic statement billed the device (%v) or the bus (%v)", res.Meter.GPU, res.Meter.PCI)
	}
}
