package engine

import (
	"context"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/plan"
)

// TestEnginePartitionSurface covers the engine-facing partition surface:
// \tables groups partitions under their wrapper with per-partition
// base/delta splits, \explain prints the scatter fan-out with per-partition
// estimates, the scheduler's per-device ledger counts admitted partition
// scans, and the metrics registry exports them plus per-partition depth
// gauges.
func TestEnginePartitionSurface(t *testing.T) {
	ctx := context.Background()
	eng := New(plan.NewCatalog(device.PaperSystem()), Options{})
	defer eng.Close()
	for _, stmt := range []string{
		"create table ps (k int, v int) partition by hash(k) partitions 3",
		"insert into ps values (0, 5), (1, 12), (2, 7), (3, 40), (4, 1), (5, 33), (6, 8), (7, 21), (8, 2), (9, 14), (10, 9), (11, 30)",
		"select bwdecompose(k, 8), bwdecompose(v, 8) from ps",
		"insert into ps values (12, 3), (13, 6)", // leave a delta tail
	} {
		if _, err := eng.Query(ctx, stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}

	sess := eng.SessionFor(ModeAR)
	defer sess.Close()

	// \tables: the wrapper line carries the spec, partitions list under it
	// with their own segment splits, and partition tables do not appear as
	// stand-alone entries.
	out, _, handled, err := sess.Meta(ctx, `\tables`)
	if !handled || err != nil {
		t.Fatalf(`\tables: handled=%v err=%v`, handled, err)
	}
	var wrapper string
	parts, standalone := 0, 0
	for _, line := range out {
		switch {
		case strings.HasPrefix(line, "ps ("):
			wrapper = line
		case strings.HasPrefix(line, "  partition "):
			parts++
		case strings.HasPrefix(line, "ps.p"):
			standalone++
		}
	}
	if !strings.Contains(wrapper, "14 rows, partition by hash(k) partitions 3") {
		t.Fatalf(`\tables wrapper line %q`, wrapper)
	}
	if parts != 3 || standalone != 0 {
		t.Fatalf(`\tables lists %d partition lines and %d stand-alone partition tables, want 3 and 0:\n%s`,
			parts, standalone, strings.Join(out, "\n"))
	}
	if !strings.Contains(strings.Join(out, "\n"), "delta") {
		t.Fatalf(`\tables shows no base/delta split:\n%s`, strings.Join(out, "\n"))
	}

	// \explain: scatter header, one line per partition with estimated rows,
	// and the gather contract.
	out, _, _, err = sess.Meta(ctx, `\explain select count(*) from ps where v <= 20`)
	if err != nil {
		t.Fatal(err)
	}
	text := strings.Join(out, "\n")
	if !strings.HasPrefix(out[0], "scatter: ps over 3 partitions") {
		t.Fatalf(`\explain header %q`, out[0])
	}
	for _, want := range []string{"est ~", "gather: merge the partitions' accumulators in partition order"} {
		if !strings.Contains(text, want) {
			t.Fatalf(`\explain lacks %q:\n%s`, want, text)
		}
	}

	// An A&R scatter admits each partition scan onto its device stream; the
	// ledger and its counter must see all three.
	before := eng.Scheduler().Stats().PartitionScans
	if got := mustCount(t, sess, "select count(*) from ps where k >= 0"); got != 14 {
		t.Fatalf("scatter count = %d, want 14", got)
	}
	st := eng.Scheduler().Stats()
	if st.PartitionScans != before+3 {
		t.Fatalf("partition scans %d, want %d", st.PartitionScans, before+3)
	}
	if !strings.Contains(st.String(), "partition scans") {
		t.Fatalf("SchedStats.String() lacks partition scans: %q", st.String())
	}

	text = strings.Join(eng.Metrics().Text(), "\n")
	if !strings.Contains(text, "ar_partition_scans_total") {
		t.Fatal("metrics text lacks ar_partition_scans_total")
	}
	for _, series := range []string{`ar_table_base_rows{table="ps.p0"}`, `ar_table_delta_rows{table="ps.p2"}`} {
		if !strings.Contains(text, series) {
			t.Fatalf("metrics text lacks per-partition series %s", series)
		}
	}
}
