package repro_test

import (
	"runtime"
	"testing"

	"repro/internal/device"
	"repro/internal/plan"
	"repro/internal/spatial"
	"repro/internal/tpch"
)

// BenchmarkLoadedHeap is the host memory a server keeps for its tables once
// they are loaded and decomposed the way cmd/arserve preloads them, at the
// flags of two workloads of bench/: scan_range (-spatial 2000000 -sf 0.001:
// trips' lon and lat decomposed at 24 bits) and olap_tail (-sf 0.04 -spatial
// 1000: every lineitem column fully device resident). heap_live_MB is the
// heap after the load and one collection — the collection a server's first
// heap goal is set from — so buffers the load left pooled in the arena count;
// the collections before the load clear what the previous iteration left.
func BenchmarkLoadedHeap(b *testing.B) {
	for _, w := range []struct {
		name  string
		sf    float64
		fixes int
	}{{"scan_range", 0.001, 2_000_000}, {"olap_tail", 0.04, 1000}} {
		b.Run(w.name, func(b *testing.B) {
			var live uint64
			for i := 0; i < b.N; i++ {
				runtime.GC()
				runtime.GC()
				c := plan.NewCatalog(device.PaperSystem())
				lineitem := tpch.Generate(w.sf, 42)
				if err := lineitem.Load(c); err != nil {
					b.Fatal(err)
				}
				if err := lineitem.DecomposeAll(c, false); err != nil {
					b.Fatal(err)
				}
				trips := spatial.Generate(w.fixes, 7)
				if err := trips.Load(c); err != nil {
					b.Fatal(err)
				}
				if err := trips.Decompose(c); err != nil {
					b.Fatal(err)
				}
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				live = ms.HeapAlloc
				runtime.KeepAlive(c)
			}
			b.ReportMetric(float64(live)/(1<<20), "heap_live_MB")
		})
	}
}
