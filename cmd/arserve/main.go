// Command arserve serves the A&R engine as a concurrent SQL query service.
// It pre-loads the TPC-H subset and the spatial trips table (decomposed, so
// A&R routing works immediately) and speaks the line protocol of package
// server: one statement per line, responses terminated by "ok" or
// "error: ...".
//
//	$ go run ./cmd/arserve -addr :7483 &
//	$ nc localhost 7483
//	select count(lon) from trips where lon between 2.68288 and 2.70228 and lat between 50.4222 and 50.4485
//	[3942]
//	ok
//	\stats
//	...
//
// Meta commands: \cost, \mode [auto|ar|classic], \tables, \stats,
// \merge [table], \checkpoint [table], \explain [analyze] <select>,
// \metrics, \slow [<dur>|off], \prepare <name> <sql>,
// \run <name> [params...], \q. Auto mode (the default) picks the
// classic or A&R executor per query from the cost model's
// histogram-based estimates; \mode ar|classic forces one.
//
// With -data <dir> the store is durable: DML is write-ahead logged (fsync
// policy via -fsync always|interval|off), merges checkpoint the bit-sliced
// base to segment files, and restarting with the same -data recovers the
// committed state — so the demo preload only happens on the first run.
//
// The SQL surface includes DML — INSERT INTO ... VALUES, DELETE FROM ...
// WHERE, CREATE TABLE (optionally PARTITION BY HASH/RANGE ... PARTITIONS n)
// — served against the mutable column store: inserts land in per-table
// delta segments and are merged into the bit-sliced base segments by the
// background merger (or \merge). Partitioned tables scatter scans across
// per-partition device streams under the scheduler's per-device ledger
// and show their fan-out in \tables, \explain and the metrics registry.
//
// With -metrics <addr> the process additionally serves the engine metrics
// registry in Prometheus text format on http://<addr>/metrics (query
// counts and latency histograms per route, scheduler queue depth and
// high-water, plan-cache and store counters, per-table delta depth).
// -slow <dur> arms the slow-query log at startup, retaining full
// per-operator traces of queries over the threshold (inspect via \slow).
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/device"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/spatial"
	"repro/internal/tpch"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7483", "listen address")
		sf       = flag.Float64("sf", 0.002, "TPC-H scale factor preloaded")
		spatialN = flag.Int("spatial", 200_000, "spatial fixes preloaded")
		cpu      = flag.Int("cpu", 0, "CPU worker pool size (default: simulated hardware threads)")
		gpu      = flag.Int("gpu", 1, "concurrent GPU (A&R) streams; a statement holds one for its approximation subplan, up to its ship")
		arQueue  = flag.Int("ar-queue", 0, "A&R admission queue bound (default 2x streams)")
		cache    = flag.Int("cache", 128, "plan cache entries (negative disables)")
		threads  = flag.Int("threads", 1, "CPU threads per query")
		mergeAt  = flag.Int("merge-threshold", 0, "delta rows before background merge (default 65536, negative disables)")
		metrics  = flag.String("metrics", "", "HTTP listen address for GET /metrics in Prometheus text format (empty disables)")
		slow     = flag.Duration("slow", 0, "arm the slow-query log for queries over this wall time (0 disables)")
		dataDir  = flag.String("data", "", "data directory for the WAL and segment files (empty: memory-only)")
		fsync    = flag.String("fsync", "always", "WAL fsync policy with -data: always, interval, off")
	)
	flag.Parse()

	sys := device.PaperSystem()
	catalog := plan.NewCatalog(sys)
	// A data directory that already holds state IS the database: the demo
	// tables (and everything created since) recover from it, so preloading
	// them again would collide.
	if *dataDir == "" || !durable.Exists(*dataDir) {
		tpchData := tpch.Generate(*sf, 42)
		if err := tpchData.Load(catalog); err != nil {
			fail(err)
		}
		if err := tpchData.DecomposeAll(catalog, false); err != nil {
			fail(err)
		}
		spatialData := spatial.Generate(*spatialN, 7)
		if err := spatialData.Load(catalog); err != nil {
			fail(err)
		}
		if err := spatialData.Decompose(catalog); err != nil {
			fail(err)
		}
	}

	// The server is a thin protocol adapter over one shared engine; any
	// other front-end could embed the same engine value concurrently.
	eng, err := engine.Open(catalog, engine.Options{
		Sched:              engine.SchedConfig{CPUWorkers: *cpu, GPUStreams: *gpu, ARQueue: *arQueue},
		CacheSize:          *cache,
		Threads:            *threads,
		MergeThreshold:     *mergeAt,
		SlowQueryThreshold: *slow,
		DataDir:            *dataDir,
		Fsync:              *fsync,
	})
	if err != nil {
		fail(err)
	}
	if d := eng.Durability(); d != nil {
		fmt.Printf("arserve: data dir %s (fsync %s); %s\n", d.Dir(), d.Stats().Policy, d.Recovery())
	}
	// Background merger: compacts delta segments past the threshold so the
	// write path stays append-cheap while reads stay mostly base-resident
	// (with -data each background merge is a checkpoint).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng.StartMaintenance(ctx)
	srv := server.New(eng)

	// Clean shutdown on SIGINT/SIGTERM: stop accepting, checkpoint dirty
	// tables, fsync and close the WAL — a reopened -data dir then replays
	// zero records.
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigC
		fmt.Println("arserve: shutting down")
		srv.Close()
		if err := eng.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "arserve: close:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}()
	if *metrics != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", eng.Metrics())
		msrv := &http.Server{Addr: *metrics, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fail(err)
			}
		}()
		defer msrv.Close()
		fmt.Printf("arserve: metrics on http://%s/metrics\n", *metrics)
	}
	fmt.Printf("arserve: lineitem (SF-%g), part, trips (%d fixes) loaded and decomposed\n", *sf, *spatialN)
	fmt.Printf("arserve: listening on %s\n", *addr)
	if err := srv.ListenAndServe(*addr); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "arserve:", err)
	os.Exit(1)
}
