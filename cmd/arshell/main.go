// Command arshell is a minimal interactive SQL shell over the A&R engine.
// It starts with the TPC-H subset and the spatial trips table pre-loaded
// (at small scale) so the paper's queries can be typed directly.
//
//	$ go run ./cmd/arshell
//	ar> select bwdecompose(lon, 24), bwdecompose(lat, 24) from trips
//	ar> select count(*) from trips where lon between 2.68288 and 2.70228
//	                                 and lat between 50.4222 and 50.4485
//	ar> select count(*) from trips where lon < 2.7 or lat > 50.44
//	ar> select l_returnflag, sum(l_quantity) as q from lineitem
//	        group by l_returnflag having count(*) > 100 order by q desc limit 2
//	ar> \explain select count(*) from lineitem join part on lineitem.l_partkey = part.p_partkey
//	ar> create table orders (qty int, price decimal2)
//	ar> create table events (ts int, v int) partition by hash(ts) partitions 4
//	ar> insert into orders values (5, 1.50), (10, 2.25)
//	ar> delete from orders where qty < 6
//	ar> \load data.csv items id:int,price:decimal2,kind:dict
//	ar> \merge
//	ar> \q
//
// The shell is a thin REPL over an engine session — the same
// internal/engine facade the TCP server adapts — so its meta-command
// surface is identical to the server's: \cost, \mode [auto|ar|classic],
// \tables, \stats, \merge [table], \checkpoint [table],
// \explain [analyze] <select>, \metrics, \slow [<dur>|off],
// \prepare <name> <sql>, \run <name> [params...], \q. With -data <dir> the
// store is durable (WAL + segment files, -fsync selects the sync policy)
// and a restart with the same -data recovers the committed state instead
// of preloading the demo tables.
// In auto mode (the default) the cost model picks the classic or A&R
// executor per query from histogram-based cardinality estimates;
// \mode ar|classic forces one instead.
// \explain renders the assembled operator pipeline (the mode choice with
// its costing rationale, scan strategy, cost-ordered filters with
// estimated selectivities and row counts, join chain,
// delta/top-k stages) without executing the statement; \explain analyze
// executes it and annotates each stage with estimated vs actual rows and
// the simulated GPU/CPU/PCI split. One command is shell-only because it
// reads the local filesystem:
//
//	\load <csv> <table> <schema>   ingest a CSV file (schema syntax
//	                               id:int,price:decimal2,name:dict,day:date)
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/csvload"
	"repro/internal/device"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/spatial"
	"repro/internal/tpch"
)

func main() {
	var (
		sf       = flag.Float64("sf", 0.002, "TPC-H scale factor preloaded")
		spatialN = flag.Int("spatial", 200_000, "spatial fixes preloaded")
		threads  = flag.Int("threads", 1, "CPU threads per query")
		mergeAt  = flag.Int("merge-threshold", 0, "delta rows before background merge (default 65536, negative disables)")
		dataDir  = flag.String("data", "", "data directory for the WAL and segment files (empty: memory-only)")
		fsync    = flag.String("fsync", "always", "WAL fsync policy with -data: always, interval, off")
	)
	flag.Parse()

	sys := device.PaperSystem()
	catalog := plan.NewCatalog(sys)
	// An existing data directory is the database: the demo tables recover
	// from it, so only a fresh (or memory-only) start preloads them.
	if *dataDir == "" || !durable.Exists(*dataDir) {
		if err := tpch.Generate(*sf, 42).Load(catalog); err != nil {
			fmt.Fprintln(os.Stderr, "arshell:", err)
			os.Exit(1)
		}
		if err := spatial.Generate(*spatialN, 7).Load(catalog); err != nil {
			fmt.Fprintln(os.Stderr, "arshell:", err)
			os.Exit(1)
		}
	}

	eng, err := engine.Open(catalog, engine.Options{
		Threads: *threads, MergeThreshold: *mergeAt,
		DataDir: *dataDir, Fsync: *fsync,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "arshell:", err)
		os.Exit(1)
	}
	// Clean shutdown: checkpoint dirty tables and close the WAL, so the
	// next start with the same -data replays nothing.
	defer func() {
		if err := eng.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "arshell: close:", err)
		}
	}()
	sess := eng.Session()
	defer sess.Close()
	sess.ToggleCost() // the shell reports simulated costs by default

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng.StartMaintenance(ctx) // background delta merger (checkpoints with -data)

	if d := eng.Durability(); d != nil {
		fmt.Printf("data dir %s (fsync %s); %s\n", d.Dir(), d.Stats().Policy, d.Recovery())
	}
	fmt.Printf("A&R shell — lineitem (SF-%g), part, trips (%d fixes) loaded.\n", *sf, *spatialN)
	fmt.Println(`Decompose columns first: select bwdecompose(col, bits) from table. \q quits.`)

	in := bufio.NewScanner(os.Stdin)
	out := bufio.NewWriter(os.Stdout)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("ar> ")
		if !in.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			return
		}
		if cmd, _, _ := strings.Cut(line, " "); cmd == `\load` {
			if err := loadCSV(catalog, line); err != nil {
				fmt.Println("error:", err)
			}
			continue
		}
		if lines, quit, handled, err := sess.Meta(ctx, line); handled || quit {
			if quit {
				return
			}
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			for _, l := range lines {
				fmt.Println(l)
			}
			continue
		}
		res, err := sess.Query(ctx, line)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		engine.WriteResult(out, res, sess.Cost())
		out.Flush()
	}
}

// loadCSV handles \load <csv> <table> <schema>: it wires internal/csvload
// so external data can be ingested interactively, then decomposed with
// bwdecompose and queried. Shell-only, since it reads the local
// filesystem.
func loadCSV(catalog *plan.Catalog, line string) error {
	fields := strings.Fields(line)
	if len(fields) != 4 {
		return fmt.Errorf(`usage: \load <csv> <table> <schema>  (schema like id:int,price:decimal2,name:dict)`)
	}
	path, table, spec := fields[1], fields[2], fields[3]
	schema, err := csvload.ParseSchema(table, spec)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	res, err := csvload.Load(catalog, f, schema)
	if err != nil {
		return err
	}
	fmt.Printf("loaded %d rows into %s (%s)\n", res.Rows, table, strings.Join(res.Table.Columns(), ", "))
	for col, dict := range res.Dicts {
		fmt.Printf("dictionary %s.%s: %d entries\n", table, col, len(dict))
	}
	return nil
}
