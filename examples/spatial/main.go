// Spatial range queries (Table I of the paper): generate GPS traces, load
// them as the trips table, decompose the coordinates, and run the
// range-count query under both execution models with the device-time
// breakdown of Fig 9.
//
//	go run ./examples/spatial
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/fixed"
	"repro/internal/plan"
	"repro/internal/spatial"
)

func main() {
	const n = 2_000_000
	fmt.Printf("generating %d GPS fixes...\n", n)
	data := spatial.Generate(n, 7)

	sys := device.PaperSystem()
	catalog := plan.NewCatalog(sys)
	if err := data.Load(catalog); err != nil {
		log.Fatal(err)
	}
	// Table I: select bwdecompose(lon,24), bwdecompose(lat,24) from trips.
	if err := data.Decompose(catalog); err != nil {
		log.Fatal(err)
	}
	lon, _ := catalog.Decomposition("trips", "lon")
	lat, _ := catalog.Decomposition("trips", "lat")
	fmt.Printf("lon: %v, %.0f%% smaller than raw\n", lon.Dec, lon.CompressionRatio()*100)
	fmt.Printf("lat: %v, %.0f%% smaller than raw\n", lat.Dec, lat.CompressionRatio()*100)

	q := spatial.RangeCountQuery()
	fmt.Printf("\nquery: count fixes with lon in [%s, %s], lat in [%s, %s]\n",
		fixed.Format(spatial.QueryLonLo, fixed.Scale5), fixed.Format(spatial.QueryLonHi, fixed.Scale5),
		fixed.Format(spatial.QueryLatLo, fixed.Scale5), fixed.Format(spatial.QueryLatHi, fixed.Scale5))

	// Both executions go through the embeddable engine facade: one session
	// per executor mode, like two differently configured clients.
	eng := engine.New(catalog, engine.Options{})
	ctx := context.Background()
	arRes, err := eng.SessionFor(engine.ModeAR).QueryPlan(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nA&R:      count=%d   %v\n", arRes.Rows[0].Vals[0], arRes.Meter)
	fmt.Printf("          approximate count bounds (before refinement): %v\n", arRes.Approx.Count)
	fmt.Printf("          candidates %d -> refined %d\n", arRes.Candidates, arRes.Refined)

	clRes, err := eng.SessionFor(engine.ModeClassic).QueryPlan(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("classic:  count=%d   %v\n", clRes.Rows[0].Vals[0], clRes.Meter)
	fmt.Printf("stream:   input %d bytes -> %.3fs through PCI-E (hypothetical)\n",
		arRes.InputBytes, arRes.StreamHypothetical())

	if arRes.Rows[0].Vals[0] != clRes.Rows[0].Vals[0] {
		log.Fatal("MISMATCH between execution models")
	}
	fmt.Printf("\nA&R plan (MAL-style, Fig 7):\n")
	for _, line := range arRes.Plan() {
		fmt.Println("  " + line)
	}
}
