// Package spatial implements the spatial range-query benchmark of the
// paper (§VI-C, Table I): a table of GPS fixes gathered from navigation
// devices, queried with a rectangular range count.
//
// The paper's 250 M-point data set (generated with the method of Bösche et
// al., TPCTC 2012) is proprietary-ish in origin; this package substitutes
// a synthetic trip-based generator that reproduces the properties the
// experiment depends on: European-scale coordinate ranges (which limit
// prefix compression to ~25 %, §VI-C2), trip-local continuity (successive
// fixes of one vehicle are near each other), and a small hot query region
// that a fraction of trips crosses.
package spatial

import (
	"math"
	"math/rand"

	"repro/internal/bat"
	"repro/internal/fixed"
	"repro/internal/plan"
)

// Coordinate bounds of the paper's data set (§VI-C2): latitudes 27.09371
// to 70.13643, longitudes -12.62427 to 29.64975, stored as decimal(_,5)
// fixed-point.
var (
	LatMin = fixed.FromFloat(27.09371, fixed.Scale5)
	LatMax = fixed.FromFloat(70.13643, fixed.Scale5)
	LonMin = fixed.FromFloat(-12.62427, fixed.Scale5)
	LonMax = fixed.FromFloat(29.64975, fixed.Scale5)
)

// Table I query box: lon between 2.68288 and 2.70228, lat between 50.4222
// and 50.4485.
var (
	QueryLonLo = fixed.FromFloat(2.68288, fixed.Scale5)
	QueryLonHi = fixed.FromFloat(2.70228, fixed.Scale5)
	QueryLatLo = fixed.FromFloat(50.4222, fixed.Scale5)
	QueryLatHi = fixed.FromFloat(50.4485, fixed.Scale5)
)

// Data is the trips table of Table I:
// create table trips (tripid int, lon decimal(8,5), lat decimal(7,5), time int).
type Data struct {
	TripID []int64
	Lon    []int64 // fixed-point 1e-5 degrees
	Lat    []int64
	Time   []int64 // seconds since trip epoch
}

// Len returns the number of GPS fixes.
func (d *Data) Len() int { return len(d.Lon) }

// Generate synthesizes n GPS fixes. Vehicles perform random-walk trips:
// a start point, a heading and a speed that evolve smoothly, sampled every
// 10 seconds — the trace shape of the TPCTC generator. A small fraction of
// trips starts inside the Table I query region so range queries always
// have matches.
func Generate(n int, seed int64) *Data {
	rng := rand.New(rand.NewSource(seed))
	d := &Data{
		TripID: make([]int64, 0, n),
		Lon:    make([]int64, 0, n),
		Lat:    make([]int64, 0, n),
		Time:   make([]int64, 0, n),
	}
	trip := int64(0)
	for d.Len() < n {
		points := 50 + rng.Intn(150)
		if remaining := n - d.Len(); points > remaining {
			points = remaining
		}
		var lon, lat float64
		if trip%40 == 0 {
			// Route through the hot region around Calais.
			lon = fixed.ToFloat(QueryLonLo, fixed.Scale5) +
				rng.Float64()*fixed.ToFloat(QueryLonHi-QueryLonLo, fixed.Scale5)
			lat = fixed.ToFloat(QueryLatLo, fixed.Scale5) +
				rng.Float64()*fixed.ToFloat(QueryLatHi-QueryLatLo, fixed.Scale5)
		} else {
			lon = fixed.ToFloat(LonMin, fixed.Scale5) +
				rng.Float64()*fixed.ToFloat(LonMax-LonMin, fixed.Scale5)
			lat = fixed.ToFloat(LatMin, fixed.Scale5) +
				rng.Float64()*fixed.ToFloat(LatMax-LatMin, fixed.Scale5)
		}
		heading := rng.Float64() * 2 * math.Pi
		speed := 8 + rng.Float64()*17 // m/s: urban to motorway
		const dt = 10.0               // seconds per fix
		for p := 0; p < points; p++ {
			d.TripID = append(d.TripID, trip)
			d.Lon = append(d.Lon, clamp(fixed.FromFloat(lon, fixed.Scale5), LonMin, LonMax))
			d.Lat = append(d.Lat, clamp(fixed.FromFloat(lat, fixed.Scale5), LatMin, LatMax))
			d.Time = append(d.Time, int64(p)*int64(dt))

			// Smooth evolution: slight heading drift, speed jitter.
			heading += (rng.Float64() - 0.5) * 0.4
			speed = math.Max(3, math.Min(33, speed+(rng.Float64()-0.5)*2))
			dist := speed * dt // metres
			dlat := dist * math.Cos(heading) / 111320
			dlon := dist * math.Sin(heading) / (111320 * math.Cos(lat*math.Pi/180))
			lat += dlat
			lon += dlon
			// Reflect at the bounding box.
			if lat < fixed.ToFloat(LatMin, fixed.Scale5) || lat > fixed.ToFloat(LatMax, fixed.Scale5) {
				heading = math.Pi - heading
				lat = math.Max(fixed.ToFloat(LatMin, fixed.Scale5), math.Min(fixed.ToFloat(LatMax, fixed.Scale5), lat))
			}
			if lon < fixed.ToFloat(LonMin, fixed.Scale5) || lon > fixed.ToFloat(LonMax, fixed.Scale5) {
				heading = -heading
				lon = math.Max(fixed.ToFloat(LonMin, fixed.Scale5), math.Min(fixed.ToFloat(LonMax, fixed.Scale5), lon))
			}
		}
		trip++
	}
	return d
}

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Load registers the trips table in the catalog.
func (d *Data) Load(c *plan.Catalog) error {
	t := plan.NewTable("trips")
	for _, col := range []struct {
		name  string
		vals  []int64
		scale int64
	}{
		{"tripid", d.TripID, 1},
		{"lon", d.Lon, fixed.Scale5},
		{"lat", d.Lat, fixed.Scale5},
		{"time", d.Time, 1},
	} {
		if err := t.AddColumnScaled(col.name, col.vals, bat.Width32, col.scale); err != nil {
			return err
		}
	}
	return c.AddTable(t)
}

// Decompose applies Table I's decomposition:
// select bwdecompose(lon,24), bwdecompose(lat,24) from trips.
func (d *Data) Decompose(c *plan.Catalog) error {
	if _, err := c.Decompose("trips", "lon", 24); err != nil {
		return err
	}
	_, err := c.Decompose("trips", "lat", 24)
	return err
}

// RangeCountQuery is Table I's query:
//
//	select count(lon) from trips
//	where lon between 2.68288 and 2.70228
//	  and lat between 50.4222 and 50.4485
func RangeCountQuery() plan.Query {
	return RangeCount(QueryLonLo, QueryLonHi, QueryLatLo, QueryLatHi)
}

// RangeCount builds a range-count query over an arbitrary box.
func RangeCount(lonLo, lonHi, latLo, latHi int64) plan.Query {
	return plan.Query{
		Table: "trips",
		Filters: []plan.Filter{
			{Col: "lon", Lo: lonLo, Hi: lonHi},
			{Col: "lat", Lo: latLo, Hi: latHi},
		},
		Aggs: []plan.AggSpec{{Name: "count_lon", Func: plan.Count}},
	}
}
