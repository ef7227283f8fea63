package bulk

import (
	"repro/internal/device"
	"repro/internal/par"
)

// Fixed-point arithmetic maps. Decimal columns (prices, discounts, GPS
// coordinates) are stored as scaled integers; multiplication of two scaled
// values must divide one scale back out. All maps are bulk operators:
// tight loops that materialize their full result (§II-B). Morsels write
// disjoint output ranges, so the result is positionally identical for
// every worker count.

// MapAdd returns a[i] + b[i].
func MapAdd(p par.P, m *device.Meter, a, b []int64) []int64 {
	return mapBin(p, m, a, b, func(x, y int64) int64 { return x + y })
}

// MapSub returns a[i] - b[i].
func MapSub(p par.P, m *device.Meter, a, b []int64) []int64 {
	return mapBin(p, m, a, b, func(x, y int64) int64 { return x - y })
}

// MapMulScaled returns (a[i] * b[i]) / scale: the fixed-point product of
// two columns sharing the given decimal scale.
func MapMulScaled(p par.P, m *device.Meter, a, b []int64, scale int64) []int64 {
	return mapBin(p, m, a, b, func(x, y int64) int64 { return x * y / scale })
}

func mapBin(p par.P, m *device.Meter, a, b []int64, f func(x, y int64) int64) []int64 {
	out := make([]int64, len(a))
	if serial(p, len(a)) {
		for i := range a {
			out[i] = f(a[i], b[i])
		}
	} else {
		p.For(len(a), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = f(a[i], b[i])
			}
		})
	}
	if m != nil {
		m.CPUWork(p.NThreads(), int64(len(a))*24, 0, int64(len(a))*OpsArith)
	}
	return out
}
