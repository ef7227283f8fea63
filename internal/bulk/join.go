package bulk

import (
	"repro/internal/device"
	"repro/internal/par"
)

// FKIndex is a pre-built foreign-key index over a primary key. The paper
// pre-builds these on the CPU and treats FK joins as projective joins
// sharing the projection code path (§IV-D). The index is only ever built
// over a strictly dense key, so a foreign key's partner sits at position
// fk − base: the index is that base and the key's length.
type FKIndex struct {
	base int64
	n    int
}

// BuildFKIndex builds the index over a primary-key column. It returns nil
// unless pk is strictly dense — exactly pk[0], pk[0]+1, pk[0]+2, … — the
// invariant the positional join arithmetic relies on: a duplicate, a gap or
// an empty column is no key it can join through.
func BuildFKIndex(pk []int64) *FKIndex {
	if len(pk) == 0 {
		return nil
	}
	for i, v := range pk {
		if v != pk[0]+int64(i) {
			return nil
		}
	}
	return &FKIndex{base: pk[0], n: len(pk)}
}

// Span returns the key domain the index covers: its smallest key and the
// number of keys from there, which are the base and the length of the
// join's arithmetic (bwd.Key).
func (ix *FKIndex) Span() (base int64, n int) { return ix.base, ix.n }

// ChargeFKJoin bills the bulk model's FK join of n key values: the values
// streamed, a position written for each, one index probe per value. The
// executor's classic join (internal/plan), which narrows a mask through the
// key, charges through it.
func ChargeFKJoin(p par.P, m *device.Meter, n int) {
	if m != nil {
		m.CPUWork(p.NThreads(), int64(n)*8+int64(n)*oidBytes, 0, int64(n)*OpsHashProbe)
	}
}
