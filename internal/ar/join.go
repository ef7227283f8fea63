package ar

import (
	"fmt"

	"repro/internal/bulk"
	"repro/internal/bwd"
	"repro/internal/device"
)

// This file is the approximate side of the paper's foreign-key join (§IV-D).
// The paper deliberately does not attempt generic hash joins on the device
// (massively parallel hash builds serialize on conflicting writes) and
// instead relies on a pre-built foreign-key index, which turns the join into
// a projective join. With the dense primary keys of dimension tables the
// index is positional — dimension position = fk − pkBase, a function of the
// fact row (bwd.Key) — so a join stores nothing: its probe narrows the
// survivor mask like any conjunct (JoinApprox), and selections and
// projections on dimension attributes read the dimension column at the
// position a candidate's key joins while the candidate set itself stays
// fact-side. The operators that do — SelectApproxOver, SelectRefine,
// ProjectApprox, ProjectRefine — take the key as the column's addressing, nil
// for a fact column. This is how the paper evaluates TPC-H Q14's predicate on
// part.p_type (§VI-D1): FK joins share the projective-join code path.

// CheckKey refuses a foreign-key column the device cannot join through: an
// approximate key cannot address an exact position, so every bit of it must
// be device resident (ResBits == 0). Decomposed key columns must fall back to
// the CPU join path, which mirrors the paper's own restriction ("we leave
// support for unindexed joins on the GPU for future work").
func CheckKey(fkCol *bwd.Column) error {
	if fkCol.Dec.ResBits != 0 {
		return fmt.Errorf("ar: FK join needs a fully device-resident key column, got %v", fkCol.Dec)
	}
	return nil
}

// JoinApprox is the join's probe on the device: it narrows in, in place, to
// the candidates whose key has a partner in the dimension — an inner join
// drops a dangling key, as the classic join and the delta scan do. Like a
// further conjunct it is a mask step over the granules that still hold a
// survivor.
func JoinApprox(m *device.Meter, key *bwd.Key, in *Candidates) (*Candidates, error) {
	if err := CheckKey(key.Col); err != nil {
		return nil, err
	}
	n := in.Len()
	in.MaskOutJoined(key, nil)
	if m != nil {
		seq := int64(n) * 8 // read ids, write positions
		m.GPUKernel(seq, packedBytes(n, key.Col.Dec.ApproxBits), int64(n)*bulk.OpsHashProbe)
	}
	return in, nil
}

// MaskOutJoined clears the candidates whose key joins a dimension row set in
// deleted, the dimension's deletion bitmap (or no row at all). Like MaskOut
// it is how the device discharges deleted rows — the bitmap is mirrored
// device-side — and the caller, which knows its footprint, charges it.
func (c *Candidates) MaskOutJoined(key *bwd.Key, deleted []uint64) {
	c.walk = append(c.walk[:0], key.Joined(deleted))
	c.step(devP(), false, true)
}

// idBytes is what one candidate costs a kernel to stream in: its 4-byte id,
// and beside it the 4-byte dimension position when the column it reads is
// addressed through a key.
func idBytes(key *bwd.Key) int64 {
	if key != nil {
		return 8
	}
	return 4
}
