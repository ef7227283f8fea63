package ar

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bat"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/par"
)

// The translucent join (Algorithm 1) realigns a refined subset with the
// phase-A intermediates it was refined from. A refinement narrows the
// phase-A survivor mask in place, so the subset keeps the candidate order of
// the set and the realignment is the mask itself; these tests pin that it
// computes what the join did, and that the join is still billed.

// TestTranslucentJoinInvisibleFastPath: Algorithm 1's first branch — a sorted,
// dense superset, where a position follows from the id itself — is every
// realignment by mask: a refined candidate's id indexes the packed and
// residual planes directly. A full scan of one work-group is that superset
// (candidate i is row i), and after a refinement each survivor, in row
// order, carries the column's exact value at its id.
func TestTranslucentJoinInvisibleFastPath(t *testing.T) {
	vals := shuffledInts(5000, 31)
	col := decompose(t, vals, 6)
	cands := SelectApprox(nil, col, bwd.ApproxRange{Full: true})
	for i, id := range cands.IDs() {
		if int(id) != i {
			t.Fatalf("candidate %d of a one-work-group full scan is row %d", i, id)
		}
	}
	proj := ProjectApprox(nil, col, nil, cands)
	if err := SelectRefine(par.P{}, nil, col, nil, 1000, 2000, cands); err != nil {
		t.Fatal(err)
	}
	got, err := ProjectRefine(par.P{}, nil, proj)
	if err != nil {
		t.Fatal(err)
	}
	ids := cands.IDs()
	if len(ids) != 1001 || len(got) != len(ids) {
		t.Fatalf("%d candidates, %d values refine from [1000,2000] of a permutation of [0,5000)", len(ids), len(got))
	}
	for i, id := range ids {
		if got[i] != vals[id] || i > 0 && id <= ids[i-1] {
			t.Fatalf("candidate %d (row %d): value %d, the column's %d", i, id, got[i], vals[id])
		}
	}
}

// TestTranslucentJoinEmptyInputs: an empty phase-A set, and one a refinement
// empties, realign to nothing — the refined projection and the refined
// grouping are empty — and the join is billed only when candidates were
// dropped.
func TestTranslucentJoinEmptyInputs(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(2 * i) // the odd values are in the boundary buckets, never in the column
	}
	col := decompose(t, vals, 6)
	for _, r := range [][2]int64{{5000, 9000}, {1, 1}} {
		cands := SelectApprox(nil, col, col.Relax(r[0], r[1]))
		pre := cands.Len()
		if (pre == 0) != (r[0] == 5000) {
			t.Fatalf("[%d,%d]: %d phase-A candidates", r[0], r[1], pre)
		}
		proj := ProjectApprox(nil, col, nil, cands)
		grouping := GroupApprox(nil, []*bwd.Column{col}, cands)
		if err := SelectRefine(par.P{}, nil, col, nil, r[0], r[1], cands); err != nil || cands.Len() != 0 {
			t.Fatalf("[%d,%d]: %d candidates refined, %v", r[0], r[1], cands.Len(), err)
		}
		m := device.NewMeter(device.PaperSystem())
		got, err := ProjectRefine(par.P{}, m, proj)
		if err != nil || len(got) != 0 {
			t.Fatalf("[%d,%d]: refined projection %v, %v", r[0], r[1], got, err)
		}
		if joined := device.NewMeter(device.PaperSystem()); pre > 0 {
			chargeTranslucentJoin(joined, 1, pre, 0)
			if m.CPU < joined.CPU || joined.CPU == 0 {
				t.Fatalf("[%d,%d]: %d candidates dropped, billed %v, the join alone %v", r[0], r[1], pre, m, joined)
			}
		}
		// The refined grouping is over no candidate: its bill is the join of
		// the emptied set into the pre-grouping, when it held any, then the
		// key's rebuild and the regroup — the column keeps residual bits —
		// over nothing.
		billed, want := device.NewMeter(device.PaperSystem()), device.NewMeter(device.PaperSystem())
		ChargeGroupRefine(par.P{}, billed, grouping, cands.Len())
		chargeTranslucentJoin(want, 1, pre, 0)
		want.CPUWork(1, 0, 0, 0)
		want.CPUWork(1, 0, 0, 0)
		if grouping.Cands != pre || col.Dec.ResBits == 0 || billed.Total() != want.Total() || billed.CPU != want.CPU {
			t.Fatalf("[%d,%d]: refined grouping of %d pre-grouped candidates billed %v, want %v", r[0], r[1], grouping.Cands, billed, want)
		}
	}
}

// TestTranslucentJoinMatchesHashJoin is the paper's correctness claim for the
// realignment: under its preconditions the translucent join computes the same
// natural join a generic equi-join would. Over several work-groups in device
// order, a refinement's survivors read through a projection taken in phase A
// carry exactly the values a hash join of the refined ids with the phase-A
// (id, code) list pairs them with — code and residual — at every worker
// count.
func TestTranslucentJoinMatchesHashJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		n := gpuChunk/2 + rng.Intn(3*gpuChunk)
		a, b := shuffledInts(n, int64(trial)), shuffledInts(n, int64(trial)+100)
		colA, colB := decompose(t, a, uint(4+rng.Intn(8))), decompose(t, b, 7)
		lo := rng.Int63n(int64(n) / 2)
		hi := lo + rng.Int63n(int64(n)/2)
		cands := SelectApprox(nil, colA, colA.Relax(lo, hi))
		proj := ProjectApprox(nil, colB, nil, cands)
		aIDs, codes := slices.Clone(cands.IDs()), slices.Clone(proj.Codes())
		if err := SelectRefine(par.P{Workers: 1 + trial%4}, nil, colA, nil, lo, hi, cands); err != nil {
			t.Fatal(err)
		}
		got, err := ProjectRefine(par.P{Workers: 1 + trial%3}, nil, proj)
		if err != nil {
			t.Fatal(err)
		}
		bIDs := cands.IDs()
		if len(bIDs) == len(aIDs) {
			t.Fatalf("trial %d: nothing refined away", trial)
		}
		// Ground truth: the generic equi-join of the two id lists, a hash
		// join built on the phase-A list and probed with the refined one.
		// Ids are unique, so every refined row joins exactly one phase-A row.
		build := make(map[bat.OID][]int, len(aIDs))
		for l, id := range aIDs {
			build[id] = append(build[id], l)
		}
		var lids, rids []int
		for r, id := range bIDs {
			for _, l := range build[id] {
				lids, rids = append(lids, l), append(rids, r)
			}
		}
		if len(rids) != len(bIDs) {
			t.Fatalf("trial %d: hash join found %d pairs for %d refined rows", trial, len(rids), len(bIDs))
		}
		for k, r := range rids {
			id := aIDs[lids[k]]
			want := colB.ReconstructFrom(codes[lids[k]], colB.Residual.Get(int(id)))
			if got[r] != want || want != b[id] {
				t.Fatalf("trial %d: refined row %d (id %d) = %d, the join pairs it with %d", trial, r, id, got[r], want)
			}
		}
	}
}

// TestTranslucentJoinMeteredCharges: the join is a CPU operator billed for a
// merge pass over both id lists — nothing when nothing was refined away,
// where it aliases its input.
func TestTranslucentJoinMeteredCharges(t *testing.T) {
	sys := device.PaperSystem()
	m, want := device.NewMeter(sys), device.NewMeter(sys)
	chargeTranslucentJoin(m, 1, 4, 2)
	want.CPUWork(1, 4*4+2*4+2*8, 0, 4)
	if m.CPU == 0 || *m != *want {
		t.Errorf("translucent join of 2 of 4 candidates billed %v, want %v", m, want)
	}
	if m.GPU != 0 || m.PCI != 0 {
		t.Error("translucent join is a CPU operator")
	}
	same := device.NewMeter(sys)
	chargeTranslucentJoin(same, 1, 4, 4)
	if *same != *device.NewMeter(sys) {
		t.Errorf("a join of a set with itself billed %v", same)
	}
}
