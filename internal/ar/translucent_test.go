package ar

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/bulk"
	"repro/internal/device"
)

func TestTranslucentJoinPaperExample(t *testing.T) {
	// Fig 5 of the paper: A (approximation, superset) with permuted ids
	// {0,16,48,32,...} joined with B (residual subset) sharing the
	// permutation.
	aIDs := []bat.OID{0, 16, 48, 32, 80}
	bIDs := []bat.OID{16, 32, 80}
	pos, err := TranslucentJoin(aIDs, bIDs)
	if err != nil {
		t.Fatalf("TranslucentJoin: %v", err)
	}
	want := []int{1, 3, 4}
	for i := range want {
		if pos[i] != want[i] {
			t.Errorf("pos[%d] = %d, want %d", i, pos[i], want[i])
		}
	}
}

func TestTranslucentJoinInvisibleFastPath(t *testing.T) {
	// Sorted+dense superset: Algorithm 1's first branch.
	aIDs := []bat.OID{10, 11, 12, 13, 14}
	bIDs := []bat.OID{11, 13}
	pos, err := TranslucentJoin(aIDs, bIDs)
	if err != nil {
		t.Fatalf("TranslucentJoin: %v", err)
	}
	if pos[0] != 1 || pos[1] != 3 {
		t.Errorf("pos = %v, want [1 3]", pos)
	}
}

func TestTranslucentJoinInvisiblePathOutOfRange(t *testing.T) {
	aIDs := []bat.OID{10, 11, 12}
	if _, err := TranslucentJoin(aIDs, []bat.OID{13}); !errors.Is(err, ErrTranslucentPrecondition) {
		t.Errorf("err = %v, want ErrTranslucentPrecondition", err)
	}
	if _, err := TranslucentJoin(aIDs, []bat.OID{9}); !errors.Is(err, ErrTranslucentPrecondition) {
		t.Errorf("err = %v, want ErrTranslucentPrecondition", err)
	}
}

func TestTranslucentJoinDetectsPermutationViolation(t *testing.T) {
	// B's elements appear in A in the opposite order: condition 3 broken.
	aIDs := []bat.OID{5, 3, 9} // not dense -> merge path
	bIDs := []bat.OID{9, 3}
	if _, err := TranslucentJoin(aIDs, bIDs); !errors.Is(err, ErrTranslucentPrecondition) {
		t.Errorf("err = %v, want ErrTranslucentPrecondition", err)
	}
}

func TestTranslucentJoinDetectsNonSubset(t *testing.T) {
	aIDs := []bat.OID{5, 3, 9}
	if _, err := TranslucentJoin(aIDs, []bat.OID{7}); !errors.Is(err, ErrTranslucentPrecondition) {
		t.Errorf("err = %v, want ErrTranslucentPrecondition", err)
	}
}

func TestTranslucentJoinEmptyInputs(t *testing.T) {
	if pos, err := TranslucentJoin(nil, nil); err != nil || len(pos) != 0 {
		t.Errorf("empty join = %v, %v", pos, err)
	}
	if pos, err := TranslucentJoin([]bat.OID{1, 5, 2}, nil); err != nil || len(pos) != 0 {
		t.Errorf("empty B = %v, %v", pos, err)
	}
}

// TestTranslucentJoinMatchesHashJoin is the paper's correctness claim: under
// the three preconditions the translucent join computes the same natural
// join a generic equi-join would.
func TestTranslucentJoinMatchesHashJoin(t *testing.T) {
	asVals := func(ids []bat.OID) []int64 {
		vals := make([]int64, len(ids))
		for i, id := range ids {
			vals[i] = int64(id)
		}
		return vals
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(200) + 1
		// A: a random permutation of n unique ids.
		aIDs := make([]bat.OID, n)
		for i := range aIDs {
			aIDs[i] = bat.OID(i * 3) // unique, gaps
		}
		rng.Shuffle(n, func(i, j int) { aIDs[i], aIDs[j] = aIDs[j], aIDs[i] })
		// B: random subsequence of A (same permutation by construction).
		var bIDs []bat.OID
		for _, id := range aIDs {
			if rng.Intn(3) == 0 {
				bIDs = append(bIDs, id)
			}
		}
		// Ground truth: the generic equi-join of the two id lists. Ids are
		// unique, so every row of B joins exactly one row of A.
		lids, rids := bulk.HashJoin(nil, 1, asVals(aIDs), asVals(bIDs))
		if len(rids) != len(bIDs) {
			t.Fatalf("trial %d: hash join found %d pairs for %d rows of B", trial, len(rids), len(bIDs))
		}
		wantPos := make([]int, len(bIDs))
		for k, r := range rids {
			wantPos[r] = int(lids[k])
		}
		pos, err := TranslucentJoin(aIDs, bIDs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range wantPos {
			if pos[i] != wantPos[i] {
				t.Fatalf("trial %d: pos[%d] = %d, want %d", trial, i, pos[i], wantPos[i])
			}
		}
	}
}

func TestTranslucentJoinMeteredCharges(t *testing.T) {
	sys := device.PaperSystem()
	m := device.NewMeter(sys)
	aIDs := []bat.OID{4, 2, 9, 7}
	bIDs := []bat.OID{2, 7}
	if _, err := TranslucentJoinMetered(m, 1, aIDs, bIDs); err != nil {
		t.Fatalf("TranslucentJoinMetered: %v", err)
	}
	if m.CPU == 0 {
		t.Error("metered translucent join charged nothing")
	}
	if m.GPU != 0 || m.PCI != 0 {
		t.Error("translucent join is a CPU operator")
	}
}

func BenchmarkTranslucentJoin(b *testing.B) {
	n := 1 << 18
	aIDs := make([]bat.OID, n)
	for i := range aIDs {
		aIDs[i] = bat.OID(i)
	}
	rng := rand.New(rand.NewSource(5))
	rng.Shuffle(n, func(i, j int) { aIDs[i], aIDs[j] = aIDs[j], aIDs[i] })
	var bIDs []bat.OID
	for _, id := range aIDs {
		if id%3 == 0 {
			bIDs = append(bIDs, id)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TranslucentJoin(aIDs, bIDs); err != nil {
			b.Fatal(err)
		}
	}
}
