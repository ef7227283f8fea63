package ar

import (
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/bulk"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/par"
)

// pipeline builds the canonical two-column plan of Fig 3: select on one
// column, project another.
func TestProjectApproxRefineMatchesBulk(t *testing.T) {
	n := 30000
	dates := shuffledInts(n, 20)
	prices := shuffledInts(n, 21)
	dateCol := decompose(t, dates, 9)
	priceCol := decompose(t, prices, 9)

	lo, hi := int64(5000), int64(12000)
	cands := SelectApprox(dateCol, dateCol.Relax(lo, hi))
	proj := ProjectApprox(priceCol, nil, cands)
	if err := SelectRefine(par.P{}, dateCol, nil, lo, hi, cands); err != nil {
		t.Fatal(err)
	}
	got, err := ProjectRefine(par.P{}, proj)
	if err != nil {
		t.Fatalf("ProjectRefine: %v", err)
	}

	// Baseline: select by row loop, then fetch by index.
	ids := rowsIn(dates, lo, hi)
	wantVals := make([]int64, len(ids))
	for i, id := range ids {
		wantVals[i] = prices[id]
	}

	if len(got) != len(wantVals) {
		t.Fatalf("projection size = %d, want %d", len(got), len(wantVals))
	}
	// Compare as multisets keyed by tuple id (orders differ).
	byID := make(map[bat.OID]int64, cands.Len())
	for i, id := range cands.IDs() {
		byID[id] = got[i]
	}
	for i, id := range ids {
		if byID[id] != wantVals[i] {
			t.Fatalf("projected value for id %d = %d, want %d", id, byID[id], wantVals[i])
		}
	}
}

func TestProjectRefineUsesTranslucentJoin(t *testing.T) {
	// The refined set is a strict subset of the set the projection was taken
	// over, in the same permuted order: the realignment of Algorithm 1 —
	// here the narrowed mask itself — must resolve it, over several
	// work-groups, and bill the translucent join.
	n := 3*gpuChunk + 500
	a := shuffledInts(n, 22)
	b := shuffledInts(n, 23)
	colA := decompose(t, a, 6)
	colB := decompose(t, b, 6)

	cands := SelectApprox(colA, colA.Relax(100, int64(n/2)))
	proj := ProjectApprox(colB, nil, cands)
	pre := cands.Len()
	if err := SelectRefine(par.P{}, colA, nil, 100, int64(n/2), cands); err != nil {
		t.Fatal(err)
	}
	if cands.Len() == pre {
		t.Fatal("test needs false positives to be meaningful")
	}
	m, want := device.NewMeter(device.PaperSystem()), device.NewMeter(device.PaperSystem())
	got, err := ProjectRefine(par.P{Workers: 4}, proj)
	if err != nil {
		t.Fatalf("ProjectRefine: %v", err)
	}
	proj.ChargeRefine(1, m)
	for i, id := range cands.IDs() {
		if got[i] != b[id] {
			t.Fatalf("value for id %d = %d, want %d", id, got[i], b[id])
		}
	}
	chargeTranslucentJoin(want, 1, pre, cands.Len())
	if m.CPU <= want.CPU || want.CPU == 0 {
		t.Fatalf("charged %v, of which the translucent join alone %v", m, want)
	}
}

func TestProjectExactFlag(t *testing.T) {
	n := 1000
	vals := shuffledInts(n, 25)
	resident := decompose(t, vals, 32)
	split := decompose(t, vals, 5)
	cands := SelectApprox(resident, resident.Relax(0, 100))
	if !ProjectApprox(resident, nil, cands).Exact() {
		t.Error("fully resident projection not Exact")
	}
	cands2 := SelectApprox(split, split.Relax(0, 100))
	if ProjectApprox(split, nil, cands2).Exact() {
		t.Error("decomposed projection claims Exact")
	}
}

func TestProjectionShipCharges(t *testing.T) {
	sys := device.PaperSystem()
	m := device.NewMeter(sys)
	vals := shuffledInts(10000, 27)
	col := decompose(t, vals, 8)
	cands := SelectApprox(col, col.Relax(0, 5000))
	proj := ProjectApprox(col, nil, cands)
	ChargeProjectApprox(m, col, cands.Len())
	if m.GPU == 0 {
		t.Error("approximate projection charged no GPU time")
	}
	proj.ChargeShip(m)
	if m.PCI == 0 {
		t.Error("projection ship charged no PCI time")
	}
}

// TestProjectApproxMatchesPerRowReference pins ProjectApprox against one
// Get per id — the same codes for every id pattern, the same charge — over a
// set decoded by granule from its survivor mask (whole, dense and sparse
// granules all occur). The patterns: dense, sparse, the mostly-dense
// candidates of an unselective scan, a run that crosses a work-group edge,
// work-groups in device (permuted) order, and ids whose ends look like a run
// while their middle is not.
// maskedCandidates returns the mask-carrying set over col's rows whose
// survivors are exactly ids: a full scan with every other row masked out.
func maskedCandidates(col *bwd.Column, ids []bat.OID) *Candidates {
	drop := make([]uint64, (col.Len()+63)/64)
	for i := range drop {
		drop[i] = ^uint64(0)
	}
	for _, id := range ids {
		drop[id/64] &^= 1 << (id % 64)
	}
	c := SelectApprox(col, bwd.ApproxRange{Full: true})
	c.MaskOut(drop)
	return c
}

func TestProjectApproxMatchesPerRowReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sys := device.PaperSystem()
	n := 3*gpuChunk + 777
	patterns := map[string]func() []bat.OID{
		"dense": func() []bat.OID {
			ids := make([]bat.OID, n)
			for i := range ids {
				ids[i] = bat.OID(i)
			}
			return ids
		},
		"sparse": func() []bat.OID {
			var ids []bat.OID
			for i := rng.Intn(50); i < n; i += 1 + rng.Intn(100) {
				ids = append(ids, bat.OID(i))
			}
			return ids
		},
		"gaps": func() []bat.OID { // 98 % of the rows: runs of ~50 between the gaps
			var ids []bat.OID
			for i := 0; i < n; i++ {
				if rng.Intn(50) != 0 {
					ids = append(ids, bat.OID(i))
				}
			}
			return ids
		},
		"run over a work-group edge": func() []bat.OID {
			// Ten sparse ids first, so the run's position in the candidate
			// list is off the id grid and a work-group edge cuts it.
			ids := []bat.OID{1, 3, 5, 7, 9, 11, 13, 15, 17, 19}
			for i := 100; i < 2*gpuChunk+100; i++ {
				ids = append(ids, bat.OID(i))
			}
			return ids
		},
		"short runs": func() []bat.OID { // around the run-length threshold
			var ids []bat.OID
			for i := 0; i+20 < n; i += 20 + rng.Intn(10) {
				for k := 0; k < 1+rng.Intn(12); k++ {
					ids = append(ids, bat.OID(i+k))
				}
			}
			return ids
		},
		"false run": func() []bat.OID { return []bat.OID{65535, 140000, 65537} },
		"empty":     func() []bat.OID { return nil },
	}
	for _, width := range []uint{1, 8, 23, 33, 63} {
		col := scanColumn(t, rng, width, n, "shuffled")
		check := func(name string, cands *Candidates) {
			m, ref := device.NewMeter(sys), device.NewMeter(sys)
			codes := ProjectApprox(col, nil, cands).Codes()
			ChargeProjectApprox(m, col, cands.Len())
			if len(codes) != cands.Len() {
				t.Fatalf("width %d %s: %d codes for %d candidates", width, name, len(codes), cands.Len())
			}
			for i, id := range cands.IDs() {
				if want := col.Approx.Get(int(id)); codes[i] != want {
					t.Fatalf("width %d %s: code %d (id %d) = %d, want %d", width, name, i, id, codes[i], want)
				}
			}
			k := cands.Len()
			ref.GPUKernel(int64(k)*4+packedBytes(k, width), packedBytes(k, width), int64(k)*bulk.OpsFetch)
			if *m != *ref {
				t.Fatalf("width %d %s: charged %v, want %v", width, name, m, ref)
			}
		}
		for name, ids := range patterns {
			masked := maskedCandidates(col, ids())
			check(name, masked)
			masked.Release()
		}
		// What a scan really emits: every work-group ascending, the groups in
		// permuted order.
		scanned := SelectApprox(col, bwd.ApproxRange{Full: true})
		check("device order", scanned)
		scanned.Release()
	}
}
