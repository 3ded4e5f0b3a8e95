package serve

import (
	"math/rand"
	"testing"

	"neummu/internal/core"
	"neummu/internal/exp"
	"neummu/internal/vm"
	"neummu/internal/walker"
)

// CellHash64 is the cluster's routing function: every coordinator, every
// restart, and every worker must agree on it, and the hash ring relies on
// distinct cells spreading uniformly. These tests pin the two properties
// that matter — equal cells hash equal (affinity) and distinct cells
// essentially never collide (load spread, no silent cross-cell cache
// aliasing at the coordinator).

// pointFrom builds a (not necessarily simulatable) design point from raw
// fuzz inputs; CellHash64 must be total over the type, not just over
// validated points.
func pointFrom(kind, ps uint8, model string, batch, ptws, prmb int, pts bool, path uint8, tlb int) exp.Point {
	return exp.Point{
		Kind:     core.Kind(kind % 4),
		PageSize: vm.PageSize(ps),
		Model:    model,
		Batch:    batch,
		PTWs:     ptws, PRMBSlots: prmb, PTS: pts,
		Path:       walker.PathKind(path % 4),
		TLBEntries: tlb,
	}
}

func FuzzCellHash64(f *testing.F) {
	f.Add(uint8(2), uint8(0), "CNN-1", 4, 128, 32, true, uint8(1), 0, 0, 0)
	f.Add(uint8(1), uint8(1), "TF-2", 16, 8, 0, false, uint8(0), 2048, 2, 6)
	f.Add(uint8(0), uint8(0), "", 0, 0, 0, false, uint8(0), 0, -1, -1)
	f.Fuzz(func(t *testing.T, kind, ps uint8, model string, batch, ptws, prmb int,
		pts bool, path uint8, tlb, repeatCap, tileCap int) {
		p := pointFrom(kind, ps, model, batch, ptws, prmb, pts, path, tlb)
		eff := exp.Effort{RepeatCap: repeatCap, TileCap: tileCap}
		h := CellHash64(p, eff)
		// Determinism: the hash is a pure function of the fields, so an
		// identically rebuilt point (a coordinator restart, another
		// process) must route identically.
		q := pointFrom(kind, ps, model, batch, ptws, prmb, pts, path, tlb)
		if h2 := CellHash64(q, eff); h2 != h {
			t.Fatalf("hash not deterministic: %#x then %#x for %+v", h, h2, p)
		}
		// Sensitivity: every field that changes the simulation must change
		// the route (a collision here would alias two different cells in
		// the coordinator's merge; FNV-64 makes one astronomically
		// unlikely, so any hit is a canonical-encoding bug).
		mutants := []exp.Point{p, p, p, p, p, p, p, p, p}
		mutants[0].Kind = core.Kind((kind + 1) % 4)
		mutants[1].PageSize++
		mutants[2].Model += "x"
		mutants[3].Batch++
		mutants[4].PTWs++
		mutants[5].PRMBSlots++
		mutants[6].PTS = !pts
		mutants[7].Path = walker.PathKind((path + 1) % 4)
		mutants[8].TLBEntries++
		for i, mp := range mutants {
			if CellHash64(mp, eff) == h {
				t.Fatalf("mutating field %d did not change the hash of %+v", i, p)
			}
		}
		if CellHash64(p, exp.Effort{RepeatCap: repeatCap + 1, TileCap: tileCap}) == h ||
			CellHash64(p, exp.Effort{RepeatCap: repeatCap, TileCap: tileCap + 1}) == h {
			t.Fatalf("effort caps not part of the cell identity for %+v", p)
		}
	})
}

// TestCellHashCollisionRateAcrossRandomGrids draws 1e5 distinct random
// design points (a far larger space than any real sweep grid) and requires
// the 64-bit hash to keep them apart: the birthday bound predicts ~3e-10
// expected collisions, so even one is a red flag and two is a failure.
func TestCellHashCollisionRateAcrossRandomGrids(t *testing.T) {
	const n = 100_000
	rng := rand.New(rand.NewSource(7))
	models := []string{"CNN-1", "CNN-2", "CNN-3", "RNN-1", "RNN-2", "RNN-3",
		"TF-1", "TF-2", "TF-3", "NCF", "DLRM"}
	type cell struct {
		p                  exp.Point
		repeatCap, tileCap int
	}
	seen := make(map[cell]struct{}, n)
	hashes := make(map[uint64]cell, n)
	collisions := 0
	for len(seen) < n {
		c := cell{
			p: exp.Point{
				Kind:     core.Kind(rng.Intn(4)),
				PageSize: []vm.PageSize{vm.Page4K, vm.Page2M}[rng.Intn(2)],
				Model:    models[rng.Intn(len(models))],
				Batch:    1 + rng.Intn(256),
				PTWs:     rng.Intn(257), PRMBSlots: rng.Intn(65),
				PTS:  rng.Intn(2) == 1,
				Path: walker.PathKind(rng.Intn(4)), TLBEntries: rng.Intn(1 << 14),
			},
			repeatCap: rng.Intn(8), tileCap: rng.Intn(16),
		}
		if _, dup := seen[c]; dup {
			continue
		}
		seen[c] = struct{}{}
		h := CellHash64(c.p, exp.Effort{RepeatCap: c.repeatCap, TileCap: c.tileCap})
		if prev, ok := hashes[h]; ok {
			collisions++
			t.Logf("collision: %+v and %+v both hash to %#x", prev, c, h)
		}
		hashes[h] = c
	}
	if collisions >= 2 {
		t.Fatalf("%d collisions among %d distinct cells: hash quality regression", collisions, n)
	}
}

// TestCellKeyComparable pins the cache-key contract: cellKey is a
// comparable value struct, so identical cells share one cache slot and any
// differing field — including the effort caps — gets its own.
func TestCellKeyComparable(t *testing.T) {
	p := exp.Point{Kind: core.NeuMMU, PageSize: vm.Page4K, Model: "CNN-1", Batch: 4}
	caps := exp.Effort{RepeatCap: 2, TileCap: 6}
	a := cellKey{point: p, effort: caps}
	b := cellKey{point: p, effort: caps}
	if a != b {
		t.Fatal("identical cells produced distinct cache keys")
	}
	m := map[cellKey]int{a: 1}
	if m[b] != 1 {
		t.Fatal("rebuilt key missed the cache slot")
	}
	for _, k := range []cellKey{
		{point: p, effort: exp.Effort{RepeatCap: 3, TileCap: 6}},
		{point: p, effort: exp.Effort{RepeatCap: 2, TileCap: 7}},
	} {
		if k == a {
			t.Fatalf("effort caps not part of the cache identity: %+v", k)
		}
	}
	q := p
	q.TLBEntries = 4096
	if (cellKey{point: q, effort: caps}) == a {
		t.Fatal("TLB capacity not part of the cache identity")
	}
}
