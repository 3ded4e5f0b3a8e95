package serve

import (
	"encoding/json"
	"path/filepath"
	"sync"
	"testing"

	"neummu/internal/core"
	"neummu/internal/exp"
	"neummu/internal/vm"
)

// TestCellIdentityPinned pins the three durable spellings of a cell's
// identity as literal bytes: its CellHash64 (the store file name and the
// cluster routing key), its store key bytes, and the /v1/cells payload a
// coordinator sends for it. Existing stores and mixed-version fleets rely
// on all three never changing, so the expected values are literals, not
// recomputed from the code under test. The efforts are built the way a
// request builds them, through MergeEffort and the harness cache.
func TestCellIdentityPinned(t *testing.T) {
	p := exp.Point{Kind: core.NeuMMU, PageSize: vm.Page4K, Model: "CNN-1", Batch: 4}
	const wire = `{"kind":"neummu","page_size":"4KB","model":"CNN-1","batch":4,"path":"none"}`
	cases := []struct {
		name      string
		we        *WireEffort
		quick     bool
		file, key string
		cells     string
	}{
		{
			name:  "exact default caps",
			file:  "cell-ad6b17793f5b46cd.neu",
			key:   `{"point":` + wire + `,"repeat_cap":3,"tile_cap":0}`,
			cells: `{"points":[` + wire + `],"repeat_cap":3}`,
		},
		{
			name:  "quick",
			quick: true,
			file:  "cell-a2bce67938bc2738.neu",
			key:   `{"point":` + wire + `,"repeat_cap":2,"tile_cap":6}`,
			cells: `{"points":[` + wire + `],"quick":true,"repeat_cap":2,"tile_cap":6}`,
		},
		{
			// The retired sampled mode is an alias of exact: the cell is
			// the exact one, byte for byte.
			name:  "sampled",
			we:    &WireEffort{Mode: "sampled", TargetCI: 0.05},
			file:  "cell-ad6b17793f5b46cd.neu",
			key:   `{"point":` + wire + `,"repeat_cap":3,"tile_cap":0}`,
			cells: `{"points":[` + wire + `],"repeat_cap":3}`,
		},
		{
			// The retired intra_cell_workers knob is ignored: the cell is
			// the exact one, byte for byte.
			name:  "epoched exact",
			we:    &WireEffort{IntraCellWorkers: 1},
			file:  "cell-ad6b17793f5b46cd.neu",
			key:   `{"point":` + wire + `,"repeat_cap":3,"tile_cap":0}`,
			cells: `{"points":[` + wire + `],"repeat_cap":3}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := MergeEffort(tc.we, tc.quick, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			h := NewHarnessCache(1).Get(e)
			if got := string(storeKeyBytes(newCellKey(h.Options(), p))); got != tc.key {
				t.Errorf("store key bytes = %s, want %s", got, tc.key)
			}
			b, err := json.Marshal(NewCellsRequest(h.Options(), []exp.Point{p}))
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != tc.cells {
				t.Errorf("cells payload = %s, want %s", b, tc.cells)
			}
			// The store names each cell's file by its CellHash64.
			dir := t.TempDir()
			st := openStore(t, dir, 0)
			SaveCell(st, h, p, CellValue{})
			st.Flush()
			files := cellFiles(t, dir)
			if len(files) != 1 || filepath.Base(files[0]) != tc.file {
				t.Errorf("store files = %v, want [%s]", files, tc.file)
			}
		})
	}

	// An explicit "exact" mode is the default mode: same harness, same
	// store key, same file.
	plain, err := MergeEffort(nil, false, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := MergeEffort(&WireEffort{Mode: exp.EffortExact}, false, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plain != exact {
		t.Errorf(`"mode":"exact" merges to %+v, no mode to %+v`, exact, plain)
	}
	hp, he := NewHarnessCache(1).Get(plain), NewHarnessCache(1).Get(exact)
	if a, b := storeKeyBytes(newCellKey(hp.Options(), p)), storeKeyBytes(newCellKey(he.Options(), p)); string(a) != string(b) {
		t.Errorf(`"mode":"exact" store key %s, no mode %s`, b, a)
	}
	dir := t.TempDir()
	st := openStore(t, dir, 0)
	SaveCell(st, hp, p, CellValue{})
	SaveCell(st, he, p, CellValue{})
	st.Flush()
	if files := cellFiles(t, dir); len(files) != 1 {
		t.Errorf(`"mode":"exact" and no mode wrote %d store files, want 1: %v`, len(files), files)
	}
}

// TestHarnessCacheBounded: any request can name a fresh effort, so the
// harness cache keeps at most harnessCacheSize harnesses, evicting the
// least recently used. A harness rebuilt after eviction answers the same
// cell byte for byte.
func TestHarnessCacheBounded(t *testing.T) {
	p := exp.Point{Kind: core.IOMMU, PageSize: vm.Page4K, Model: "CNN-1", Batch: 1}
	cell := func(h *exp.Harness) []byte {
		t.Helper()
		perf, res, err := h.NormPerf(p.Model, p.Batch, p.MMU())
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(CellValue{Cycles: int64(res.Cycles), Translations: res.Translations,
			Perf: perf, Counters: res.Counters})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	c := NewHarnessCache(1)
	e0 := exp.Effort{RepeatCap: 1, TileCap: 1}
	first := c.Get(e0)
	want := cell(first)

	hot := exp.Effort{RepeatCap: 1, TileCap: 2}
	keep := c.Get(hot)
	for cap := 2; cap < 2+120; cap++ {
		c.Get(exp.Effort{RepeatCap: cap, TileCap: 1})
		if c.Get(hot) != keep {
			t.Fatalf("the most recently used harness was evicted after cap %d", cap)
		}
		if n := len(c.lru); n > harnessCacheSize {
			t.Fatalf("%d harnesses resident after cap %d, bound %d", n, cap, harnessCacheSize)
		}
	}
	again := c.Get(e0)
	if again == first {
		t.Fatal("120 newer efforts left the first harness resident")
	}
	if c.Get(e0) != again {
		t.Error("a harness just built was not kept")
	}
	if got := cell(again); string(got) != string(want) {
		t.Errorf("rebuilt harness answers differently:\n got  %s\n want %s", got, want)
	}

	// Request handlers share one cache: concurrent Gets over more efforts
	// than the bound keep it bounded and hand each caller its own effort.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cap := 1; cap <= 40; cap++ {
				e := exp.Effort{RepeatCap: cap, TileCap: 3 + g}
				if got := c.Get(e).Options().Effort; got.RepeatCap != cap || got.TileCap != 3+g {
					t.Errorf("Get(%+v) returned a harness for %+v", e, got)
				}
			}
		}()
	}
	wg.Wait()
	if n := len(c.lru); n > harnessCacheSize {
		t.Errorf("%d harnesses resident after concurrent Gets, bound %d", n, harnessCacheSize)
	}
}
