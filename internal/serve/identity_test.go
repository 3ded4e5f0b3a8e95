package serve

import (
	"encoding/json"
	"path/filepath"
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
			name:  "sampled",
			we:    &WireEffort{Mode: exp.EffortSampled, TargetCI: 0.05},
			file:  "cell-36d9081bd4b7ec79.neu",
			key:   `{"point":` + wire + `,"repeat_cap":3,"tile_cap":0,"sampled":true,"target_ci":0.05,"epoched":true}`,
			cells: `{"points":[` + wire + `],"repeat_cap":3,"effort":{"mode":"sampled","target_ci":0.05}}`,
		},
		{
			name:  "epoched exact",
			we:    &WireEffort{IntraCellWorkers: 1},
			file:  "cell-2213f63ebcc0c783.neu",
			key:   `{"point":` + wire + `,"repeat_cap":3,"tile_cap":0,"epoched":true}`,
			cells: `{"points":[` + wire + `],"repeat_cap":3,"effort":{"intra_cell_workers":1}}`,
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
