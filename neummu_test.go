package neummu

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestSimulateDense(t *testing.T) {
	res, err := Simulate("CNN-1", 1, ThroughputNeuMMU, Options{Effort: Effort{TileCap: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.Translations <= 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestSimulateOracleNormalization(t *testing.T) {
	opts := Options{Effort: Effort{TileCap: 4}}
	oracle, err := Simulate("RNN-2", 1, OracleMMU, opts)
	if err != nil {
		t.Fatal(err)
	}
	io, err := Simulate("RNN-2", 1, BaselineIOMMU, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p := io.NormalizedPerf(oracle); p <= 0 || p >= 1 {
		t.Fatalf("baseline normalized perf = %v", p)
	}
}

func TestSimulateUnknownModel(t *testing.T) {
	if _, err := Simulate("VGG", 1, OracleMMU, Options{}); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestSimulateSpatialOption(t *testing.T) {
	res, err := Simulate("CNN-1", 1, ThroughputNeuMMU, Options{Effort: Effort{TileCap: 2}, SpatialNPU: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Compute == "systolic-128x128" {
		t.Fatal("spatial option ignored")
	}
}

func TestSimulateLargePages(t *testing.T) {
	res, err := Simulate("CNN-1", 1, ThroughputNeuMMU, Options{Effort: Effort{TileCap: 2}, PageSize: Page2M})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles")
	}
}

func TestSimulateSparseModes(t *testing.T) {
	base, err := SimulateSparse("NCF", 4, GatherBaselineCopy, OracleMMU, Page4K)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := SimulateSparse("NCF", 4, GatherNUMAFast, ThroughputNeuMMU, Page4K)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Breakdown.Total() >= base.Breakdown.Total() {
		t.Fatalf("NUMA(fast) %d not faster than baseline %d",
			fast.Breakdown.Total(), base.Breakdown.Total())
	}
}

func TestModelLists(t *testing.T) {
	if len(DenseModels()) != 6 || len(SparseModels()) != 2 {
		t.Fatal("model lists wrong")
	}
	for _, m := range DenseModels() {
		if _, err := Simulate(m, 1, OracleMMU, Options{Effort: Effort{RepeatCap: 1, TileCap: 1}}); err != nil {
			t.Fatalf("Simulate(%q): %v", m, err)
		}
	}
}

func TestNewHarnessQuick(t *testing.T) {
	h := NewHarness(HarnessOptions{Effort: Effort{Mode: EffortQuick}})
	rows, err := h.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestSweepFacade(t *testing.T) {
	rows, err := Sweep(SweepAxes{
		Kinds:     []MMUKind{CustomMMU},
		Models:    []string{"CNN-1"},
		Batches:   []int{1},
		PTWs:      []int{8, 128},
		PRMBSlots: []int{32},
		Paths:     []PathKind{PathTPreg},
	}, HarnessOptions{Effort: Effort{RepeatCap: 1, TileCap: 4}, Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("swept %d points, want 2", len(rows))
	}
	if rows[0].Point.PTWs != 8 || rows[1].Point.PTWs != 128 {
		t.Fatalf("rows out of grid order: %+v", rows)
	}
	// More walkers must not hurt: the PTW axis is monotone here.
	if rows[1].Perf < rows[0].Perf {
		t.Fatalf("128 PTWs (%v) slower than 8 (%v)", rows[1].Perf, rows[0].Perf)
	}
	for _, r := range rows {
		if r.Result == nil || r.Result.Cycles <= 0 {
			t.Fatalf("missing simulation result: %+v", r)
		}
	}
}

func TestServerFacade(t *testing.T) {
	s := NewServer(ServerConfig{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	req := `{"quick":true,"models":["CNN-1"],"batches":[4],"mmus":["neummu"]}`
	var bodies [2][]byte
	for i := range bodies {
		resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json",
			strings.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("sweep = %d: %s", resp.StatusCode, buf.Bytes())
		}
		bodies[i] = buf.Bytes()
	}
	// The service determinism guarantee, exercised through the facade:
	// cold (miss) and warm (hit) bodies are byte-identical.
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Error("cold and warm sweep bodies differ")
	}
}
