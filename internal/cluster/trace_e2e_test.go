package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"neummu/internal/exp"
	"neummu/internal/serve"
	"neummu/internal/trace"
)

// End-to-end trace propagation over real processes and real sockets: a
// client-supplied X-Trace-Id must ride the coordinator's /v1/cells
// dispatches so that every worker's own /debug/traces holds spans for
// exactly the cells it served under that ID — including cells that moved
// between workers after a mid-stream SIGKILL.

// parseSweep decodes a JSON test sweep into its request struct.
func parseSweep(t *testing.T, body string) serve.SweepRequest {
	t.Helper()
	var req serve.SweepRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	return req
}

// fetchTrace reads one process's /debug/traces/{id}.
func fetchTrace(t *testing.T, baseURL, id string) trace.Trace {
	t.Helper()
	resp, err := http.Get(baseURL + "/debug/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr trace.Trace
	if err := jsonDecode(resp.Body, &tr); err != nil {
		t.Fatalf("decoding %s/debug/traces/%s: %v", baseURL, id, err)
	}
	return tr
}

// cellSpansByWorker indexes a coordinator trace: cell-span count per
// worker URL.
func cellSpansByWorker(tr trace.Trace) map[string]int {
	counts := map[string]int{}
	for _, sp := range tr.Spans {
		if sp.Kind == "cell" {
			counts[sp.Worker]++
		}
	}
	return counts
}

func TestTracePropagationAcrossProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes; skipped in -short")
	}
	ref := referenceBody(t, crashSweep)
	const refCells = 24 // crashSweep's grid: 2 models x 4 batches x 3 mmus

	// Phase 2 needs cells the fleet has never simulated — disjoint from
	// crashSweep on the batch axis — so the victim's shard is still
	// computing (not answering from cache) when the kill lands.
	const freshSweep = `{"quick":true,"models":["CNN-1","RNN-1"],"batches":[3,6,12],"mmus":["neummu","iommu","oracle"]}`
	const freshCells = 18
	freshRef := referenceBody(t, freshSweep)

	bin := buildNeuserve(t)
	workers := make([]*neuproc, 3)
	peerURLs := make([]string, 3)
	for i := range workers {
		workers[i] = startNeuserve(t, bin, freeAddr(t), "-workers", "2")
		peerURLs[i] = workers[i].url()
	}
	// A long health interval keeps the re-route in phase 2 deterministic:
	// the coordinator discovers the killed worker through the failed
	// dispatch itself, never through a background probe racing the sweep.
	coord := startNeuserve(t, bin, freeAddr(t), "-role", "coordinator",
		"-peers", strings.Join(peerURLs, ","), "-health-interval", "30s")

	// --- Phase 1: healthy fleet. Every worker's local trace ring must
	// hold spans for exactly its shard's cells under the injected ID.
	const id1 = "e2e-trace-phase1"
	resp, body := postWithTrace(t, coord.url(), "/v1/sweep", crashSweep, id1)
	if resp.StatusCode != 200 {
		t.Fatalf("sweep = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(trace.Header); got != id1 {
		t.Errorf("response %s = %q, want %q", trace.Header, got, id1)
	}
	if !bytes.Equal(body, ref) {
		t.Fatal("cluster sweep body differs from single-process reference")
	}

	coordTr := fetchTrace(t, coord.url(), id1)
	split := cellSpansByWorker(coordTr)
	total := 0
	for url, n := range split {
		total += n
		if url == "" {
			t.Errorf("%d cell spans missing worker attribution", n)
		}
	}
	if total != refCells {
		t.Fatalf("coordinator recorded %d cell spans, want %d", total, refCells)
	}

	workerCells := 0
	for _, w := range workers {
		// The coordinator stops reading a worker's stream at its last cell
		// line, and the worker records its request span only after writing
		// that line, so the span may land just after the sweep returns.
		var cells, requests int
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			cells, requests = 0, 0
			for _, sp := range fetchTrace(t, w.url(), id1).Spans {
				switch sp.Kind {
				case "cell":
					cells++
				case "request":
					requests++
				}
			}
			if cells == 0 || requests > 0 || time.Now().After(deadline) {
				break
			}
		}
		if cells != split[w.url()] {
			t.Errorf("worker %s holds %d cell spans under %s, coordinator dispatched %d",
				w.url(), cells, id1, split[w.url()])
		}
		if cells > 0 && requests == 0 {
			t.Errorf("worker %s served cells but recorded no /v1/cells request span", w.url())
		}
		workerCells += cells
	}
	if workerCells != refCells {
		t.Fatalf("worker-side spans total %d, want %d", workerCells, refCells)
	}

	// --- Phase 2: SIGKILL the majority owner of the fresh grid
	// mid-stream. The trace must still account for all cells, with
	// re-routed cells carrying extra attempts and landing in a surviving
	// worker's trace ring. The victim is computed with the coordinator's
	// own expansion, hash, and ring, so it is guaranteed to own the
	// largest still-cold shard when the kill lands.
	h := exp.New(exp.Options{Effort: exp.Effort{Mode: exp.EffortQuick}, Workers: 1})
	points, err := serve.ExpandSweep(h, parseSweep(t, freshSweep), 4096)
	if err != nil {
		t.Fatal(err)
	}
	ring := newRing(peerURLs, 64)
	freshSplit := map[string]int{}
	for _, p := range points {
		freshSplit[ring.owner(serve.CellHash64(p, h.Options().Effort), nil)]++
	}
	victim := workers[0]
	for _, w := range workers[1:] {
		if freshSplit[w.url()] > freshSplit[victim.url()] {
			victim = w
		}
	}

	const id2 = "e2e-trace-phase2"
	req, err := http.NewRequest("POST", coord.url()+"/v1/sweep", strings.NewReader(freshSweep))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.Header, id2)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("phase-2 sweep = %d", resp2.StatusCode)
	}
	br := bufio.NewReader(resp2.Body)
	var streamed bytes.Buffer
	for i := 0; i < 2; i++ {
		row, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("reading streamed row %d: %v", i, err)
		}
		streamed.Write(row)
	}
	victim.kill()
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	streamed.Write(rest)
	if !bytes.Equal(streamed.Bytes(), freshRef) {
		t.Fatal("re-routed sweep body differs from single-process reference")
	}

	coordTr2 := fetchTrace(t, coord.url(), id2)
	var adopted, cells2 int
	for _, sp := range coordTr2.Spans {
		if sp.Kind != "cell" {
			continue
		}
		cells2++
		if sp.Err != "" {
			t.Errorf("cell %s ended in error %q despite re-route budget", sp.Name, sp.Err)
		}
		if sp.Attempts > 1 {
			adopted++
			if sp.Worker == victim.url() {
				t.Errorf("re-routed cell %s still attributed to killed worker", sp.Name)
			}
		}
	}
	if cells2 != freshCells {
		t.Fatalf("phase-2 coordinator spans = %d cells, want %d", cells2, freshCells)
	}
	if adopted == 0 {
		t.Fatal("no cell spans with attempts > 1 after mid-stream kill")
	}

	// Surviving workers' rings hold spans for every cell the coordinator
	// attributed to them — original shard plus adoptions.
	split2 := cellSpansByWorker(coordTr2)
	for _, w := range workers {
		if w == victim {
			continue
		}
		var cells int
		for _, sp := range fetchTrace(t, w.url(), id2).Spans {
			if sp.Kind == "cell" {
				cells++
			}
		}
		if cells != split2[w.url()] {
			t.Errorf("worker %s holds %d cell spans under %s, coordinator attributed %d",
				w.url(), cells, id2, split2[w.url()])
		}
	}

	// Both sides of the move are counted: the victim's rerouted cells
	// equal the survivors' adoptions equal the extra-attempt spans.
	mresp, err := http.Get(coord.url() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m Metrics
	if err := jsonDecode(mresp.Body, &m); err != nil {
		t.Fatal(err)
	}
	var reroutedFromVictim, adoptedBySurvivors int64
	for _, wm := range m.Workers {
		if wm.URL == victim.url() {
			reroutedFromVictim = wm.CellsRerouted
			if wm.CellsAdopted != 0 {
				t.Errorf("killed worker adopted %d cells", wm.CellsAdopted)
			}
		} else {
			adoptedBySurvivors += wm.CellsAdopted
		}
	}
	if reroutedFromVictim != int64(adopted) || adoptedBySurvivors != int64(adopted) {
		t.Errorf("re-route attribution: %d spans with extra attempts, victim rerouted %d, survivors adopted %d",
			adopted, reroutedFromVictim, adoptedBySurvivors)
	}
}
