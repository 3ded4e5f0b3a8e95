package cluster

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"neummu/internal/serve"
	"neummu/internal/store"
)

// The coordinator's store is a store.Store in the worker's file format:
// every cell a worker answers is saved under its CellHash64, and every
// request answers the cells already stored without dispatching them.

// openStore opens a store on dir, closed (write-behind drained) at test
// end if the test has not closed it already.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

// deadFleet returns a worker URL nothing listens on.
func deadFleet() []string {
	dead := httptest.NewServer(nil)
	dead.Close()
	return []string{dead.URL}
}

// cellFiles lists a store directory's cell entry files, sorted.
func cellFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "cell-*.neu"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	return paths
}

// waitCellFiles polls until dir holds at least want cell files. Saves are
// write-behind, so a file lands shortly after its cell resolves.
func waitCellFiles(t *testing.T, dir string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(cellFiles(t, dir)) < want {
		if time.Now().After(deadline) {
			t.Fatalf("store %s never reached %d cell files", dir, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// cellLookups counts a worker's cell-cache lookups. A worker resolves
// every cell before streaming the first line but books cells served after
// the last, which the coordinator need not wait for, so lookups are the
// reliable "did this request reach the worker" signal.
func cellLookups(w *testWorker) int64 {
	st := w.srv.Metrics().CellCache
	return st.Hits + st.Joins + st.Misses
}

// TestStoreCompleteSweepServesWithDeadFleet is the restart promise end to
// end: after one sweep, a brand-new coordinator on the reopened store
// directory, whose only worker is gone, answers the same request
// byte-identically from the store alone.
func TestStoreCompleteSweepServesWithDeadFleet(t *testing.T) {
	ref := referenceBody(t, testSweep)
	dir := t.TempDir()
	st1 := openStore(t, dir)
	w := newWorker(t, nil)
	c1, ts1 := newCoordinator(t, Config{Workers: []string{w.ts.URL}, Store: st1})
	resp, body := post(t, ts1.URL, "/v1/sweep", testSweep)
	if resp.StatusCode != 200 || !bytes.Equal(body, ref) {
		t.Fatalf("stored sweep = %d, identical = %v", resp.StatusCode, bytes.Equal(body, ref))
	}
	if m := c1.Metrics(); !m.StoreEnabled || m.RequestsFromStore != 0 || m.CellsFromStore != 0 {
		t.Fatalf("first run metrics: %+v", m)
	}
	st1.Close()
	if n := len(cellFiles(t, dir)); n != 8 {
		t.Fatalf("store holds %d cell files after the sweep, want 8", n)
	}

	c2, ts2 := newCoordinator(t, Config{Workers: deadFleet(), Store: openStore(t, dir)})
	resp, body = post(t, ts2.URL, "/v1/sweep", testSweep)
	if resp.StatusCode != 200 {
		t.Fatalf("stored sweep over dead fleet = %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, ref) {
		t.Fatalf("store-served body differs from reference:\nref:  %s\ngot:  %s", ref, body)
	}
	if m := c2.Metrics(); m.CellsFromStore != 8 || m.RequestsFromStore != 1 {
		t.Fatalf("resume metrics: %+v", m)
	}
}

// TestStoreResumesPartialSweep restarts on a damaged store — some cell
// files deleted, one bit-flipped — with a live fleet: the intact cells
// are never re-dispatched, the corrupt one is quarantined and
// re-dispatched with the missing ones, and the body is byte-identical.
func TestStoreResumesPartialSweep(t *testing.T) {
	ref := referenceBody(t, testSweep)
	dir := t.TempDir()
	st1 := openStore(t, dir)
	w := newWorker(t, nil)
	_, ts1 := newCoordinator(t, Config{Workers: []string{w.ts.URL}, Store: st1})
	post(t, ts1.URL, "/v1/sweep", testSweep)
	st1.Close()

	files := cellFiles(t, dir)
	if len(files) != 8 {
		t.Fatalf("store holds %d cell files, want 8", len(files))
	}
	for _, p := range files[:4] {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(files[4])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x01
	if err := os.WriteFile(files[4], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	w2 := newWorker(t, nil)
	c2, ts2 := newCoordinator(t, Config{Workers: []string{w2.ts.URL}, Store: st2})
	resp, body := post(t, ts2.URL, "/v1/sweep", testSweep)
	if resp.StatusCode != 200 || !bytes.Equal(body, ref) {
		t.Fatalf("resumed sweep = %d, identical = %v\nref: %s\ngot: %s",
			resp.StatusCode, bytes.Equal(body, ref), ref, body)
	}
	if m := c2.Metrics(); m.CellsFromStore != 3 || m.RequestsFromStore != 1 {
		t.Fatalf("partial resume metrics: %+v", m)
	}
	if q := st2.Stats().Quarantined; q != 1 {
		t.Fatalf("quarantined %d entries, want the 1 bit-flipped one", q)
	}
	// The worker only simulated the five cells the store could not answer.
	if sim := w2.srv.Metrics().CellsSimulated; sim != 5 {
		t.Fatalf("restarted fleet simulated %d cells, want 5", sim)
	}
}

// TestStoreRepeatSweepDispatchesNothing re-posts an identical request to
// the same coordinator straight after the first completes: every cell was
// saved before its slot resolved, so the second pass is answered wholly
// from the store and the fleet sees no new cells at all.
func TestStoreRepeatSweepDispatchesNothing(t *testing.T) {
	w := newWorker(t, nil)
	c, ts := newCoordinator(t, Config{Workers: []string{w.ts.URL}, Store: openStore(t, t.TempDir())})
	_, first := post(t, ts.URL, "/v1/sweep", testSweep)
	before := cellLookups(w)

	_, second := post(t, ts.URL, "/v1/sweep", testSweep)
	if !bytes.Equal(first, second) {
		t.Fatalf("repeat sweep bytes differ:\nfirst:  %s\nsecond: %s", first, second)
	}
	if got := cellLookups(w); got != before {
		t.Fatalf("repeat sweep reached the worker: %d -> %d cell lookups", before, got)
	}
	if m := c.Metrics(); m.CellsFromStore != 8 || m.RequestsFromStore != 1 {
		t.Fatalf("repeat metrics: %+v", m)
	}
}

// TestStoreConcurrentIdenticalSweeps runs two copies of one sweep at once
// and then restarts onto a dead fleet: every cell either copy saved is in
// the store, so all of them are served. (A request-keyed file written by
// two sweeps at once lost half its cells.)
func TestStoreConcurrentIdenticalSweeps(t *testing.T) {
	ref := referenceBody(t, testSweep)
	dir := t.TempDir()
	st1 := openStore(t, dir)
	w := newWorker(t, nil)
	_, ts1 := newCoordinator(t, Config{Workers: []string{w.ts.URL}, Store: st1})
	var wg sync.WaitGroup
	bodies := make([][]byte, 2)
	errs := make([]error, 2)
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts1.URL+"/v1/sweep", "application/json", strings.NewReader(testSweep))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}()
	}
	wg.Wait()
	for i, b := range bodies {
		if errs[i] != nil {
			t.Fatalf("concurrent sweep %d: %v", i, errs[i])
		}
		if !bytes.Equal(b, ref) {
			t.Fatalf("concurrent sweep %d differs from reference:\nref: %s\ngot: %s", i, ref, b)
		}
	}
	st1.Close()

	c2, ts2 := newCoordinator(t, Config{Workers: deadFleet(), Store: openStore(t, dir)})
	resp, body := post(t, ts2.URL, "/v1/sweep", testSweep)
	if resp.StatusCode != 200 || !bytes.Equal(body, ref) {
		t.Fatalf("restart after concurrent sweeps = %d, identical = %v: %s",
			resp.StatusCode, bytes.Equal(body, ref), body)
	}
	if m := c2.Metrics(); m.CellsFromStore != 8 {
		t.Fatalf("restart served %d cells from the store, want 8", m.CellsFromStore)
	}
}

// TestStoreQuickRetryResumesEffortSweep: the store is keyed by cell, not
// by request bytes, so a retry spelled with the legacy "quick":true flag
// is answered from cells saved by a sweep spelled {"effort":{"mode":"quick"}}.
func TestStoreQuickRetryResumesEffortSweep(t *testing.T) {
	st := openStore(t, t.TempDir())
	w := newWorker(t, nil)
	_, ts1 := newCoordinator(t, Config{Workers: []string{w.ts.URL}, Store: st})
	effortSweep := `{"effort":{"mode":"quick"},"models":["CNN-1","RNN-1"],"batches":[1,4],"mmus":["neummu","iommu"]}`
	if resp, body := post(t, ts1.URL, "/v1/sweep", effortSweep); resp.StatusCode != 200 {
		t.Fatalf("effort-spelled sweep = %d: %s", resp.StatusCode, body)
	}

	c2, ts2 := newCoordinator(t, Config{Workers: deadFleet(), Store: st})
	resp, body := post(t, ts2.URL, "/v1/sweep", testSweep)
	if ref := referenceBody(t, testSweep); resp.StatusCode != 200 || !bytes.Equal(body, ref) {
		t.Fatalf("quick-spelled retry over dead fleet = %d, identical = %v: %s",
			resp.StatusCode, bytes.Equal(body, ref), body)
	}
	if m := c2.Metrics(); m.CellsFromStore != 8 {
		t.Fatalf("retry served %d cells from the store, want 8", m.CellsFromStore)
	}
}

// TestStoreSubsetSweepDispatchesNothing: overlapping sweeps share
// progress. A {CNN-1} sweep after a {CNN-1,RNN-1} sweep is answered from
// the store with zero healthy workers.
func TestStoreSubsetSweepDispatchesNothing(t *testing.T) {
	st := openStore(t, t.TempDir())
	w := newWorker(t, nil)
	_, ts1 := newCoordinator(t, Config{Workers: []string{w.ts.URL}, Store: st})
	post(t, ts1.URL, "/v1/sweep", testSweep)

	subset := `{"quick":true,"models":["CNN-1"],"batches":[1,4],"mmus":["neummu","iommu"]}`
	c2, ts2 := newCoordinator(t, Config{Workers: deadFleet(), Store: st})
	resp, body := post(t, ts2.URL, "/v1/sweep", subset)
	if ref := referenceBody(t, subset); resp.StatusCode != 200 || !bytes.Equal(body, ref) {
		t.Fatalf("subset sweep over dead fleet = %d, identical = %v: %s",
			resp.StatusCode, bytes.Equal(body, ref), body)
	}
	if m := c2.Metrics(); m.CellsFromStore != 4 || m.RequestsFromStore != 1 {
		t.Fatalf("subset metrics: %+v", m)
	}
}

// TestStoreEntryMatchesWorkerEntry: one durable format. The coordinator's
// entry file for a cell is byte-identical to the entry file the worker
// that simulated it wrote.
func TestStoreEntryMatchesWorkerEntry(t *testing.T) {
	workerDir, coordDir := t.TempDir(), t.TempDir()
	wst, cst := openStore(t, workerDir), openStore(t, coordDir)
	s := serve.New(serve.Config{Workers: 2, Store: wst})
	wts := httptest.NewServer(s)
	t.Cleanup(func() { wts.Close(); s.Close() })
	_, ts := newCoordinator(t, Config{Workers: []string{wts.URL}, Store: cst})
	if resp, body := post(t, ts.URL, "/v1/sweep", testSweep); resp.StatusCode != 200 {
		t.Fatalf("sweep = %d: %s", resp.StatusCode, body)
	}
	wst.Close()
	cst.Close()

	coordFiles := cellFiles(t, coordDir)
	if len(coordFiles) != 8 {
		t.Fatalf("coordinator store holds %d cell files, want 8", len(coordFiles))
	}
	for _, cp := range coordFiles {
		want, err := os.ReadFile(filepath.Join(workerDir, filepath.Base(cp)))
		if err != nil {
			t.Fatalf("worker has no entry for %s: %v", filepath.Base(cp), err)
		}
		got, err := os.ReadFile(cp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s differs:\nworker:      %q\ncoordinator: %q", filepath.Base(cp), want, got)
		}
	}
}
