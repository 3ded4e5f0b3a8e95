package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"neummu/internal/serve"
)

// parseSweep decodes the JSON test sweep into the request struct the
// coordinator journals under — the same canonical form SweepHash64 sees.
func parseSweep(t *testing.T, body string) serve.SweepRequest {
	t.Helper()
	var req serve.SweepRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	return req
}

// journalLines reads a journal file's raw lines (no validation).
func journalLines(t *testing.T, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Split(bytes.TrimSuffix(data, []byte{'\n'}), []byte{'\n'})
}

// waitJournalLines polls until the journal holds want lines (header
// included). Appends happen on dispatch goroutines and may land just
// after the client has read the sweep's last byte, so tests that restart
// "after the sweep" wait for the checkpoint to settle first.
func waitJournalLines(t *testing.T, path string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if data, err := os.ReadFile(path); err == nil {
			if bytes.Count(data, []byte{'\n'}) >= want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal %s never reached %d lines", path, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestJournalLineRoundTrip(t *testing.T) {
	cl := serve.CellLine{I: 3, Cycles: 123, Translations: 45, Perf: 0.875}
	line := encodeJournalLine(cl)
	payload, ok := decodeJournalLine(bytes.TrimSuffix(line, []byte{'\n'}))
	if !ok {
		t.Fatal("round trip rejected a fresh line")
	}
	var got serve.CellLine
	if err := json.Unmarshal(payload, &got); err != nil {
		t.Fatal(err)
	}
	if got.I != 3 || got.Cycles != 123 || got.Perf != 0.875 {
		t.Fatalf("round trip mangled the record: %+v", got)
	}
	for name, bad := range map[string][]byte{
		"empty":        {},
		"no-space":     []byte("0123456789abcdef"),
		"bad-hex":      []byte("zzzzzzzz {}"),
		"bit-flip":     bytes.Replace(line, []byte("123"), []byte("124"), 1),
		"crc-mismatch": append([]byte("00000000 "), []byte(`{"i":0}`)...),
		"truncated":    line[:len(line)/2],
	} {
		if _, ok := decodeJournalLine(bytes.TrimSuffix(bad, []byte{'\n'})); ok {
			t.Errorf("%s: corrupt line accepted", name)
		}
	}
}

// TestSweepJournalCompleteServesWithDeadFleet is the checkpoint promise
// end to end: after one journaled sweep, a brand-new coordinator whose
// only worker is gone answers the same request byte-identically, from the
// journal alone.
func TestSweepJournalCompleteServesWithDeadFleet(t *testing.T) {
	ref := referenceBody(t, testSweep)
	dir := t.TempDir()
	w := newWorker(t, nil)
	c1, ts1 := newCoordinator(t, Config{Workers: []string{w.ts.URL}, JournalDir: dir})
	resp, body := post(t, ts1.URL, "/v1/sweep", testSweep)
	if resp.StatusCode != 200 || !bytes.Equal(body, ref) {
		t.Fatalf("journaled sweep = %d, identical = %v", resp.StatusCode, bytes.Equal(body, ref))
	}
	if m := c1.Metrics(); !m.JournalEnabled || m.SweepsResumed != 0 {
		t.Fatalf("first run metrics: %+v", m)
	}
	path := journalPath(dir, SweepHash64(parseSweep(t, testSweep)))
	waitJournalLines(t, path, 9) // header + 8 cells

	// "Restart" onto a dead fleet: a worker URL nothing listens on.
	dead := httptest.NewServer(nil)
	dead.Close()
	c2, ts2 := newCoordinator(t, Config{Workers: []string{dead.URL}, JournalDir: dir})
	resp, body = post(t, ts2.URL, "/v1/sweep", testSweep)
	if resp.StatusCode != 200 {
		t.Fatalf("journal-complete sweep over dead fleet = %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, ref) {
		t.Fatalf("journal-served body differs from reference:\nref:  %s\ngot:  %s", ref, body)
	}
	m := c2.Metrics()
	if m.CellsFromJournal != 8 || m.SweepsResumed != 1 {
		t.Fatalf("resume metrics: %+v", m)
	}
}

// TestSweepResumesFromPartialJournal truncates the journal to a prefix —
// what a coordinator killed mid-sweep leaves behind — and restarts with a
// live fleet: journaled cells are never re-dispatched, the rest are, and
// the body is byte-identical.
func TestSweepResumesFromPartialJournal(t *testing.T) {
	ref := referenceBody(t, testSweep)
	dir := t.TempDir()
	w := newWorker(t, nil)
	_, ts1 := newCoordinator(t, Config{Workers: []string{w.ts.URL}, JournalDir: dir})
	post(t, ts1.URL, "/v1/sweep", testSweep)
	path := journalPath(dir, SweepHash64(parseSweep(t, testSweep)))
	waitJournalLines(t, path, 9)

	// Keep the header and the first three checkpointed cells, plus a torn
	// half-line at the tail (the SIGKILL signature).
	lines := journalLines(t, path)
	var keep []byte
	for _, l := range lines[:4] {
		keep = append(keep, l...)
		keep = append(keep, '\n')
	}
	keep = append(keep, lines[4][:len(lines[4])/2]...)
	if err := os.WriteFile(path, keep, 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := newWorker(t, nil)
	c2, ts2 := newCoordinator(t, Config{Workers: []string{w2.ts.URL}, JournalDir: dir})
	resp, body := post(t, ts2.URL, "/v1/sweep", testSweep)
	if resp.StatusCode != 200 || !bytes.Equal(body, ref) {
		t.Fatalf("resumed sweep = %d, identical = %v\nref: %s\ngot: %s",
			resp.StatusCode, bytes.Equal(body, ref), ref, body)
	}
	m := c2.Metrics()
	if m.CellsFromJournal != 3 || m.SweepsResumed != 1 {
		t.Fatalf("partial resume metrics: %+v", m)
	}
	// The worker only simulated the five cells the journal was missing.
	if sim := w2.srv.Metrics().CellsSimulated; sim != 5 {
		t.Fatalf("restarted fleet simulated %d cells, want 5", sim)
	}
}

// TestJournalHeaderMismatchStartsFresh plants a journal whose header does
// not describe this request (the hash-collision / schema-drift case): it
// must be ignored and rewritten, never treated as progress.
func TestJournalHeaderMismatchStartsFresh(t *testing.T) {
	ref := referenceBody(t, testSweep)
	dir := t.TempDir()
	path := journalPath(dir, SweepHash64(parseSweep(t, testSweep)))
	bogus := encodeJournalLine(journalHeader{Magic: journalMagic, Sweep: "feedface", Cells: 2})
	bogus = append(bogus, encodeJournalLine(serve.CellLine{I: 0, Cycles: 1})...)
	if err := os.WriteFile(path, bogus, 0o644); err != nil {
		t.Fatal(err)
	}

	w := newWorker(t, nil)
	c, ts := newCoordinator(t, Config{Workers: []string{w.ts.URL}, JournalDir: dir})
	resp, body := post(t, ts.URL, "/v1/sweep", testSweep)
	if resp.StatusCode != 200 || !bytes.Equal(body, ref) {
		t.Fatalf("sweep over foreign journal = %d, identical = %v", resp.StatusCode, bytes.Equal(body, ref))
	}
	if m := c.Metrics(); m.CellsFromJournal != 0 || m.SweepsResumed != 0 {
		t.Fatalf("foreign journal counted as progress: %+v", m)
	}
	waitJournalLines(t, path, 9) // rewritten with the real header + cells
}

// TestJournalGCBoundsFileCount fills the directory past JournalKeep and
// checks old journals are evicted, newest and live retained.
func TestJournalGCBoundsFileCount(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 10; i++ {
		p := journalPath(dir, uint64(i))
		if err := os.WriteFile(p, []byte("x\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		old := time.Now().Add(-time.Duration(10-i) * time.Hour)
		os.Chtimes(p, old, old)
	}
	jr, done, err := openJournal(dir, 4, parseSweep(t, testSweep), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.close()
	if len(done) != 0 {
		t.Fatalf("fresh journal reported %d done cells", len(done))
	}
	paths, err := filepath.Glob(filepath.Join(dir, "sweep-*.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) > 5 { // keep + the live file
		t.Fatalf("GC left %d journals, want <= 5: %v", len(paths), paths)
	}
	live := journalPath(dir, SweepHash64(parseSweep(t, testSweep)))
	found := false
	for _, p := range paths {
		if p == live {
			found = true
		}
	}
	if !found {
		t.Fatal("GC deleted the live journal")
	}
}

// TestJournalRepeatSweepDispatchesNothing re-posts an identical request
// to the same coordinator: the second pass is answered wholly from the
// journal, so the fleet sees no new cells at all.
func TestJournalRepeatSweepDispatchesNothing(t *testing.T) {
	dir := t.TempDir()
	w := newWorker(t, nil)
	c, ts := newCoordinator(t, Config{Workers: []string{w.ts.URL}, JournalDir: dir})
	_, first := post(t, ts.URL, "/v1/sweep", testSweep)
	waitJournalLines(t, journalPath(dir, SweepHash64(parseSweep(t, testSweep))), 9)
	// Count the worker's cache lookups, not its cells served: a worker
	// resolves every cell before streaming the first line, but books cells
	// served after the last, which the coordinator need not wait for.
	lookups := func() int64 {
		st := w.srv.Metrics().CellCache
		return st.Hits + st.Joins + st.Misses
	}
	before := lookups()

	_, second := post(t, ts.URL, "/v1/sweep", testSweep)
	if !bytes.Equal(first, second) {
		t.Fatalf("repeat sweep bytes differ:\nfirst:  %s\nsecond: %s", first, second)
	}
	if got := lookups(); got != before {
		t.Fatalf("repeat sweep reached the worker: %d -> %d cell lookups", before, got)
	}
	if m := c.Metrics(); m.CellsFromJournal != 8 || m.SweepsResumed != 1 {
		t.Fatalf("repeat metrics: %+v", m)
	}
}

// TestSweepHashStable pins the request hash across spellings that decode
// identically — the retry contract — and apart for different requests.
func TestSweepHashStable(t *testing.T) {
	a := SweepHash64(parseSweep(t, testSweep))
	b := SweepHash64(parseSweep(t, `{"mmus":["neummu","iommu"],"quick":true,"batches":[1,4],"models":["CNN-1","RNN-1"]}`))
	if a != b {
		t.Fatalf("field order changed the hash: %016x vs %016x", a, b)
	}
	c := SweepHash64(parseSweep(t, `{"quick":true,"models":["CNN-1"],"batches":[1,4],"mmus":["neummu","iommu"]}`))
	if a == c {
		t.Fatal("different requests hashed together")
	}
	if got := fmt.Sprintf("%016x", a); len(got) != 16 {
		t.Fatalf("hash formats to %q", got)
	}
}
