package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"neummu/internal/store"
)

// Serve-level disk-tier tests: the store behind the cell cache must make
// a restarted process disk-warm (no re-simulation, byte-identical
// bodies), and every disk failure mode — corruption, eviction — must
// degrade to "simulate again", never to wrong bytes or missing counters.

// openStore opens a store the test owns; Close runs at cleanup, after
// any server using it has closed (cleanups run LIFO).
func openStore(t *testing.T, dir string, maxBytes int64) *store.Store {
	t.Helper()
	st, err := store.Open(store.Config{Dir: dir, MaxBytes: maxBytes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// sweepRows decodes a sweep body's NDJSON cell rows (excluding the
// summary line), failing on any malformed line.
func sweepRows(t *testing.T, body []byte) []CellRow {
	t.Helper()
	var rows []CellRow
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if strings.Contains(line, `"summary"`) {
			continue
		}
		var r CellRow
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad sweep row %q: %v", line, err)
		}
		rows = append(rows, r)
	}
	return rows
}

// cellFiles lists the store directory's durable cell files.
func cellFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "cell-*.neu"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestDiskTierWarmRestart is the tentpole property end to end: a process
// restart (new Server, new RAM cache, same store directory) answers the
// same sweep byte-identically without executing a single simulation.
func TestDiskTierWarmRestart(t *testing.T) {
	dir := t.TempDir()

	st1 := openStore(t, dir, 0)
	s1, ts1 := newTestServer(t, Config{Workers: 2, Store: st1})
	resp, cold := post(t, ts1, "/v1/sweep", quickSweep)
	if resp.StatusCode != 200 {
		t.Fatalf("cold sweep = %d", resp.StatusCode)
	}
	m := s1.Metrics()
	if m.CellsSimulated == 0 {
		t.Fatal("cold sweep simulated nothing")
	}
	if !m.DiskTierEnabled || m.DiskTier.Misses != m.CellsSimulated {
		t.Fatalf("cold sweep disk stats: %+v (simulated %d)", m.DiskTier, m.CellsSimulated)
	}
	cells := m.CellsSimulated
	ts1.Close()
	s1.Close() // drains the write-behind queue
	st1.Close()
	if got := len(cellFiles(t, dir)); int64(got) != cells {
		t.Fatalf("%d cell files after drain, want %d", got, cells)
	}

	// "Restart": everything RAM is fresh; only the directory persists.
	st2 := openStore(t, dir, 0)
	s2, ts2 := newTestServer(t, Config{Workers: 2, Store: st2})
	resp, warm := post(t, ts2, "/v1/sweep", quickSweep)
	if resp.StatusCode != 200 {
		t.Fatalf("warm sweep = %d", resp.StatusCode)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("disk-warm body differs from cold body:\ncold: %s\nwarm: %s", cold, warm)
	}
	m = s2.Metrics()
	if m.CellsSimulated != 0 {
		t.Fatalf("disk-warm sweep re-simulated %d cells", m.CellsSimulated)
	}
	if m.DiskTier.Hits != cells {
		t.Fatalf("disk hits = %d, want %d: %+v", m.DiskTier.Hits, cells, m.DiskTier)
	}
}

// TestDiskTierCorruptCellResimulated flips a byte in one durable cell and
// restarts: the corrupt cell is quarantined and re-simulated (with its
// counter bundle intact and lawful), the others serve from disk, and the
// body is still byte-identical.
func TestDiskTierCorruptCellResimulated(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir, 0)
	s1, ts1 := newTestServer(t, Config{Workers: 2, Store: st1})
	_, cold := post(t, ts1, "/v1/sweep", quickSweep)
	cells := s1.Metrics().CellsSimulated
	ts1.Close()
	s1.Close()
	st1.Close()

	files := cellFiles(t, dir)
	if int64(len(files)) != cells {
		t.Fatalf("%d cell files, want %d", len(files), cells)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x40 // flip a payload bit; the checksum must catch it
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir, 0)
	s2, ts2 := newTestServer(t, Config{Workers: 2, Store: st2})
	resp, warm := post(t, ts2, "/v1/sweep", quickSweep)
	if resp.StatusCode != 200 {
		t.Fatalf("sweep over corrupt store = %d", resp.StatusCode)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("body changed after corruption recovery:\ncold: %s\nwarm: %s", cold, warm)
	}
	m := s2.Metrics()
	if m.CellsSimulated != 1 {
		t.Fatalf("re-simulated %d cells, want exactly the corrupt one", m.CellsSimulated)
	}
	if m.DiskTier.Quarantined != 1 || m.DiskTier.Hits != cells-1 {
		t.Fatalf("disk stats after corruption: %+v", m.DiskTier)
	}
	// The quarantined file is kept as evidence, never served.
	q, err := filepath.Glob(filepath.Join(dir, "*.quarantine"))
	if err != nil || len(q) != 1 {
		t.Fatalf("quarantine files = %v (err %v), want exactly one", q, err)
	}
	// The re-simulated cell's audited bundle must satisfy the conservation
	// laws — corruption recovery produces a first-class result, not a
	// placeholder.
	for _, r := range sweepRows(t, warm) {
		if v := r.Counters.Violations(); len(v) != 0 {
			t.Fatalf("row %s/%s violates counter laws after recovery: %v", r.Model, r.MMU, v)
		}
	}
}

// TestDiskTierStaleValueIsMiss: a checksum-valid entry whose value bytes
// are not a current CellValue (here an older schema without counters) is
// booked as a miss, not a hit; the cell is simulated and its write-behind
// Put overwrites the entry with the current value.
func TestDiskTierStaleValueIsMiss(t *testing.T) {
	const one = `{"quick":true,"models":["CNN-1"],"batches":[4],"mmus":["iommu"]}`
	dir := t.TempDir()
	st1 := openStore(t, dir, 0)
	s1, ts1 := newTestServer(t, Config{Workers: 1, Store: st1})
	_, cold := post(t, ts1, "/v1/sweep", one)
	ts1.Close()
	s1.Close()
	st1.Close()

	files := cellFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("%d cell files, want 1", len(files))
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := store.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	stale := store.Encode(store.Entry{Key: fresh.Key, Value: []byte(`{"cycles":1,"translations":1,"perf":0.5}`)})
	if err := os.WriteFile(files[0], stale, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir, 0)
	s2, ts2 := newTestServer(t, Config{Workers: 1, Store: st2})
	if _, warm := post(t, ts2, "/v1/sweep", one); !bytes.Equal(cold, warm) {
		t.Fatalf("body over a stale entry differs:\ncold: %s\nwarm: %s", cold, warm)
	}
	m := s2.Metrics()
	if m.CellsSimulated != 1 || m.DiskTier.Hits != 0 || m.DiskTier.Misses != 1 || m.DiskTier.Quarantined != 0 {
		t.Fatalf("simulated %d, disk stats %+v: want the stale entry booked as one miss", m.CellsSimulated, m.DiskTier)
	}
	st2.Flush()
	if got, err := os.ReadFile(files[0]); err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("stale entry not overwritten with the current value (err %v):\n%s", err, got)
	}
}

// TestDiskTierEvictedCellFallsThrough reopens a warm store under a budget
// too small for the full grid: evicted cells fall through to simulation,
// surviving cells serve from disk, and the merged body — counters and all
// — is byte-identical to the cold run.
func TestDiskTierEvictedCellFallsThrough(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir, 0)
	s1, ts1 := newTestServer(t, Config{Workers: 2, Store: st1})
	_, cold := post(t, ts1, "/v1/sweep", quickSweep)
	cells := s1.Metrics().CellsSimulated
	ts1.Close()
	s1.Close()
	st1.Close()

	// Size the reopen budget to hold roughly half the grid.
	var total int64
	for _, f := range cellFiles(t, dir) {
		info, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	st2 := openStore(t, dir, total/2)
	if st2.Stats().Evictions == 0 {
		t.Fatal("reopen under a half-size budget evicted nothing")
	}
	s2, ts2 := newTestServer(t, Config{Workers: 2, Store: st2})
	resp, warm := post(t, ts2, "/v1/sweep", quickSweep)
	if resp.StatusCode != 200 {
		t.Fatalf("sweep over shrunken store = %d", resp.StatusCode)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("body changed after eviction fallthrough:\ncold: %s\nwarm: %s", cold, warm)
	}
	m := s2.Metrics()
	// At least one cell was evicted, so at least one fell through to a
	// real simulation; every disk hit saved exactly one. (The precise
	// hit/miss split is timing-dependent — concurrent re-puts can evict
	// survivors before their own gets — so only the accounting identity
	// is asserted, not the mix.)
	if m.CellsSimulated == 0 {
		t.Fatalf("nothing fell through to simulation despite evictions: %+v", m.DiskTier)
	}
	if m.CellsSimulated != cells-m.DiskTier.Hits {
		t.Fatalf("simulated %d, want %d (cells minus disk hits): %+v",
			m.CellsSimulated, cells-m.DiskTier.Hits, m.DiskTier)
	}
	for _, r := range sweepRows(t, warm) {
		if v := r.Counters.Violations(); len(v) != 0 {
			t.Fatalf("row %s/%s violates counter laws after fallthrough: %v", r.Model, r.MMU, v)
		}
	}
}

// TestMetricsDiskTierShape pins the /metrics wire shape: the disk-tier
// block is present and truthful with a store, and explicitly disabled
// without one.
func TestMetricsDiskTierShape(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, body := get(t, ts, "/metrics")
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.DiskTierEnabled || m.DiskTier.MaxBytes != 0 {
		t.Fatalf("RAM-only server advertises a disk tier: %+v", m.DiskTier)
	}

	st := openStore(t, t.TempDir(), 1<<20)
	s2, ts2 := newTestServer(t, Config{Workers: 1, Store: st})
	post(t, ts2, "/v1/sim", `{"quick":true,"models":["CNN-1"],"batches":[4],"mmus":["neummu"]}`)
	_, body = get(t, ts2, "/metrics")
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if !m.DiskTierEnabled || m.DiskTier.MaxBytes != 1<<20 || m.DiskTier.Misses != 1 {
		t.Fatalf("disk tier metrics: enabled=%v %+v", m.DiskTierEnabled, m.DiskTier)
	}
	_ = s2
}
