// Package store is the durable tier behind the serving layer's
// content-addressed result cache: one checksummed file per simulation
// cell, so a process restart (or a whole-fleet deploy) costs a disk read
// per cell instead of a re-simulation — the warm/cold gap recorded in
// BENCH_cluster.json is exactly what this tier preserves.
//
// Design:
//
//   - Content-addressed: a cell is filed under its 64-bit content hash
//     (serve.CellHash64 — a pure function of the design point and effort
//     caps, stable across processes and restarts). The canonical key
//     bytes are stored inside the entry and verified on every read, so a
//     hash collision degrades to a miss, never to wrong bytes.
//   - Write-behind: Put enqueues and returns; a single writer goroutine
//     encodes, writes a temp file, renames it into place, and then
//     enforces the byte budget. Disk I/O is never on the request path —
//     a full queue drops the put (the cell stays RAM-only) rather than
//     blocking a simulation result. Pending writes are readable from the
//     dirty map, so a Get between Put and durability still hits.
//   - Fsync-light: files are written and renamed without fsync. Data
//     survives process death (including SIGKILL — the bytes are in the
//     kernel page cache once write(2) returns); a machine power loss may
//     drop the most recent writes, which for a result *cache* means
//     re-simulating a handful of cells, not losing truth.
//   - GC'd: an in-memory LRU list orders entries by access (seeded from
//     file mtime at Open); when the directory exceeds MaxBytes the
//     writer evicts coldest-first until the budget holds. Disk usage
//     never exceeds the budget by more than the one entry being written.
//   - Refuse-don't-serve: every read re-verifies the checksum and key.
//     A truncated, bit-flipped, or otherwise corrupt file is quarantined
//     (renamed aside, counted in Stats) and reported as a miss, so the
//     caller re-simulates instead of serving bad bytes.
package store

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Config tunes a Store.
type Config struct {
	// Dir is the store directory, created if missing.
	Dir string
	// MaxBytes bounds the directory's cell-file bytes (0 = 256 MiB).
	// Eviction is coldest-first by access order.
	MaxBytes int64
	// QueueDepth bounds the write-behind queue (0 = 256). A full queue
	// drops new puts (counted in Stats.DroppedPuts) instead of blocking.
	QueueDepth int
}

func (c Config) normalized() Config {
	if c.MaxBytes <= 0 {
		c.MaxBytes = 256 << 20
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	return c
}

// Store is the disk tier. Open one per process and directory; two
// processes must not share a directory (the in-memory index assumes sole
// ownership between Open and Close).
type Store struct {
	dir      string
	maxBytes int64

	mu       sync.Mutex
	ll       *list.List // front = most recently used
	entries  map[uint64]*list.Element
	curBytes int64
	dirty    map[uint64]dirtyEntry
	dirtyGen uint64

	// sendMu guards closed-vs-send on reqc (the scheduler's pattern):
	// senders hold the read side, Close takes the write side before
	// closing the channel, and the writer goroutine takes neither — so a
	// blocked Flush send always drains and Close cannot race a send.
	sendMu sync.RWMutex
	closed bool
	reqc   chan request
	wg     sync.WaitGroup

	hits, misses, puts, writes, dropped, evictions, quarantined int64
}

type entryMeta struct {
	hash  uint64
	bytes int64
}

type dirtyEntry struct {
	e   Entry
	gen uint64
}

// request is one write-behind queue item: a put (identified by hash; the
// payload travels in the dirty map so a re-put of the same cell before
// the writer gets there supersedes the older bytes) or a flush barrier.
type request struct {
	hash  uint64
	flush chan struct{} // non-nil = flush barrier
}

// Open scans dir (creating it if missing), rebuilds the index from the
// cell files present — seeding the eviction order from file mtimes — and
// starts the write-behind writer. Files over budget are evicted
// immediately, coldest first.
func Open(cfg Config) (*Store, error) {
	cfg = cfg.normalized()
	if cfg.Dir == "" {
		return nil, errors.New("store: no directory configured")
	}
	if err := os.MkdirAll(cfg.Dir, 0o777); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:      cfg.Dir,
		maxBytes: cfg.MaxBytes,
		ll:       list.New(),
		entries:  make(map[uint64]*list.Element),
		dirty:    make(map[uint64]dirtyEntry),
		reqc:     make(chan request, cfg.QueueDepth),
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
	s.wg.Add(1)
	go s.writer()
	return s, nil
}

// scan indexes the existing cell files oldest-access-last (mtime is the
// best cross-restart approximation of access order the format keeps).
func (s *Store) scan() error {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	type found struct {
		meta  entryMeta
		mtime int64
	}
	var files []found
	for _, de := range des {
		hash, ok := parseFileName(de.Name()) // skips .tmp, .quarantine and foreign names
		if !ok {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		files = append(files, found{entryMeta{hash, info.Size()}, info.ModTime().UnixNano()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime < files[j].mtime })
	for _, f := range files {
		// Oldest first, each pushed to the front: the newest file ends up
		// most-recently-used, the oldest at the eviction end.
		s.entries[f.meta.hash] = s.ll.PushFront(&entryMeta{f.meta.hash, f.meta.bytes})
		s.curBytes += f.meta.bytes
	}
	return nil
}

// fileName is a cell's file name, cell-<hash as 16 lowercase hex
// digits>.neu; parseFileName is its exact inverse and refuses any other
// name.
func fileName(hash uint64) string {
	b := make([]byte, 0, len("cell-.neu")+16)
	b = append(b, "cell-"...)
	b = appendHex(b, hash, 16)
	return string(append(b, ".neu"...))
}

func parseFileName(name string) (uint64, bool) {
	h, ok := strings.CutPrefix(name, "cell-")
	if !ok {
		return 0, false
	}
	if h, ok = strings.CutSuffix(h, ".neu"); !ok {
		return 0, false
	}
	return parseHex(h, 16)
}

// FilePath returns the on-disk path for a cell hash. Exposed so tests
// (and operators) can inspect or corrupt specific entries.
func (s *Store) FilePath(hash uint64) string { return filepath.Join(s.dir, fileName(hash)) }

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Get returns the value bytes for (hash, key), or ok=false on a miss.
// The key bytes are verified against the stored entry, so a hash
// collision reads as a miss. A corrupt file is quarantined — renamed to
// a .quarantine suffix, counted in Stats — and reported as a miss, so
// the caller re-simulates; bad bytes are never returned.
func (s *Store) Get(hash uint64, key []byte) ([]byte, bool) {
	s.mu.Lock()
	if d, ok := s.dirty[hash]; ok {
		if !bytes.Equal(d.e.Key, key) {
			s.misses++
			s.mu.Unlock()
			return nil, false
		}
		s.hits++
		v := append([]byte(nil), d.e.Value...)
		s.mu.Unlock()
		return v, true
	}
	el, ok := s.entries[hash]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	s.ll.MoveToFront(el)
	s.mu.Unlock()

	b, err := os.ReadFile(s.FilePath(hash))
	if err != nil {
		// Lost a race with eviction (or the file vanished underneath us):
		// a miss, not a corruption.
		s.drop(hash)
		s.mu.Lock()
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	ent, err := Decode(b)
	if err != nil {
		s.quarantine(hash)
		return nil, false
	}
	if !bytes.Equal(ent.Key, key) {
		// A checksum-valid entry for a *different* cell: a 64-bit hash
		// collision. The other cell keeps its slot; this one is a miss
		// (its own Put will overwrite, which is LRU-correct anyway).
		s.mu.Lock()
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
	return ent.Value, true
}

// Reject books the value a Get just returned as a miss after all: the
// caller could not use its bytes (a checksum-valid entry written under
// an older value schema, say). The entry stays in place for the
// caller's own Put of the recomputed value to overwrite.
func (s *Store) Reject() {
	s.mu.Lock()
	s.hits--
	s.misses++
	s.mu.Unlock()
}

// Put schedules (hash, key, value) for write-behind persistence and
// returns immediately. The entry is readable (from memory) at once; it
// becomes durable when the writer gets to it. A full queue drops the put.
func (s *Store) Put(hash uint64, key, value []byte) {
	e := Entry{Key: append([]byte(nil), key...), Value: append([]byte(nil), value...)}
	s.sendMu.RLock()
	defer s.sendMu.RUnlock()
	if s.closed {
		return
	}
	s.mu.Lock()
	s.dirtyGen++
	gen := s.dirtyGen
	_, wasDirty := s.dirty[hash]
	s.dirty[hash] = dirtyEntry{e, gen}
	s.puts++
	if wasDirty {
		// The queued request for the older bytes will write these instead.
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	select {
	case s.reqc <- request{hash: hash}:
	default:
		s.mu.Lock()
		if cur, still := s.dirty[hash]; still && cur.gen == gen {
			delete(s.dirty, hash)
		}
		s.dropped++
		s.mu.Unlock()
	}
}

// Flush blocks until every put enqueued before the call is durable on
// disk. No-op after Close.
func (s *Store) Flush() {
	s.sendMu.RLock()
	if s.closed {
		s.sendMu.RUnlock()
		return
	}
	done := make(chan struct{})
	// The barrier must not be dropped: block if the queue is full (Flush
	// is a drain point, not a hot path; the writer keeps draining, so the
	// send always completes).
	s.reqc <- request{flush: done}
	s.sendMu.RUnlock()
	<-done
}

// Close drains the write-behind queue to disk and stops the writer. The
// store is unusable afterwards (Get misses, Put drops silently).
func (s *Store) Close() {
	s.sendMu.Lock()
	if s.closed {
		s.sendMu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	close(s.reqc)
	s.sendMu.Unlock()
	s.wg.Wait()
}

// writer is the single write-behind goroutine: it persists dirty entries
// in queue order and enforces the byte budget after each insertion.
func (s *Store) writer() {
	defer s.wg.Done()
	for req := range s.reqc {
		if req.flush != nil {
			close(req.flush)
			continue
		}
		s.persist(req.hash)
	}
}

// persist writes the current dirty bytes for hash (which may be newer
// than the ones the queue request was enqueued for — last put wins) and
// then evicts coldest-first until the budget holds again.
func (s *Store) persist(hash uint64) {
	s.mu.Lock()
	d, ok := s.dirty[hash]
	s.mu.Unlock()
	if !ok {
		return // superseded and already written
	}
	enc := Encode(d.e)
	tmp := s.FilePath(hash) + ".tmp"
	err := os.WriteFile(tmp, enc, 0o666)
	if err == nil {
		err = os.Rename(tmp, s.FilePath(hash))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		os.Remove(tmp)
		if cur, still := s.dirty[hash]; still && cur.gen == d.gen {
			delete(s.dirty, hash)
			s.dropped++
		}
		return
	}
	s.writes++
	if cur, still := s.dirty[hash]; still && cur.gen == d.gen {
		delete(s.dirty, hash)
	}
	size := int64(len(enc))
	if el, ok := s.entries[hash]; ok {
		old := el.Value.(*entryMeta)
		s.curBytes += size - old.bytes
		old.bytes = size
		s.ll.MoveToFront(el)
	} else {
		s.entries[hash] = s.ll.PushFront(&entryMeta{hash, size})
		s.curBytes += size
	}
	s.evictLocked()
}

// evictLocked removes coldest entries (and their files) until the byte
// budget holds. Called with s.mu held.
func (s *Store) evictLocked() {
	for s.curBytes > s.maxBytes && s.ll.Len() > 0 {
		el := s.ll.Back()
		m := el.Value.(*entryMeta)
		s.ll.Remove(el)
		delete(s.entries, m.hash)
		s.curBytes -= m.bytes
		s.evictions++
		os.Remove(s.FilePath(m.hash))
	}
}

// drop removes hash from the index without touching the file (used when
// the file is already gone).
func (s *Store) drop(hash uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[hash]; ok {
		m := el.Value.(*entryMeta)
		s.ll.Remove(el)
		delete(s.entries, m.hash)
		s.curBytes -= m.bytes
	}
}

// quarantine sets a corrupt file aside (renamed with a .quarantine
// suffix, replacing any earlier quarantine of the same cell) and removes
// it from the index, so the next Get is a clean miss and the evidence
// survives for inspection. Deletion is the fallback when the rename
// itself fails.
func (s *Store) quarantine(hash uint64) {
	path := s.FilePath(hash)
	if err := os.Rename(path, path+".quarantine"); err != nil {
		os.Remove(path)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[hash]; ok {
		m := el.Value.(*entryMeta)
		s.ll.Remove(el)
		delete(s.entries, m.hash)
		s.curBytes -= m.bytes
	}
	s.quarantined++
	s.misses++
}

// Stats is the disk tier's instrumentation snapshot (surfaced through
// the serving layer's /metrics).
type Stats struct {
	Hits        int64 `json:"hits" prom:"disk_tier_ops_total counter op" help:"Durable-tier operations by kind."`
	Misses      int64 `json:"misses" prom:"disk_tier_ops_total counter op"`
	Puts        int64 `json:"puts" prom:"disk_tier_ops_total counter op"`
	Writes      int64 `json:"writes" prom:"disk_tier_ops_total counter op"`
	DroppedPuts int64 `json:"dropped_puts" prom:"disk_tier_ops_total counter op"`
	Evictions   int64 `json:"evictions" prom:"disk_tier_ops_total counter op"`
	// Quarantined counts corrupt files set aside instead of served.
	Quarantined   int64 `json:"quarantined" prom:"disk_tier_ops_total counter op"`
	Entries       int   `json:"entries" prom:"disk_tier_entries gauge" help:"Entries resident in the durable tier."`
	Bytes         int64 `json:"bytes" prom:"disk_tier_bytes gauge" help:"Bytes resident in the durable tier."`
	MaxBytes      int64 `json:"max_bytes" prom:"disk_tier_max_bytes gauge" help:"Durable-tier byte bound."`
	PendingWrites int   `json:"pending_writes" prom:"disk_tier_pending_writes gauge" help:"Write-behind puts not yet on disk."`
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits: s.hits, Misses: s.misses,
		Puts: s.puts, Writes: s.writes, DroppedPuts: s.dropped,
		Evictions: s.evictions, Quarantined: s.quarantined,
		Entries: len(s.entries), Bytes: s.curBytes, MaxBytes: s.maxBytes,
		PendingWrites: len(s.dirty),
	}
}
