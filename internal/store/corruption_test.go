package store

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"
)

// The corruption table: every way a cell file can rot on disk must read
// as a quarantined miss — never as served bytes. The serving-layer half
// of this contract (a quarantined cell is re-simulated and the fresh
// counter bundle passes the conservation laws) is asserted in
// internal/serve's disk-tier tests.
func TestCorruptEntriesQuarantinedNeverServed(t *testing.T) {
	key, val := []byte("the-cell-key"), []byte(`{"cycles":12345,"perf":0.5}`)
	corruptions := []struct {
		name    string
		mutate  func([]byte) []byte
		rewrite bool // false = the mutation leaves the file untouched
	}{
		{"zero-length", func(b []byte) []byte { return nil }, true},
		{"truncated-header", func(b []byte) []byte { return b[:4] }, true},
		{"truncated-payload", func(b []byte) []byte { return b[:len(b)-3] }, true},
		{"bit-flip-payload", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-2] ^= 0x40
			return c
		}, true},
		{"bit-flip-header", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[2] ^= 0x01
			return c
		}, true},
		{"wrong-checksum", func(b []byte) []byte {
			// Re-encode a different value under the original header's
			// checksum by splicing the original header onto new payload of
			// the same length.
			nl := bytes.IndexByte(b, '\n')
			c := append([]byte(nil), b[:nl+1]...)
			payload := bytes.ToUpper(b[nl+1:])
			return append(c, payload...)
		}, true},
		{"trailing-garbage", func(b []byte) []byte { return append(append([]byte(nil), b...), "extra"...) }, true},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			s := open(t, Config{})
			const hash = 42
			s.Put(hash, key, val)
			s.Flush()
			path := s.FilePath(hash)
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mutate(orig), 0o666); err != nil {
				t.Fatal(err)
			}
			got, ok := s.Get(hash, key)
			if ok {
				t.Fatalf("corrupt entry served: %q", got)
			}
			st := s.Stats()
			if st.Quarantined != 1 {
				t.Fatalf("quarantined = %d, want 1 (%+v)", st.Quarantined, st)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt file still in place: %v", err)
			}
			if _, err := os.Stat(path + ".quarantine"); err != nil {
				t.Fatalf("no quarantine file: %v", err)
			}
			// The slot is reusable: a fresh put (the caller's re-simulation)
			// serves clean bytes again.
			s.Put(hash, key, val)
			s.Flush()
			if got, ok := s.Get(hash, key); !ok || !bytes.Equal(got, val) {
				t.Fatalf("re-put after quarantine = %q, %v", got, ok)
			}
		})
	}
}

// A corrupt file found at reopen (the crash-mid-write shape: the process
// died while the page cache held a partial entry) is indexed at Open —
// scan does not decode — but the first Get quarantines it.
func TestCorruptionDetectedAfterReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("k")
	s.Put(9, key, []byte("value"))
	s.Close()

	path := s.FilePath(9)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o666); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, Config{Dir: dir})
	if _, ok := s2.Get(9, key); ok {
		t.Fatal("half-written entry served after reopen")
	}
	if st := s2.Stats(); st.Quarantined != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// Decode's error taxonomy: every corruption is ErrCorrupt with a
// distinguishable detail, so operators can grep quarantine causes.
func TestDecodeErrorsAreErrCorrupt(t *testing.T) {
	enc := Encode(Entry{Key: []byte("k"), Value: []byte("v")})
	bad := map[string][]byte{
		"empty":        {},
		"no-newline":   []byte("neustore1 1 1 deadbeef"),
		"bad-magic":    append([]byte("neustoreX 1 1 00000000\n"), "kv"...),
		"neg-length":   append([]byte("neustore1 -1 3 00000000\n"), "kv"...),
		"huge-length":  []byte("neustore1 99999999 99999999 00000000\n"),
		"short":        enc[:len(enc)-1],
		"bad-checksum": append([]byte("neustore1 1 1 00000000\n"), "kv"...),
	}
	// The header has one spelling: each respelling below keeps the
	// checksum right, so only the spelling itself can refuse it.
	nl := bytes.IndexByte(enc, '\n')
	crc := string(enc[nl-8 : nl])
	for name, header := range map[string]string{
		"leading-zero": "neustore1 01 1 " + crc,
		"plus-sign":    "neustore1 +1 1 " + crc,
		"extra-space":  "neustore1  1 1 " + crc,
		"tab":          "neustore1\t1 1 " + crc,
		"trailing-ws":  "neustore1 1 1 " + crc + " ",
		"upper-hex":    "neustore1 1 1 " + strings.ToUpper(crc),
		"short-hex":    "neustore1 1 1 " + crc[1:],
		"long-hex":     "neustore1 1 1 0" + crc,
	} {
		bad[name] = append([]byte(header), enc[nl:]...)
	}
	for name, b := range bad {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v is not ErrCorrupt", name, err)
		}
	}
}
