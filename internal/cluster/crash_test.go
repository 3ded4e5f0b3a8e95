package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"neummu/internal/serve"
)

// Crash/restart end-to-end test over real processes and real sockets:
// a three-worker fleet with per-worker disk stores, a coordinator with its
// own store, SIGKILL delivered to the coordinator AND one worker in
// the middle of a streaming sweep, both restarted on the same addresses
// and directories, and the retried sweep's merged NDJSON must be
// byte-identical to an uninterrupted single-process run.

// crashSweep is large enough (24 cells) that the kill lands mid-stream.
const crashSweep = `{"quick":true,"models":["CNN-1","RNN-1"],"batches":[1,2,4,8],"mmus":["neummu","iommu","oracle"]}`

// freeAddr reserves an ephemeral 127.0.0.1 port and releases it for the
// subprocess to bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// buildNeuserve compiles the real binary once per test run.
func buildNeuserve(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "neuserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/neuserve")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building neuserve: %v\n%s", err, out)
	}
	return bin
}

// neuproc is one live neuserve subprocess.
type neuproc struct {
	cmd  *exec.Cmd
	addr string
}

func (p *neuproc) url() string { return "http://" + p.addr }

// kill delivers SIGKILL — no drain, no flush, the crash being tested.
func (p *neuproc) kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// startNeuserve launches the binary and waits for /healthz.
func startNeuserve(t *testing.T, bin, addr string, args ...string) *neuproc {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &neuproc{cmd: cmd, addr: addr}
	t.Cleanup(p.kill)
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(p.url() + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return p
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("neuserve on %s never became healthy", addr)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func TestCrashRestartResumesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes; skipped in -short")
	}
	// Uninterrupted single-process reference for the same request.
	ref := referenceBody(t, crashSweep)

	bin := buildNeuserve(t)
	coordDir := t.TempDir()
	workerDirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	workerAddrs := []string{freeAddr(t), freeAddr(t), freeAddr(t)}
	coordAddr := freeAddr(t)

	workers := make([]*neuproc, 3)
	peerURLs := make([]string, 3)
	for i := range workers {
		workers[i] = startNeuserve(t, bin, workerAddrs[i],
			"-workers", "2", "-store-dir", workerDirs[i])
		peerURLs[i] = workers[i].url()
	}
	coordArgs := []string{"-role", "coordinator", "-store-dir", coordDir,
		"-peers", strings.Join(peerURLs, ",")}
	coord := startNeuserve(t, bin, coordAddr, coordArgs...)

	// Open the sweep as a stream and read a couple of rows, proving the
	// sweep is genuinely in flight when the kill lands.
	resp, err := http.Post(coord.url()+"/v1/sweep", "application/json",
		strings.NewReader(crashSweep))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("sweep = %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	for i := 0; i < 2; i++ {
		if _, err := br.ReadBytes('\n'); err != nil {
			t.Fatalf("reading streamed row %d: %v", i, err)
		}
	}
	// Wait for durable progress: the coordinator's store must hold at
	// least two cell files before the crash, so the restart has something
	// real to resume from.
	waitCellFiles(t, coordDir, 2)

	// SIGKILL coordinator and one worker mid-sweep. No drain runs.
	coord.kill()
	workers[0].kill()
	resp.Body.Close()

	if n := len(cellFiles(t, coordDir)); n < 2 {
		t.Fatalf("coordinator store did not survive the crash: %d cell files", n)
	}

	// Restart both on the same addresses and directories.
	workers[0] = startNeuserve(t, bin, workerAddrs[0],
		"-workers", "2", "-store-dir", workerDirs[0])
	coord = startNeuserve(t, bin, coordAddr, coordArgs...)

	// The retried request resumes from the store and completes; the
	// merged body is byte-identical to the uninterrupted single process.
	resp2, err := http.Post(coord.url()+"/v1/sweep", "application/json",
		strings.NewReader(crashSweep))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != 200 {
		t.Fatalf("resumed sweep = %d: %s", resp2.StatusCode, body)
	}
	if !bytes.Equal(body, ref) {
		t.Fatalf("resumed merged body differs from uninterrupted single-process run:\nref: %s\ngot: %s", ref, body)
	}

	// The coordinator must report a real resume: at least the two cells
	// that were durable before the kill came from the store.
	mresp, err := http.Get(coord.url() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m Metrics
	if err := jsonDecode(mresp.Body, &m); err != nil {
		t.Fatal(err)
	}
	if !m.StoreEnabled || m.RequestsFromStore != 1 || m.CellsFromStore < 2 {
		t.Fatalf("restarted coordinator metrics: store_enabled=%v requests_from_store=%d cells_from_store=%d",
			m.StoreEnabled, m.RequestsFromStore, m.CellsFromStore)
	}

	// And the restarted worker's disk tier is live: its store directory
	// holds durable cells from before and/or after the crash.
	wresp, err := http.Get(workers[0].url() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	var wm serve.Metrics
	if err := jsonDecode(wresp.Body, &wm); err != nil {
		t.Fatal(err)
	}
	if !wm.DiskTierEnabled {
		t.Fatal("restarted worker lost its disk tier")
	}
}

// jsonDecode reads and decodes a metrics body, quoting it on failure.
func jsonDecode(r io.Reader, v any) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("decoding %q: %w", data, err)
	}
	return nil
}
