package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"neummu/internal/serve"
)

// TestMain lets a test re-execute this test binary as neuserve itself:
// with NEUSERVE_TEST_MAIN=1 the process runs main() on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("NEUSERVE_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// neuserve is one neuserve process, re-executed from this test binary.
type neuserve struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer
}

// boot runs neuserve with args and waits until it answers /healthz 200,
// failing the test if it never does.
func boot(t *testing.T, args ...string) *neuserve {
	t.Helper()
	addr := freeAddr(t)
	p := &neuserve{url: "http://" + addr}
	p.cmd = exec.Command(os.Args[0], append([]string{"-addr", addr}, args...)...)
	p.cmd.Env = append(os.Environ(), "NEUSERVE_TEST_MAIN=1")
	p.cmd.Stderr = &p.stderr
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		resp, err := http.Get(p.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p
			}
			break
		}
	}
	p.cmd.Process.Kill()
	p.cmd.Wait()
	t.Fatalf("neuserve %v never served /healthz 200\n%s", args, p.stderr.String())
	return nil
}

// stop sends SIGTERM, the signal a service manager stops it with, and
// fails the test unless the process drains and exits 0. It returns the
// process's stderr.
func (p *neuserve) stop(t *testing.T) string {
	t.Helper()
	p.cmd.Process.Signal(syscall.SIGTERM)
	if err := p.cmd.Wait(); err != nil {
		t.Errorf("neuserve %v exit: %v\n%s", p.cmd.Args[1:], err, p.stderr.String())
	}
	return p.stderr.String()
}

// serveUntilHealthy boots neuserve with args and stops it, failing the
// test unless it served and exited cleanly. It returns its stderr.
func serveUntilHealthy(t *testing.T, args ...string) string {
	t.Helper()
	return boot(t, args...).stop(t)
}

// TestShardsFlagIsDeprecatedNoOp: -shards predates the one-queue
// scheduler. Existing launch scripts pass it, so it must still boot a
// serving process — with one warning — rather than fail flag parsing.
func TestShardsFlagIsDeprecatedNoOp(t *testing.T) {
	stderr := serveUntilHealthy(t, "-workers", "1", "-shards", "1")
	if n := strings.Count(stderr, "-shards is deprecated"); n != 1 {
		t.Errorf("deprecation warnings = %d, want 1\n%s", n, stderr)
	}
}

// TestCoordinatorAcceptsStoreBytes: the coordinator keeps the same cell
// store as a worker, so -store-bytes bounds its -store-dir too and must
// not be refused as a worker-only flag.
func TestCoordinatorAcceptsStoreBytes(t *testing.T) {
	serveUntilHealthy(t, "-role", "coordinator", "-peers", "http://127.0.0.1:1",
		"-store-dir", t.TempDir(), "-store-bytes", "1048576")
}

// TestShardsFlagRefusedOnCoordinator: -shards stays a worker-only flag, so
// a coordinator given it refuses to start instead of looking configured.
func TestShardsFlagRefusedOnCoordinator(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-role", "coordinator", "-peers", "http://127.0.0.1:1", "-shards", "1")
	cmd.Env = append(os.Environ(), "NEUSERVE_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "-shards configures the simulation scheduler") {
		t.Errorf("output does not name the misused flag:\n%s", out)
	}
}

// TestStoreSurvivesSIGTERMRestart: a worker with -store-dir drains its
// cell store on SIGTERM, so a process relaunched on the same directory
// answers the same sweep byte-identically from disk, simulating nothing.
func TestStoreSurvivesSIGTERMRestart(t *testing.T) {
	const sweep = `{"quick":true,"models":["CNN-1","RNN-1"],"batches":[1,4],"mmus":["iommu","neummu"]}`
	dir := t.TempDir()
	run := func() ([]byte, serve.Metrics) {
		t.Helper()
		p := boot(t, "-store-dir", dir)
		defer p.stop(t)
		resp, err := http.Post(p.url+"/v1/sweep", "application/json", strings.NewReader(sweep))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep = %d, %v: %s", resp.StatusCode, err, body)
		}
		resp, err = http.Get(p.url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m serve.Metrics
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return body, m
	}

	cold, m := run()
	if !m.DiskTierEnabled || m.CellsSimulated != 8 {
		t.Fatalf("cold run: disk_tier_enabled=%v cells_simulated=%d, want true and 8",
			m.DiskTierEnabled, m.CellsSimulated)
	}
	warm, m := run()
	if !bytes.Equal(cold, warm) {
		t.Fatalf("sweep after the restart differs:\ncold: %s\nwarm: %s", cold, warm)
	}
	if !m.DiskTierEnabled || m.CellsSimulated != 0 || m.DiskTier.Hits != 8 || m.DiskTier.Quarantined != 0 {
		t.Fatalf("restarted run: disk_tier_enabled=%v cells_simulated=%d disk_tier=%+v, want 0 simulated, 8 hits, 0 quarantined",
			m.DiskTierEnabled, m.CellsSimulated, m.DiskTier)
	}
}
