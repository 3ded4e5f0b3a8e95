package main

import (
	"bytes"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
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

// serveUntilHealthy runs neuserve with args until it answers /healthz,
// then interrupts it, failing the test unless it served and exited
// cleanly. It returns the process's stderr.
func serveUntilHealthy(t *testing.T, args ...string) string {
	t.Helper()
	addr := freeAddr(t)
	cmd := exec.Command(os.Args[0], append([]string{"-addr", addr}, args...)...)
	cmd.Env = append(os.Environ(), "NEUSERVE_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	healthy := false
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			healthy = resp.StatusCode == http.StatusOK
			break
		}
	}
	cmd.Process.Signal(os.Interrupt)
	if err := cmd.Wait(); err != nil {
		t.Errorf("neuserve %v exit: %v\n%s", args, err, stderr.String())
	}
	if !healthy {
		t.Fatalf("neuserve %v never served /healthz 200\n%s", args, stderr.String())
	}
	return stderr.String()
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
