package main

import (
	"bytes"
	"os"
	"os/exec"
	"testing"
)

// TestMain lets a test re-execute this test binary as paperfigs itself:
// with PAPERFIGS_TEST_MAIN=1 the process runs main() on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("PAPERFIGS_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// paperfigs runs main with args and env in a child process and returns
// its stdout.
func paperfigs(t *testing.T, env []string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(append(os.Environ(), "PAPERFIGS_TEST_MAIN=1"), env...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("paperfigs %v: %v\n%s", args, err, stderr.String())
	}
	return out
}

// TestQuickFiguresByteIdenticalSerialAndParallel: every figure of
// `paperfigs -quick` is byte-identical to the serial reference run
// `-workers 1`. The default run gets GOMAXPROCS=4, so its sweeps fan out
// over four workers even on a one-CPU machine.
func TestQuickFiguresByteIdenticalSerialAndParallel(t *testing.T) {
	serial := paperfigs(t, nil, "-quick", "-workers", "1")
	parallel := paperfigs(t, []string{"GOMAXPROCS=4"}, "-quick")
	if len(serial) == 0 {
		t.Fatal("serial run printed nothing")
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("parallel output differs from the serial reference:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}
