package serve

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// Regression tests for the flight contract when the winning compute dies
// partway — the shape the disk tier made real: the owner's closure now
// does file-backed work (loadCell, then simulate, then saveCell), so "the
// compute panics mid-write" must strand neither the joiners parked on the
// same flight nor the key itself.

// waitOrHang waits on a flight with a deadline, failing the test if Wait
// never returns — the exact symptom of a flight whose done channel was
// abandoned by a dying compute.
func waitOrHang(t *testing.T, name string, fl *Flight[int]) error {
	t.Helper()
	done := make(chan struct{})
	var err error
	go func() { _, err = fl.Wait(); close(done) }()
	select {
	case <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: Wait hung after the winning compute died", name)
		return nil
	}
}

// TestCacheComputePanicResolvesJoiners pins the contract: if the winning
// compute panics, (1) the panic does not escape into the scheduler worker
// (which would kill the process), (2) the owner's and every joiner's Wait
// returns an error instead of blocking forever, and (3) the key is not
// wedged — the next Resolve starts a fresh compute.
func TestCacheComputePanicResolvesJoiners(t *testing.T) {
	c := NewCache[int, int](1<<20, func(int) int64 { return 64 })

	// Capture the owner's run closure so a joiner can register before the
	// compute executes — the mid-flight shape a scheduler queue produces.
	var run func()
	capture := func(r func()) error { run = r; return nil }
	owner, err := c.Resolve(context.Background(), 1, capture, func() (int, error) {
		panic("compute died mid-write to disk")
	})
	if err != nil {
		t.Fatal(err)
	}
	joiner, err := c.Resolve(context.Background(), 1,
		func(func()) error { t.Error("joiner scheduled a second compute"); return nil },
		func() (int, error) { t.Error("joiner ran its own compute"); return 0, nil })
	if err != nil {
		t.Fatal(err)
	}

	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("compute panic escaped the run closure (kills the scheduler worker): %v", r)
			}
		}()
		run()
	}()

	for name, fl := range map[string]*Flight[int]{"owner": owner, "joiner": joiner} {
		werr := waitOrHang(t, name, fl)
		if !errors.Is(werr, ErrComputePanic) || !strings.Contains(werr.Error(), "mid-write") {
			t.Errorf("%s: Wait error = %v, want ErrComputePanic carrying the panic value", name, werr)
		}
	}

	// Panics, like errors, must not be cached, and the inflight slot must
	// be released: the key computes fresh on the next request.
	fl, err := c.Resolve(context.Background(), 1, inline, func() (int, error) { return 7, nil })
	if err != nil {
		t.Fatal(err)
	}
	if v, err := fl.Wait(); err != nil || v != 7 || fl.Hit {
		t.Errorf("resolve after panic: v=%d err=%v hit=%v, want a fresh compute of 7", v, err, fl.Hit)
	}
}

// TestCacheComputePanicUnderScheduler runs the same death through a real
// scheduler: the worker goroutine survives and keeps draining
// jobs for other keys.
func TestCacheComputePanicUnderScheduler(t *testing.T) {
	c := NewCache[int, int](1<<20, func(int) int64 { return 64 })
	s := NewScheduler(1, 8)
	defer s.Close()

	fl, err := c.Resolve(context.Background(), 1,
		s.Submit,
		func() (int, error) { panic("boom") })
	if err != nil {
		t.Fatal(err)
	}
	if werr := waitOrHang(t, "panicked flight", fl); !errors.Is(werr, ErrComputePanic) {
		t.Fatalf("Wait error = %v, want ErrComputePanic", werr)
	}

	// The single worker must still be alive to run this.
	fl, err = c.Resolve(context.Background(), 2,
		s.Submit,
		func() (int, error) { return 11, nil })
	if err != nil {
		t.Fatal(err)
	}
	if v, werr := fl.Wait(); werr != nil || v != 11 {
		t.Fatalf("worker died with the panicked compute: v=%d err=%v", v, werr)
	}
}
