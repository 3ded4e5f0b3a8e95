package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"neummu/internal/trace"
)

// conns is the client's connection budget: one load-generating process
// with at most two keep-alive connections, matching the two cores the
// reference host has, so the server is never starved of a caller and the
// client never needs more cores than the server.
const conns = 2

// child is one neuserve process under test.
type child struct {
	cmd  *exec.Cmd
	base string        // http://127.0.0.1:port
	done chan struct{} // closed once the process has been reaped
	err  error         // Wait's result, valid after done
}

// startChild spawns neuserve on a fresh loopback port with storeDir as its
// disk tier and any extra flags, and returns once /healthz answers 200,
// with the time that took.
func startChild(bin, storeDir string, flags []string) (*child, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		args := append([]string{"-addr", "127.0.0.1:" + strconv.Itoa(port), "-store-dir", storeDir}, flags...)
		cmd := exec.Command(bin, args...)
		// The child dies with the benchmark, even if the benchmark is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
		}
		c := &child{cmd: cmd, base: "http://127.0.0.1:" + strconv.Itoa(port), done: make(chan struct{})}
		go func() {
			c.err = cmd.Wait()
			close(c.done)
		}()
		if lastErr = c.waitHealthy(start.Add(10 * time.Second)); lastErr == nil {
			return c, time.Since(start), nil
		}
		c.kill()
	}
	return nil, 0, fmt.Errorf("neuserve never became healthy: %w", lastErr)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls /healthz every 250µs: boot takes a few milliseconds,
// so a coarser poll would dominate setup_s.
func (c *child) waitHealthy(deadline time.Time) error {
	client := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	defer client.CloseIdleConnections()
	for {
		resp, err := client.Get(c.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("/healthz answered %s", resp.Status)
		}
		select {
		case <-c.done:
			return fmt.Errorf("neuserve exited during boot: %v", c.err)
		default:
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(250 * time.Microsecond)
	}
}

// stop sends SIGTERM and waits for the graceful drain, killing the process
// if it outlives the bound. It reports a non-clean exit.
func (c *child) stop() error {
	select {
	case <-c.done:
		return c.err
	default:
	}
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
		return c.err
	case <-time.After(30 * time.Second):
		c.kill()
		return errors.New("neuserve did not drain within 30s of SIGTERM")
	}
}

func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.done
}

// peakRSSMiB reads the child's resident-set high-water mark (VmHWM).
func (c *child) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape is what one round reads back from the child's Prometheus
// exposition, per process (each round is a fresh process).
type scrape struct {
	stageSum   map[string]float64 // seconds, per stage of neuserve_stage_duration_seconds
	stageCount map[string]float64
	simulated  float64 // neuserve_cells_simulated_total
	cacheHits  float64 // cell cache: hits
	cacheLooks float64 // cell cache: hits + joins + misses
	diskHits   float64 // neuserve_disk_tier_ops_total{op="hits"}
}

func (c *child) scrape() (scrape, error) {
	s := scrape{stageSum: map[string]float64{}, stageCount: map[string]float64{}}
	resp, err := http.Get(c.base + "/metrics?format=prometheus")
	if err != nil {
		return s, fmt.Errorf("scraping /metrics: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return s, fmt.Errorf("scraping /metrics: %w", err)
	}
	exp, err := trace.ParseProm(body)
	if err != nil {
		return s, fmt.Errorf("parsing /metrics: %w", err)
	}
	for _, f := range exp.Families {
		for _, smp := range f.Samples {
			switch {
			case smp.Name == "neuserve_stage_duration_seconds_sum":
				s.stageSum[smp.Labels["stage"]] = smp.Value
			case smp.Name == "neuserve_stage_duration_seconds_count":
				s.stageCount[smp.Labels["stage"]] = smp.Value
			case smp.Name == "neuserve_cells_simulated_total":
				s.simulated = smp.Value
			case smp.Name == "neuserve_disk_tier_ops_total" && smp.Labels["op"] == "hits":
				s.diskHits = smp.Value
			case smp.Labels["cache"] != "cell":
			case smp.Name == "neuserve_cache_hits_total":
				s.cacheHits = smp.Value
				s.cacheLooks += smp.Value
			case smp.Name == "neuserve_cache_joins_total", smp.Name == "neuserve_cache_misses_total":
				s.cacheLooks += smp.Value
			}
		}
	}
	return s, nil
}

// outcome is one request's result: latency from send to the last body
// byte, the SHA-256 of the body, and whether it failed.
type outcome struct {
	lat    time.Duration
	sum    [sha256.Size]byte
	failed bool
}

// encodeBodies marshals request payloads ahead of the timed loop.
func encodeBodies(reqs []request) ([][]byte, error) {
	bodies := make([][]byte, len(reqs))
	for i, r := range reqs {
		b, err := json.Marshal(r.req)
		if err != nil {
			return nil, fmt.Errorf("encoding request %d: %w", i, err)
		}
		bodies[i] = b
	}
	return bodies, nil
}

// drive sends reqs in a closed loop: conns callers each send their next
// request only after the previous reply's last byte has arrived, taking
// requests in list order. It returns per-request outcomes in list order
// and the wall time from first send to last reply.
func drive(base string, reqs []request, bodies [][]byte) ([]outcome, time.Duration) {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 2 * time.Minute}
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				out[i] = send(client, base+reqs[i].path, bodies[i], reqs[i].path == "/v1/sweep", &buf)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

func send(client *http.Client, url string, body []byte, stream bool, buf *bytes.Buffer) outcome {
	t0 := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return outcome{lat: time.Since(t0), failed: true}
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	o := outcome{lat: time.Since(t0), sum: sha256.Sum256(buf.Bytes())}
	// A committed NDJSON stream reports a mid-stream failure as a final
	// error line in place of the summary.
	o.failed = err != nil || resp.StatusCode != http.StatusOK ||
		(stream && !bytes.Contains(lastLine(buf.Bytes()), []byte(`"summary":true`)))
	return o
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	return b[bytes.LastIndexByte(b, '\n')+1:]
}

// digest folds the per-response SHA-256s, in request order, into one.
func digest(out []outcome) string {
	h := sha256.New()
	for _, o := range out {
		h.Write(o.sum[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
