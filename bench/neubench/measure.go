package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"neummu/internal/stats"
)

// options configures one run of one workload.
type options struct {
	neuserve string  // binary under test
	work     string  // store directories and the disk-warm prep cache
	seconds  float64 // measurement budget of a run
	smoke    bool
	seed     int64
}

func (o options) size() string {
	if o.smoke {
		return "smoke"
	}
	return "full"
}

// metric is one reported number with its unit and sample count.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	// Moves names the end-to-end metric and workload a per-layer metric
	// should move.
	Moves string `json:"moves,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Size      string   `json:"size"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Rounds    int      `json:"rounds"`
	Digests   []string `json:"digests"`
	// RoundThroughput is each round's cells per second, in round order.
	RoundThroughput []float64 `json:"round_throughput"`
	Golden          string    `json:"golden,omitempty"`
	Metrics         []metric  `json:"metrics"`
	Notes           []string  `json:"notes,omitempty"`
	Spans           []span    `json:"spans,omitempty"`
}

func (r *result) failedFrac() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

func (r *result) metric(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

//go:embed golden.json
var goldenJSON []byte

// golden is the committed digest of each workload's response bodies for
// seed 1, per size: a change that alters any simulated statistic, or the
// bytes neuserve renders, changes it.
type golden struct {
	Seed   int64                        `json:"seed"`
	Digest map[string]map[string]string `json:"digest"` // size → workload → digest
}

func goldenFor(o options, wl string) string {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil || g.Seed != o.seed {
		return ""
	}
	return g.Digest[o.size()][wl]
}

// Round-count rules. A full run keeps starting rounds while the next one
// is expected to fit its time budget, and boots extra times, untimed
// otherwise, until setup_s rests on minBoots samples.
const (
	minRounds   = 2
	maxRounds   = 1000
	minBoots    = 7
	smokeRounds = 2
)

// runWorkload runs one workload: R rounds, each a fresh neuserve process on
// a fresh store directory, optional priming, the seeded request list in a
// closed loop, a /metrics scrape and SIGTERM. A traced run makes one round
// and then measures the layers in-process.
func runWorkload(w workload, o options, traced bool) (*result, error) {
	p := w.build(rand.New(rand.NewSource(o.seed)), o.smoke)
	res := &result{Workload: w.name, Seed: o.seed, Size: o.size(), Traced: traced, Golden: goldenFor(o, w.name)}
	bodies, err := encodeBodies(p.round)
	if err != nil {
		return nil, err
	}
	primeBodies, err := encodeBodies(p.prime)
	if err != nil {
		return nil, err
	}
	prepDir := ""
	if len(p.prep) > 0 {
		if prepDir, err = prepare(o, p.prep, p.flags); err != nil {
			return nil, err
		}
	}

	var setups, lats []float64
	var rss float64
	var last roundOut // the latest round; the traced run reads its store
	defer func() { os.RemoveAll(last.dir) }()
	start := time.Now()
	for {
		ro, err := runRound(o, p, bodies, primeBodies, prepDir)
		if err != nil {
			return nil, err
		}
		os.RemoveAll(last.dir)
		last = ro
		failed := 0
		for _, oc := range ro.out {
			lats = append(lats, float64(oc.lat)/float64(time.Millisecond))
			if oc.failed {
				failed++
			}
		}
		d := digest(ro.out)
		ref := res.Golden
		if ref == "" && len(res.Digests) > 0 {
			ref = res.Digests[0]
		}
		if (ref != "" && d != ref) || (p.diskOnly && ro.scr.simulated > 0) {
			failed = len(ro.out)
		}
		res.Digests = append(res.Digests, d)
		res.Attempted += len(ro.out)
		res.Failed += failed
		setups = append(setups, ro.setup.Seconds())
		res.RoundThroughput = append(res.RoundThroughput, float64(p.cellsPerRound())/ro.wall.Seconds())
		rss = max(rss, ro.rss)
		res.Rounds++
		if traced || (o.smoke && res.Rounds >= smokeRounds) || res.Rounds >= maxRounds {
			break
		}
		perRound := time.Since(start) / time.Duration(res.Rounds)
		if !o.smoke && res.Rounds >= minRounds && time.Since(start)+perRound > time.Duration(o.seconds*float64(time.Second)) {
			break
		}
	}
	for !o.smoke && !traced && len(setups) < minBoots {
		c, dir, setup, err := startPrimed(o, p, primeBodies, prepDir)
		if err != nil {
			return nil, err
		}
		err = c.stop()
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("neuserve exit: %w", err)
		}
		setups = append(setups, setup.Seconds())
	}
	res.Correct = res.Failed == 0

	if traced {
		layers, spans, notes, err := measureLayers(p, last, lats)
		if err != nil {
			return nil, err
		}
		res.Metrics, res.Spans, res.Notes = layers, spans, notes
		return res, nil
	}
	tail := tailPercentile(len(lats))
	pct := stats.Percentiles(lats, 0.5, float64(tail)/100)
	res.Metrics = []metric{
		{Name: "setup_s", Value: median(setups), Unit: "s", N: len(setups)},
		{Name: "throughput_cells_per_s", Value: median(res.RoundThroughput), Unit: "cells/s", N: res.Rounds},
		{Name: "latency_p50_ms", Value: pct[0], Unit: "ms", N: len(lats)},
		{Name: "latency_tail_ms", Value: pct[1], Unit: "ms", N: len(lats)},
		{Name: "peak_rss_mb", Value: rss, Unit: "MiB", N: res.Rounds},
	}
	res.Notes = append(res.Notes, fmt.Sprintf("latency_tail_ms is p%d of %d samples", tail, len(lats)))
	return res, nil
}

// tailPercentile is the highest of p99, p90 and p50 that leaves at least
// ten of n samples beyond it, so the tail rests on more than a handful of
// requests; below 20 samples it is still p50.
func tailPercentile(n int) int {
	for _, p := range []int{99, 90} {
		if n*(100-p) >= 10*100 {
			return p
		}
	}
	return 50
}

// roundOut is one round's raw measurements.
type roundOut struct {
	setup time.Duration // spawn to /healthz 200, plus priming
	out   []outcome
	wall  time.Duration
	rss   float64 // MiB
	scr   scrape
	dir   string // the round's store directory, kept for the traced run
}

func runRound(o options, p plan, bodies, primeBodies [][]byte, prepDir string) (roundOut, error) {
	c, dir, setup, err := startPrimed(o, p, primeBodies, prepDir)
	if err != nil {
		return roundOut{}, err
	}
	ro := roundOut{setup: setup, dir: dir}
	ro.out, ro.wall = drive(c.base, p.round, bodies)
	ro.scr, err = c.scrape()
	if err == nil {
		ro.rss, err = c.peakRSSMiB()
	}
	if stopErr := c.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("neuserve exit: %w", stopErr)
	}
	if err != nil {
		os.RemoveAll(dir)
		return roundOut{}, err
	}
	return ro, nil
}

// startPrimed boots neuserve on a fresh store directory (a copy of the
// prepared store, if any) and sends the priming requests. The returned
// setup time covers both.
func startPrimed(o options, p plan, primeBodies [][]byte, prepDir string) (*child, string, time.Duration, error) {
	dir, err := os.MkdirTemp(o.work, "store-")
	if err != nil {
		return nil, "", 0, err
	}
	if prepDir != "" {
		if err := copyDir(prepDir, dir); err != nil {
			os.RemoveAll(dir)
			return nil, "", 0, err
		}
	}
	// Write back the copy and what earlier rounds left behind now, so the
	// kernel's periodic writeback does not stall a later timed round.
	syscall.Sync()
	c, setup, err := startChild(o.neuserve, dir, p.flags)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", 0, err
	}
	if len(p.prime) > 0 {
		out, wall := drive(c.base, p.prime, primeBodies)
		setup += wall
		for i, oc := range out {
			if oc.failed {
				c.kill()
				os.RemoveAll(dir)
				return nil, "", 0, fmt.Errorf("priming request %d failed", i)
			}
		}
	}
	return c, dir, setup, nil
}

// prepare fills a store with the prep requests, untimed, and returns its
// directory. The store depends only on the binary under test and the
// request list, so it is cached under the work directory by the binary's
// hash and reused by later runs. A verification pass boots on the filled
// store and must simulate nothing (write-behind puts can be dropped when
// the store's queue is full; the pass re-simulates and persists those).
func prepare(o options, prep []request, flags []string) (string, error) {
	bin, err := os.Open(o.neuserve)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	_, err = io.Copy(h, bin)
	bin.Close()
	if err != nil {
		return "", fmt.Errorf("hashing %s: %w", o.neuserve, err)
	}
	dir := filepath.Join(o.work, fmt.Sprintf("prep-%s-%x", o.size(), h.Sum(nil)[:8]))
	ready := filepath.Join(dir, "READY")
	if _, err := os.Stat(ready); err == nil {
		return dir, nil
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	bodies, err := encodeBodies(prep)
	if err != nil {
		return "", err
	}
	for pass := 0; pass < 4; pass++ {
		c, _, err := startChild(o.neuserve, dir, flags)
		if err != nil {
			return "", err
		}
		out, _ := drive(c.base, prep, bodies)
		scr, err := c.scrape()
		if stopErr := c.stop(); err == nil && stopErr != nil {
			err = fmt.Errorf("neuserve exit: %w", stopErr)
		}
		if err != nil {
			return "", err
		}
		for i, oc := range out {
			if oc.failed {
				return "", fmt.Errorf("filling the disk-warm store: request %d failed", i)
			}
		}
		if pass > 0 && scr.simulated == 0 {
			return dir, os.WriteFile(ready, nil, 0o666)
		}
	}
	return "", fmt.Errorf("the disk-warm store still simulates cells after 4 passes")
}

// copyDir copies the cell files of a store directory.
func copyDir(src, dst string) error {
	des, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, de := range des {
		if !de.Type().IsRegular() || filepath.Ext(de.Name()) != ".neu" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), b, 0o666); err != nil {
			return err
		}
	}
	return nil
}
