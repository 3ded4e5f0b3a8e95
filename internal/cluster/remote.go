package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"neummu/internal/exp"
	"neummu/internal/serve"
)

// remoteChunk bounds one /v1/cells request from the remote backend; grids
// larger than this are evaluated in consecutive chunks, well under the
// server's default per-request cell bound.
const remoteChunk = 1024

// SweepFunc returns an exp.RemoteFunc that evaluates point lists against
// baseURL's POST /v1/cells — a cluster coordinator or any single
// neuserve instance (both speak the same wire protocol). Plug it into
// exp.Options.Remote (or neummu.HarnessOptions.Remote) to run
// Sweep/SweepPoints-shaped studies on a fleet:
//
//	h := exp.New(exp.Options{Remote: cluster.SweepFunc(url, nil)})
//	rows, err := h.Sweep(axes) // simulated by the cluster, merged locally
//
// A nil client selects a default suited to long streaming responses.
// Cell errors surface as the lowest-indexed failing cell's error,
// matching the in-process engine's deterministic fail-fast contract.
func SweepFunc(baseURL string, client *http.Client) exp.RemoteFunc {
	baseURL = strings.TrimSuffix(strings.TrimSpace(baseURL), "/")
	if client == nil {
		client = &http.Client{}
	}
	return func(points []exp.Point, opts exp.Options) ([]exp.RemoteCell, error) {
		out := make([]exp.RemoteCell, 0, len(points))
		for start := 0; start < len(points); start += remoteChunk {
			end := min(start+remoteChunk, len(points))
			cells, err := remoteCells(baseURL, client, points[start:end], opts)
			if err != nil {
				return nil, err
			}
			out = append(out, cells...)
		}
		return out, nil
	}
}

func remoteCells(baseURL string, client *http.Client, points []exp.Point, opts exp.Options) ([]exp.RemoteCell, error) {
	body, err := json.Marshal(serve.NewCellsRequest(opts, points))
	if err != nil {
		return nil, err
	}
	resp, err := client.Post(baseURL+"/v1/cells", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("remote sweep %s: %w", baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("remote sweep %s: status %d: %s", baseURL, resp.StatusCode, bytes.TrimSpace(msg))
	}
	out := make([]exp.RemoteCell, len(points))
	seen := make([]bool, len(points))
	dec := json.NewDecoder(resp.Body)
	for n := 0; n < len(points); n++ {
		var line serve.CellLine
		if err := dec.Decode(&line); err != nil {
			return nil, fmt.Errorf("remote sweep %s: stream truncated after %d/%d cells: %w",
				baseURL, n, len(points), err)
		}
		if line.I < 0 || line.I >= len(points) || seen[line.I] {
			return nil, fmt.Errorf("remote sweep %s: bogus cell index %d", baseURL, line.I)
		}
		seen[line.I] = true
		if line.Err != "" {
			// Lines stream in input order, so the first error line is the
			// lowest-indexed failure — the engine's deterministic contract.
			return nil, fmt.Errorf("%s", line.Err)
		}
		out[line.I] = exp.RemoteCell{
			Cycles: line.Cycles, Translations: line.Translations,
			Perf: line.Perf, Counters: line.Counters,
		}
	}
	drainBody(resp.Body)
	return out, nil
}
