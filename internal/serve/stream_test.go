package serve

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"neummu/internal/exp"
)

// gatedResolver is the local resolver with cell 1 of every request held
// until gate closes: a compute that has not finished yet.
type gatedResolver struct {
	local
	gate chan struct{}
}

func (g gatedResolver) Resolve(ctx context.Context, traceID string, h *exp.Harness, points []exp.Point) ([]Pending, int, error) {
	cells, hits, err := g.local.Resolve(ctx, traceID, h, points)
	if err == nil && len(cells) > 1 {
		cells[1] = gatedCell{cells[1], g.gate}
	}
	return cells, hits, err
}

type gatedCell struct {
	Pending
	gate chan struct{}
}

func (c gatedCell) Wait(ctx context.Context) (CellValue, bool, error) {
	<-c.gate
	return c.Pending.Wait(ctx)
}

// Ready is false: a gated cell always looks like a wait to the handler.
func (gatedCell) Ready() bool { return false }

// TestStreamsRowsBeforeLaterCellsResolve is the streaming property of
// /v1/sweep and /v1/cells: while cell 1 is still computing, the client
// already holds cell 0's row. Once every cell is cached, the bodies are
// pinned byte for byte, so how rows are grouped into writes never
// changes what a client reads.
func TestStreamsRowsBeforeLaterCellsResolve(t *testing.T) {
	cases := []struct {
		path, body string
		allHitSHA  string // SHA-256 of the all-hit body
	}{
		{"/v1/sweep", quickSweep, "cc7ca5d76c6ae2a0a8ee7adcab152d4297b25313d802728a0fed325774ec1d54"},
		{"/v1/cells", `{"quick":true,"points":[
			{"kind":"iommu","page_size":"4KB","model":"CNN-1","batch":4},
			{"kind":"neummu","page_size":"4KB","model":"RNN-1","batch":4}]}`,
			"396a6a15cfe5b5e0773145596770402b76031d26ff87eb986cbe51f7c9034352"},
	}
	for _, tc := range cases {
		t.Run(strings.TrimPrefix(tc.path, "/v1/"), func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: 2})
			gate := make(chan struct{})
			s.resolver = gatedResolver{local{s}, gate}

			type firstRow struct {
				resp *http.Response
				br   *bufio.Reader
				row  string
				err  error
			}
			got := make(chan firstRow, 1)
			go func() {
				resp, err := ts.Client().Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
				if err != nil {
					got <- firstRow{err: err}
					return
				}
				br := bufio.NewReader(resp.Body)
				row, err := br.ReadString('\n')
				got <- firstRow{resp, br, row, err}
			}()
			var first firstRow
			select {
			case first = <-got:
			case <-time.After(time.Minute):
				close(gate)
				t.Fatal("no row reached the client while cell 1 was held")
			}
			close(gate)
			if first.err != nil {
				t.Fatal(first.err)
			}
			rest, err := io.ReadAll(first.br)
			first.resp.Body.Close()
			if err != nil || first.resp.StatusCode != 200 || !strings.Contains(first.row, `"cycles"`) {
				t.Fatalf("status %d, first row %q, read error %v", first.resp.StatusCode, first.row, err)
			}
			if strings.Count(string(rest), "\n") < 1 {
				t.Fatalf("stream ended after its first row: %q", rest)
			}

			resp, warm := post(t, ts, tc.path, tc.body)
			sum := sha256.Sum256(warm)
			if resp.StatusCode != 200 || hex.EncodeToString(sum[:]) != tc.allHitSHA {
				t.Fatalf("all-hit body (status %d, sha256 %x) is not the pinned one:\n%s",
					resp.StatusCode, sum, warm)
			}
		})
	}
}
