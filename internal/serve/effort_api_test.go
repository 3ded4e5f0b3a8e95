package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// --- legacy compatibility: the golden-request contract ---

// TestLegacyGoldenRequests replays pre-redesign requests — the flat
// quick/repeat_cap/tile_cap spelling — against the redesigned server and
// requires the response bytes to be identical to the equivalent
// effort-object requests. This is the compatibility contract of the
// effort API: old clients keep working forever, bit for bit. Each
// request gets its own cold server so cache hits (the `hit` field on
// cell lines) cannot leak between the two spellings. A case without a
// body is a GET of its two paths.
func TestLegacyGoldenRequests(t *testing.T) {
	cases := []struct {
		name, path, legacy, effort string
		// mixed marks a legacy request that also sends the effort object:
		// the object wins and no deprecation header is due.
		mixed bool
	}{
		{
			name:   "sweep",
			path:   "/v1/sweep",
			legacy: `{"models":["CNN-1"],"batches":[1],"mmus":["neummu"],"quick":true,"repeat_cap":1,"tile_cap":2}`,
			effort: `{"models":["CNN-1"],"batches":[1],"mmus":["neummu"],"effort":{"mode":"quick","repeat_cap":1,"tile_cap":2}}`,
		},
		{
			name:   "sim",
			path:   "/v1/sim",
			legacy: `{"models":["RNN-1"],"batches":[1],"mmus":["iommu"],"quick":true,"repeat_cap":1,"tile_cap":2}`,
			effort: `{"models":["RNN-1"],"batches":[1],"mmus":["iommu"],"effort":{"mode":"quick","repeat_cap":1,"tile_cap":2}}`,
		},
		{
			name:   "cells",
			path:   "/v1/cells",
			legacy: `{"points":[{"kind":"neummu","page_size":"4KB","model":"CNN-1","batch":1}],"repeat_cap":1,"tile_cap":2}`,
			effort: `{"points":[{"kind":"neummu","page_size":"4KB","model":"CNN-1","batch":1}],"effort":{"repeat_cap":1,"tile_cap":2}}`,
		},
		{
			// An explicit mode replaces the legacy quick flag: the exact
			// run keeps the default caps, not quick's 2/6.
			name:   "explicit mode wins",
			path:   "/v1/sim",
			legacy: `{"models":["CNN-1"],"batches":[1],"mmus":["iommu"],"quick":true,"effort":{"mode":"exact"}}`,
			effort: `{"models":["CNN-1"],"batches":[1],"mmus":["iommu"],"effort":{"mode":"exact"}}`,
			mixed:  true,
		},
		{
			name:   "figure",
			legacy: "/v1/figures/fig8?quick=1",
			effort: "/v1/figures/fig8?mode=quick",
		},
	}
	send := func(ts *httptest.Server, path, req string) (*http.Response, []byte) {
		if path == "" {
			return get(t, ts, req)
		}
		return post(t, ts, path, req)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, legacyTS := newTestServer(t, Config{Workers: 2})
			respL, bodyL := send(legacyTS, tc.path, tc.legacy)
			if respL.StatusCode != 200 {
				t.Fatalf("legacy status = %d: %s", respL.StatusCode, bodyL)
			}
			_, effortTS := newTestServer(t, Config{Workers: 2})
			respE, bodyE := send(effortTS, tc.path, tc.effort)
			if respE.StatusCode != 200 {
				t.Fatalf("effort status = %d: %s", respE.StatusCode, bodyE)
			}
			if string(bodyL) != string(bodyE) {
				t.Errorf("legacy and effort-object responses differ:\nlegacy: %s\neffort: %s", bodyL, bodyE)
			}
			// The deprecation header marks exactly the legacy-only spelling.
			if got := respL.Header.Get(DeprecationHeader); (got == "") != tc.mixed {
				t.Errorf("legacy request %s header = %q (mixed spelling: %t)", DeprecationHeader, got, tc.mixed)
			}
			if got := respE.Header.Get(DeprecationHeader); got != "" {
				t.Errorf("effort-object request carries %s: %q", DeprecationHeader, got)
			}
		})
	}
}

// TestNoDeprecationHeaderOnPlainRequests: a request that sets no effort
// at all (neither spelling) is not deprecated.
func TestNoDeprecationHeaderOnPlainRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := post(t, ts, "/v1/sweep",
		`{"models":["CNN-1"],"batches":[1],"mmus":["neummu"],"effort":{"repeat_cap":1,"tile_cap":2}}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(DeprecationHeader); got != "" {
		t.Errorf("effort-only request carries %s: %q", DeprecationHeader, got)
	}
}

// --- the uniform error envelope ---

// TestErrorEnvelope drives every rejection class through the server and
// requires the uniform envelope: the documented status, a stable code,
// and a trace ID echoed in both body and header.
func TestErrorEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	cases := []struct {
		name, method, path, body string
		wantStatus               int
		wantCode                 string
		wantIn                   string // substring of the message
	}{
		{"bad json", "POST", "/v1/sweep", `{"models":`, 400, ErrCodeBadRequest, ""},
		{"unknown model", "POST", "/v1/sweep", `{"models":["VGG"],"batches":[1],"mmus":["neummu"],"quick":true}`, 400, ErrCodeBadRequest, "VGG"},
		{"unknown mmu", "POST", "/v1/sweep", `{"models":["CNN-1"],"batches":[1],"mmus":["tlb-only"]}`, 400, ErrCodeBadRequest, "tlb-only"},
		{"unknown effort mode", "POST", "/v1/sweep", `{"models":["CNN-1"],"batches":[1],"mmus":["neummu"],"effort":{"mode":"turbo"}}`, 400, ErrCodeBadRequest, "unknown effort mode"},
		{"target_ci out of range", "POST", "/v1/sweep", `{"models":["CNN-1"],"batches":[1],"mmus":["neummu"],"effort":{"mode":"sampled","target_ci":1.5}}`, 400, ErrCodeBadRequest, "target_ci"},
		{"negative target_ci", "POST", "/v1/sim", `{"models":["CNN-1"],"batches":[1],"mmus":["neummu"],"effort":{"mode":"sampled","target_ci":-0.1}}`, 400, ErrCodeBadRequest, "target_ci"},
		{"target_ci with exact", "POST", "/v1/cells", `{"points":[{"kind":"neummu","page_size":"4KB","model":"CNN-1","batch":1}],"effort":{"mode":"exact","target_ci":0.05}}`, 400, ErrCodeBadRequest, "sampled"},
		{"figure target_ci without sampled", "GET", "/v1/figures/fig8?target_ci=0.05", "", 400, ErrCodeBadRequest, "sampled"},
		{"target_ci without sampled", "POST", "/v1/sweep", `{"models":["CNN-1"],"batches":[1],"mmus":["neummu"],"effort":{"target_ci":0.05}}`, 400, ErrCodeBadRequest, "sampled"},
		{"negative workers", "POST", "/v1/sweep", `{"models":["CNN-1"],"batches":[1],"mmus":["neummu"],"effort":{"intra_cell_workers":-1}}`, 400, ErrCodeBadRequest, "intra_cell_workers"},
		{"sim grid", "POST", "/v1/sim", `{"models":["CNN-1","RNN-1"],"batches":[1],"mmus":["neummu"],"quick":true}`, 400, ErrCodeBadRequest, "exactly one cell"},
		{"cells unknown mode", "POST", "/v1/cells", `{"points":[{"kind":"neummu","page_size":"4KB","model":"CNN-1","batch":1}],"effort":{"mode":"turbo"}}`, 400, ErrCodeBadRequest, "unknown effort mode"},
		{"unknown figure", "GET", "/v1/figures/nope", "", 404, ErrCodeNotFound, "nope"},
		{"figure bad mode", "GET", "/v1/figures/fig8?mode=turbo", "", 400, ErrCodeBadRequest, "unknown effort mode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp, body = func() (r *responseMeta, b []byte) {
				if tc.method == "GET" {
					rr, bb := get(t, ts, tc.path)
					return &responseMeta{rr.StatusCode, rr.Header.Get("X-Trace-Id"), rr.Header.Get("Content-Type")}, bb
				}
				rr, bb := post(t, ts, tc.path, tc.body)
				return &responseMeta{rr.StatusCode, rr.Header.Get("X-Trace-Id"), rr.Header.Get("Content-Type")}, bb
			}()
			if resp.status != tc.wantStatus {
				t.Fatalf("status = %d, want %d: %s", resp.status, tc.wantStatus, body)
			}
			if !strings.HasPrefix(resp.contentType, "application/json") {
				t.Errorf("Content-Type = %q, want application/json", resp.contentType)
			}
			var env ErrorBody
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("response is not the error envelope: %v: %s", err, body)
			}
			if env.Error.Code != tc.wantCode {
				t.Errorf("code = %q, want %q (message %q)", env.Error.Code, tc.wantCode, env.Error.Message)
			}
			if env.Error.Message == "" || !strings.Contains(env.Error.Message, tc.wantIn) {
				t.Errorf("message %q does not mention %q", env.Error.Message, tc.wantIn)
			}
			if env.Error.TraceID == "" {
				t.Error("envelope missing trace_id")
			}
			if resp.traceID != env.Error.TraceID {
				t.Errorf("X-Trace-Id %q != body trace_id %q", resp.traceID, env.Error.TraceID)
			}
		})
	}
}

type responseMeta struct {
	status      int
	traceID     string
	contentType string
}

// --- the retired sampled mode ---

// TestSampledSweepRows: "mode":"sampled" is a deprecated alias of exact.
// On every endpoint, a request that names it (with or without
// an in-range target_ci) is answered with the bytes of the same request
// in exact mode, plus the deprecation header, and its cell is the exact
// cell's cache entry. Each spelling gets its own cold server, so the
// hit marks on /v1/cells lines cannot differ between them.
func TestSampledSweepRows(t *testing.T) {
	const point = `{"kind":"neummu","page_size":"4KB","model":"CNN-1","batch":1}`
	cases := []struct {
		name, path, exact string
		sampled           []string
	}{
		{
			name:  "sweep",
			path:  "/v1/sweep",
			exact: `{"models":["CNN-1"],"batches":[1],"mmus":["neummu"],"effort":{"repeat_cap":1,"tile_cap":2}}`,
			sampled: []string{
				`{"models":["CNN-1"],"batches":[1],"mmus":["neummu"],"effort":{"mode":"sampled","repeat_cap":1,"tile_cap":2}}`,
				`{"models":["CNN-1"],"batches":[1],"mmus":["neummu"],"effort":{"mode":"sampled","repeat_cap":1,"tile_cap":2,"target_ci":0.05}}`,
			},
		},
		{
			name:    "sim",
			path:    "/v1/sim",
			exact:   `{"models":["RNN-1"],"batches":[1],"mmus":["iommu"],"effort":{"repeat_cap":1,"tile_cap":2}}`,
			sampled: []string{`{"models":["RNN-1"],"batches":[1],"mmus":["iommu"],"effort":{"mode":"sampled","repeat_cap":1,"tile_cap":2,"target_ci":0.05}}`},
		},
		{
			name:    "cells",
			path:    "/v1/cells",
			exact:   `{"points":[` + point + `],"effort":{"repeat_cap":1,"tile_cap":2}}`,
			sampled: []string{`{"points":[` + point + `],"effort":{"mode":"sampled","repeat_cap":1,"tile_cap":2,"target_ci":0.05}}`},
		},
		{
			name:    "figure",
			exact:   "/v1/figures/fig8?repeat_cap=1&tile_cap=2",
			sampled: []string{"/v1/figures/fig8?mode=sampled&target_ci=0.05&repeat_cap=1&tile_cap=2"},
		},
	}
	send := func(ts *httptest.Server, path, req string) (*http.Response, []byte) {
		if path == "" {
			return get(t, ts, req)
		}
		return post(t, ts, path, req)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, exactTS := newTestServer(t, Config{Workers: 2})
			resp, want := send(exactTS, tc.path, tc.exact)
			if resp.StatusCode != 200 {
				t.Fatalf("exact status = %d: %s", resp.StatusCode, want)
			}
			if got := resp.Header.Get(DeprecationHeader); got != "" {
				t.Errorf("exact request carries %s: %q", DeprecationHeader, got)
			}
			for _, req := range tc.sampled {
				_, ts := newTestServer(t, Config{Workers: 2})
				resp, got := send(ts, tc.path, req)
				if resp.StatusCode != 200 {
					t.Fatalf("%s: status = %d: %s", req, resp.StatusCode, got)
				}
				if string(got) != string(want) {
					t.Errorf("%s: body differs from exact:\n got  %s\n want %s", req, got, want)
				}
				if resp.Header.Get(DeprecationHeader) == "" {
					t.Errorf("%s: no %s header", req, DeprecationHeader)
				}
				// The exact request now finds the sampled request's cell.
				resp, again := send(ts, tc.path, tc.exact)
				cache := resp.Header.Get("X-Neuserve-Cache")
				hit := cache == "hit" || cache == "hits=1 misses=0"
				if tc.name == "cells" { // /v1/cells marks hits on its lines
					hit = strings.Contains(string(again), `"hit":true`)
				}
				if !hit {
					t.Errorf("%s: the exact request after it missed the cache (%q): %s", req, cache, again)
				}
			}
		})
	}
}

// TestIntraCellWorkersIgnored: intra_cell_workers is a retired knob. A
// request that sets it, at any count, is answered with the bytes of the
// same request without it, from the same cache entry, plus the
// deprecation header — on the JSON endpoints and the figure query alike.
func TestIntraCellWorkersIgnored(t *testing.T) {
	sweep := func(field string) string {
		return `{"models":["CNN-1"],"batches":[1],"mmus":["neummu"],"effort":{"repeat_cap":1,"tile_cap":2` + field + `}}`
	}
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, want := post(t, ts, "/v1/sweep", sweep(""))
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d: %s", resp.StatusCode, want)
	}
	if got := resp.Header.Get(DeprecationHeader); got != "" {
		t.Errorf("request without the field carries %s: %q", DeprecationHeader, got)
	}
	for _, n := range []string{"1", "4", "1048576"} {
		resp, got := post(t, ts, "/v1/sweep", sweep(`,"intra_cell_workers":`+n))
		if resp.StatusCode != 200 {
			t.Fatalf("intra_cell_workers %s: status = %d: %s", n, resp.StatusCode, got)
		}
		if string(got) != string(want) {
			t.Errorf("intra_cell_workers %s changed the body:\n got  %s\n want %s", n, got, want)
		}
		if resp.Header.Get(DeprecationHeader) == "" {
			t.Errorf("intra_cell_workers %s: no %s header", n, DeprecationHeader)
		}
		if c := resp.Header.Get("X-Neuserve-Cache"); c != "hits=1 misses=0" {
			t.Errorf("intra_cell_workers %s: cache %q, want the exact cell's entry (hits=1 misses=0)", n, c)
		}
	}

	const fig = "/v1/figures/fig8?mode=quick"
	resp, wantFig := get(t, ts, fig)
	if resp.StatusCode != 200 {
		t.Fatalf("figure status = %d: %s", resp.StatusCode, wantFig)
	}
	resp, gotFig := get(t, ts, fig+"&intra_cell_workers=4")
	if resp.StatusCode != 200 {
		t.Fatalf("figure with intra_cell_workers: status = %d: %s", resp.StatusCode, gotFig)
	}
	if string(gotFig) != string(wantFig) || resp.Header.Get("X-Neuserve-Cache") != "hit" {
		t.Errorf("intra_cell_workers moved the figure: cache %q, bytes equal %t",
			resp.Header.Get("X-Neuserve-Cache"), string(gotFig) == string(wantFig))
	}
	if resp.Header.Get(DeprecationHeader) == "" {
		t.Errorf("figure with intra_cell_workers: no %s header", DeprecationHeader)
	}
}
