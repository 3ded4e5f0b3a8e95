package cluster

import (
	"encoding/json"
	"strings"
	"testing"

	"neummu/internal/serve"
)

// TestClusterIgnoresIntraCellWorkers: intra_cell_workers,
// which once selected an epoch-parallel schedule, is accepted and
// ignored. A 3-worker fleet sweep that sets it returns the bytes of the
// single-process exact sweep without it, with the deprecation header,
// at any count.
func TestClusterIgnoresIntraCellWorkers(t *testing.T) {
	const exact = `{"models":["CNN-1","RNN-1"],"batches":[1,4],"mmus":["neummu","iommu"],"effort":{"repeat_cap":1,"tile_cap":2}}`
	ref := referenceBody(t, exact)
	w1, w2, w3 := newWorker(t, nil), newWorker(t, nil), newWorker(t, nil)
	_, ts := newCoordinator(t, Config{Workers: []string{w1.ts.URL, w2.ts.URL, w3.ts.URL}})
	for _, n := range []string{"4", "2"} {
		body := strings.Replace(exact, `"tile_cap":2`, `"tile_cap":2,"intra_cell_workers":`+n, 1)
		resp, got := post(t, ts.URL, "/v1/sweep", body)
		if resp.StatusCode != 200 {
			t.Fatalf("intra_cell_workers %s: status = %d: %s", n, resp.StatusCode, got)
		}
		if string(got) != string(ref) {
			t.Errorf("intra_cell_workers %s: cluster sweep differs from the single-process exact sweep:\ncluster: %s\nsingle:  %s", n, got, ref)
		}
		if resp.Header.Get(serve.DeprecationHeader) == "" {
			t.Errorf("intra_cell_workers %s: no %s header", n, serve.DeprecationHeader)
		}
	}
}

// TestClusterSampledSweep: the retired sampled mode is a deprecated
// alias of exact through the fleet too. A 2-worker fleet sweep that
// names it, with or without an in-range target_ci, returns the bytes of
// the single-process exact sweep with the deprecation header, and a
// target_ci out of range or without the sampled mode is still a bad
// request.
func TestClusterSampledSweep(t *testing.T) {
	const exact = `{"models":["CNN-1","RNN-1"],"batches":[1,4],"mmus":["neummu","iommu"],"effort":{"repeat_cap":2,"tile_cap":4}}`
	ref := referenceBody(t, exact)
	w1, w2 := newWorker(t, nil), newWorker(t, nil)
	_, ts := newCoordinator(t, Config{Workers: []string{w1.ts.URL, w2.ts.URL}})
	for _, effort := range []string{`"mode":"sampled",`, `"mode":"sampled","target_ci":0.05,`} {
		body := strings.Replace(exact, `"effort":{`, `"effort":{`+effort, 1)
		resp, got := post(t, ts.URL, "/v1/sweep", body)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status = %d: %s", body, resp.StatusCode, got)
		}
		if string(got) != string(ref) {
			t.Errorf("%s: cluster sweep differs from the single-process exact sweep:\ncluster: %s\nsingle:  %s", body, got, ref)
		}
		if resp.Header.Get(serve.DeprecationHeader) == "" {
			t.Errorf("%s: no %s header", body, serve.DeprecationHeader)
		}
	}
	for _, effort := range []string{`"mode":"sampled","target_ci":1,`, `"target_ci":0.05,`} {
		body := strings.Replace(exact, `"effort":{`, `"effort":{`+effort, 1)
		resp, got := post(t, ts.URL, "/v1/sweep", body)
		var env serve.ErrorBody
		if resp.StatusCode != 400 || json.Unmarshal(got, &env) != nil || env.Error.Code != serve.ErrCodeBadRequest {
			t.Errorf("%s: status %d, body %s; want a bad_request envelope", body, resp.StatusCode, got)
		}
	}
}

// TestClusterErrorEnvelope: the coordinator speaks the same uniform
// error envelope as the single-process tier.
func TestClusterErrorEnvelope(t *testing.T) {
	w := newWorker(t, nil)
	_, ts := newCoordinator(t, Config{Workers: []string{w.ts.URL}})
	cases := []struct {
		name, body string
		wantStatus int
		wantCode   string
		wantIn     string
	}{
		{"bad json", `{"models":`, 400, serve.ErrCodeBadRequest, ""},
		{"unknown model", `{"models":["VGG"],"batches":[1],"mmus":["neummu"],"quick":true}`, 400, serve.ErrCodeBadRequest, "VGG"},
		{"unknown effort mode", `{"models":["CNN-1"],"batches":[1],"mmus":["neummu"],"effort":{"mode":"turbo"}}`, 400, serve.ErrCodeBadRequest, "unknown effort mode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts.URL, "/v1/sweep", tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d: %s", resp.StatusCode, tc.wantStatus, body)
			}
			var env serve.ErrorBody
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("not the error envelope: %v: %s", err, body)
			}
			if env.Error.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", env.Error.Code, tc.wantCode)
			}
			if !strings.Contains(env.Error.Message, tc.wantIn) {
				t.Errorf("message %q does not mention %q", env.Error.Message, tc.wantIn)
			}
			if env.Error.TraceID == "" || resp.Header.Get("X-Trace-Id") != env.Error.TraceID {
				t.Errorf("trace id mismatch: body %q header %q", env.Error.TraceID, resp.Header.Get("X-Trace-Id"))
			}
		})
	}
	// No healthy workers → unavailable, with Retry-After preserved.
	_, tsDown := newCoordinator(t, Config{Workers: []string{"http://127.0.0.1:1"}})
	resp, body := post(t, tsDown.URL, "/v1/sweep", testSweep)
	if resp.StatusCode != 503 {
		t.Fatalf("all-down status = %d: %s", resp.StatusCode, body)
	}
	var env serve.ErrorBody
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("not the error envelope: %v: %s", err, body)
	}
	if env.Error.Code != serve.ErrCodeUnavailable {
		t.Errorf("code = %q, want %q", env.Error.Code, serve.ErrCodeUnavailable)
	}
	if !strings.Contains(env.Error.Message, "no healthy workers") {
		t.Errorf("message %q does not mention the cause", env.Error.Message)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 lost its Retry-After header")
	}
}
