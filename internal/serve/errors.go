package serve

import (
	"encoding/json"
	"errors"
	"net/http"

	"neummu/internal/trace"
)

// Error codes. Every non-2xx response of either role carries exactly one
// of these in its JSON envelope, so clients can branch on a stable enum
// instead of parsing messages:
//
//	bad_request  the payload or query string is malformed or invalid (400)
//	not_found    the named resource does not exist (404)
//	overloaded   the job queue is full; retry after Retry-After (429)
//	unavailable  no backend can take the work right now (503)
//	internal     the simulation itself failed (500)
const (
	ErrCodeBadRequest  = "bad_request"
	ErrCodeNotFound    = "not_found"
	ErrCodeOverloaded  = "overloaded"
	ErrCodeUnavailable = "unavailable"
	ErrCodeInternal    = "internal"
)

// ErrUnavailable is what a Resolver wraps when no backend can take the
// work right now (a coordinator with no healthy workers); the front end
// answers it with 503 unavailable and Retry-After.
var ErrUnavailable = errors.New("serve: no backend available")

// ErrorDetail is the payload of the uniform error envelope.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	TraceID string `json:"trace_id,omitempty"`
}

// ErrorBody is the uniform JSON error envelope every non-2xx response
// uses on both serving tiers: {"error": {"code", "message", "trace_id"}}.
// It applies to headers-not-yet-sent failures only; an error inside an
// already-committed NDJSON stream is reported as a terminal
// {"error": "..."} line instead (the stream contract cannot change
// status codes after the first row).
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// writeError writes the uniform error envelope with the given status.
// The trace ID is echoed both in the body and the X-Trace-Id header so a
// client that only logs bodies and a proxy that only logs headers can
// both correlate the failure with /debug/traces.
func writeError(w http.ResponseWriter, status int, code, msg, traceID string) {
	w.Header().Set("Content-Type", "application/json")
	if traceID != "" {
		w.Header().Set(trace.Header, traceID)
	}
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(ErrorBody{Error: ErrorDetail{Code: code, Message: msg, TraceID: traceID}})
}
