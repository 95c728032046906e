// The response conventions of the spec17d /v1 surface: the uniform
// error envelope, the stable error codes clients switch on, and the
// shared query-parameter rules (strict allowed sets, no
// present-but-empty values, limit/offset pagination).
//
// Every endpoint — including the mux-level 404 and 405 fallbacks and
// pre-handler admission rejections — answers errors as
//
//	{"error": {"code": "...", "message": "..."}}
//
// with Content-Type application/json, so clients parse exactly one
// shape wherever a request fails. See docs/API.md for the full
// surface.

package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
)

// Error-envelope codes. Stable: clients switch on these strings, so a
// code is removed only with the routes that answer it.
const (
	codeUnknownExperiment = "unknown_experiment"
	codeBadOptions        = "bad_options"
	codeDraining          = "draining"
	codeCanceled          = "canceled"
	codeInternal          = "internal"
	codeTooManyRequests   = "too_many_requests"
	codeDeadlineExceeded  = "deadline_exceeded"
	codeBodyTooLarge      = "body_too_large"
	codeNotFound          = "not_found"
	codeMethodNotAllowed  = "method_not_allowed"
)

// errorDetail is the error half of the envelope.
type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Known lists the valid experiment ids on unknown_experiment.
	Known []string `json:"known,omitempty"`
}

// errorEnvelope is the uniform error response body.
type errorEnvelope struct {
	Error errorDetail `json:"error"`
}

// writeJSON writes v as indented JSON with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	jw := jsonWriters.Get().(*jsonWriter)
	jw.to = w
	// On an error the status line is already out; nothing to recover.
	// A json.Encoder whose Write failed keeps failing, so only an
	// encoder that succeeded goes back to the pool.
	if err := jw.enc.Encode(v); err == nil {
		jw.to = nil
		jsonWriters.Put(jw)
	}
}

// Splices writeResult writes between an envelope and the encoded
// result it carries, and after the result.
var (
	resultField = []byte(",\n  \"result\": ")
	reportField = []byte(",\n  \"report\": ")
	envelopeEnd = []byte("\n}\n")
)

// writeResult answers 200 with envelope — a struct with no result
// field — followed by body, an encodeResult encoding, as the
// envelope's last field. The envelope's closing envelopeEnd is held
// back while the encoder writes it, field and body follow, and then
// envelopeEnd: the bytes writeJSON gives for the envelope with the
// result value as its last field, without encoding the result again.
func writeResult(w http.ResponseWriter, envelope any, field, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	jw := jsonWriters.Get().(*jsonWriter)
	jw.to, jw.trim = w, len(envelopeEnd)
	if err := jw.enc.Encode(envelope); err != nil {
		return // client gone; a failed encoder stays out of the pool
	}
	jw.to, jw.trim = nil, 0
	jsonWriters.Put(jw)
	// A write fails only once the client is gone, and then every later
	// one fails at once too: there is nothing to recover.
	_, _ = w.Write(field)
	_, _ = w.Write(body)
	_, _ = w.Write(envelopeEnd)
}

// jsonWriter is an indenting encoder kept across responses: it writes
// each response in one Write to the writer in to, less its last trim
// bytes. A kept encoder keeps its indent buffer, so a response does
// not allocate an indented copy of its body.
type jsonWriter struct {
	to   io.Writer
	trim int
	enc  *json.Encoder
}

func (jw *jsonWriter) Write(p []byte) (int, error) {
	if _, err := jw.to.Write(p[:len(p)-jw.trim]); err != nil {
		return 0, err
	}
	return len(p), nil
}

var jsonWriters = sync.Pool{New: func() any {
	jw := &jsonWriter{}
	jw.enc = json.NewEncoder(jw)
	jw.enc.SetIndent("", "  ")
	return jw
}}

// writeError writes the uniform error envelope.
func writeError(w http.ResponseWriter, status int, code, message string, known []string) {
	writeJSON(w, status, errorEnvelope{Error: errorDetail{
		Code:    code,
		Message: message,
		Known:   known,
	}})
}

// noEmptyParams rejects query parameters that are present but empty
// (?engine=, ?limit=, a bare ?experiment=). Silently substituting a
// default would hide the typo; every /v1 endpoint applies this rule
// before interpreting its parameters.
func noEmptyParams(q url.Values) error {
	for k, vs := range q {
		for _, v := range vs {
			if v == "" {
				return fmt.Errorf("query parameter %q is present but empty; pass a value or omit it", k)
			}
		}
	}
	return nil
}

// page is a parsed limit/offset window. Limit 0 means "no limit".
type page struct {
	Limit  int
	Offset int
}

// parsePage extracts ?limit= and ?offset=. Both must be non-negative
// integers; limit 0 (or absent) means everything after offset.
// Present-but-empty values are the caller's to reject via
// noEmptyParams first (parsePage treats "" as absent).
func parsePage(q url.Values) (page, error) {
	var p page
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return p, fmt.Errorf("limit=%q: must be a non-negative integer", v)
		}
		p.Limit = n
	}
	if v := q.Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return p, fmt.Errorf("offset=%q: must be a non-negative integer", v)
		}
		p.Offset = n
	}
	return p, nil
}

// window applies the page to a list of length n, returning the
// [lo, hi) bounds. An offset past the end yields an empty window.
func (p page) window(n int) (lo, hi int) {
	lo = p.Offset
	if lo > n {
		lo = n
	}
	hi = n
	if p.Limit > 0 && lo+p.Limit < hi {
		hi = lo + p.Limit
	}
	return lo, hi
}
