package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

func TestWriteErrorEnvelope(t *testing.T) {
	rec := httptest.NewRecorder()
	writeError(rec, 404, codeNotFound, "no such endpoint", nil)
	if rec.Code != 404 {
		t.Fatalf("status %d, want 404", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q, want application/json", ct)
	}
	var env errorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if env.Error.Code != codeNotFound || env.Error.Message != "no such endpoint" {
		t.Fatalf("envelope %+v", env)
	}
}

func TestNoEmptyParams(t *testing.T) {
	for _, tc := range []struct {
		raw string
		bad bool
	}{
		{"", false},
		{"engine=exact", false},
		{"engine=", true},
		{"experiment=", true},
		{"limit=3&offset=", true},
		{"a=1&a=", true},
	} {
		q, err := url.ParseQuery(tc.raw)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.raw, err)
		}
		err = noEmptyParams(q)
		if tc.bad && err == nil {
			t.Errorf("%q: want error, got nil", tc.raw)
		}
		if !tc.bad && err != nil {
			t.Errorf("%q: unexpected error %v", tc.raw, err)
		}
		if err != nil && !strings.Contains(err.Error(), "present but empty") {
			t.Errorf("%q: error %v does not name the defect", tc.raw, err)
		}
	}
}

func TestParsePageAndWindow(t *testing.T) {
	q := url.Values{"limit": {"2"}, "offset": {"3"}}
	p, err := parsePage(q)
	if err != nil {
		t.Fatalf("parsePage: %v", err)
	}
	if lo, hi := p.window(10); lo != 3 || hi != 5 {
		t.Fatalf("window(10) = [%d,%d), want [3,5)", lo, hi)
	}
	if lo, hi := p.window(4); lo != 3 || hi != 4 {
		t.Fatalf("window(4) = [%d,%d), want [3,4)", lo, hi)
	}
	if lo, hi := p.window(2); lo != 2 || hi != 2 {
		t.Fatalf("window(2) = [%d,%d), want empty [2,2)", lo, hi)
	}
	if lo, hi := (page{}).window(7); lo != 0 || hi != 7 {
		t.Fatalf("zero page window(7) = [%d,%d), want [0,7)", lo, hi)
	}
	for _, raw := range []string{"limit=-1", "limit=x", "offset=-2", "offset=1.5"} {
		q, _ := url.ParseQuery(raw)
		if _, err := parsePage(q); err == nil {
			t.Errorf("%q: want error", raw)
		}
	}
}

// failingWriter is a response whose body writes fail, as they do once
// a client has gone.
type failingWriter struct{ *httptest.ResponseRecorder }

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }

// TestWriteJSONReusesEncoders: writeJSON's bytes equal a fresh
// indenting json.Encoder's, response after response, also after a
// response whose write failed.
func TestWriteJSONReusesEncoders(t *testing.T) {
	v := map[string]any{"id": "table1", "rows": []float64{1.5, 2, 1e-9}, "html": "<a&b>"}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		writeJSON(failingWriter{httptest.NewRecorder()}, 200, v)
		rec := httptest.NewRecorder()
		writeJSON(rec, 200, v)
		if got := rec.Body.String(); got != want.String() {
			t.Fatalf("response %d:\n%s\nwant\n%s", i, got, want.String())
		}
	}
}
