package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"
)

// TestReadBody checks the request-body reader: a body that declares
// its length is read into one buffer with a byte to spare, a body of
// unknown length (chunked) reads whole, a body over the limit comes
// back as limit+1 bytes whatever it declares, and a failed read is an
// error.
func TestReadBody(t *testing.T) {
	const limit = 4096
	data := bytes.Repeat([]byte("0123456789abcdef"), limit/16+1)
	for _, tc := range []struct {
		name   string
		size   int   // bytes the body holds
		length int64 // declared Content-Length, -1 when unknown
		want   int
	}{
		{"empty", 0, 0, 0},
		{"declared", 1000, 1000, 1000},
		{"unknown length", 3000, -1, 3000},
		{"at the limit", limit, limit, limit},
		{"over the limit", limit + 5, limit + 5, limit + 1},
		{"over the limit, unknown length", limit + 5, -1, limit + 1},
		{"longer than declared", limit + 5, 10, limit + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := http.NewRequest(http.MethodPost, "/v1/analyze", io.MultiReader(bytes.NewReader(data[:tc.size])))
			if err != nil {
				t.Fatal(err)
			}
			r.ContentLength = tc.length
			got, err := readBody(r, limit)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data[:tc.want]) {
				t.Fatalf("read %d bytes, want the first %d of the body", len(got), tc.want)
			}
			if tc.length >= 0 && int(tc.length) == tc.size && tc.size <= limit && cap(got) != tc.size+1 {
				t.Errorf("capacity %d for a declared length of %d, want one buffer of %d", cap(got), tc.length, tc.size+1)
			}
		})
	}

	r, err := http.NewRequest(http.MethodPost, "/v1/analyze", io.MultiReader(strings.NewReader("{"), iotest.ErrReader(errors.New("connection reset"))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readBody(r, limit); err == nil {
		t.Error("a failed read returned no error")
	}
}

// TestAnalyzeBodyOfUnknownLength posts through the handler a body
// without a Content-Length, as a chunked request arrives: it must be
// analyzed like any other, and one over MaxSourceBytes must still be
// answered 413; a body whose read fails is answered 499.
func TestAnalyzeBodyOfUnknownLength(t *testing.T) {
	s, err := New(Config{MaxSourceBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	post := func(body io.Reader) (int, string) {
		t.Helper()
		r, err := http.NewRequest(http.MethodPost, "/v1/analyze", body)
		if err != nil {
			t.Fatal(err)
		}
		r.ContentLength = -1
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		return w.Code, w.Body.String()
	}
	req, err := json.Marshal(AnalyzeRequest{Source: "void main() { A: async { S: skip; } T: skip; }"})
	if err != nil {
		t.Fatal(err)
	}
	if status, body := post(io.MultiReader(bytes.NewReader(req))); status != http.StatusOK {
		t.Errorf("chunked analyze: status %d: %s", status, body)
	}
	big, err := json.Marshal(AnalyzeRequest{Source: "void main() { skip; }" + strings.Repeat(" ", 2<<10)})
	if err != nil {
		t.Fatal(err)
	}
	if status, body := post(io.MultiReader(bytes.NewReader(big))); status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized chunked analyze: status %d, want 413: %s", status, body)
	}
	if status, body := post(iotest.ErrReader(errors.New("connection reset"))); status != statusClientClosedRequest {
		t.Errorf("failed body read: status %d, want 499: %s", status, body)
	}
}
