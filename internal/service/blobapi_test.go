package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"testing"

	"repro/internal/storage"
)

// storeSnapshot renders every object of b (root and quarantine
// namespaces) with the SHA-256 of its bytes, so a test can assert a store is
// untouched.
func storeSnapshot(t *testing.T, b storage.Backend) string {
	t.Helper()
	var names []string
	for _, prefix := range []string{"", storage.QuarantinePrefix} {
		ns, err := b.List(prefix)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, ns...)
	}
	sort.Strings(names)
	var out strings.Builder
	for _, name := range names {
		rc, err := b.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%s %x\n", name, sha256.Sum256(data))
	}
	return out.String()
}

// TestBlobAPIIsReadOnly drives a solo server's blob API with every
// mutating request the protocol once accepted: each is a 405, neither
// store changes, and a forged result envelope — whose unkeyed
// result_sha256 anyone can compute — is never served, not even by a
// restarted server over the same result directory.
func TestBlobAPIIsReadOnly(t *testing.T) {
	resultDir, traceDir := t.TempDir(), t.TempDir()
	s := newTestServerAt(t, resultDir, traceDir)
	h := s.Handler()
	getOK(t, h, "/v1/experiments/table2?pes=2") // fills the trace store
	honest := getOK(t, h, "/v1/experiments/table1").Body.Bytes()

	results := s.ResultCache().Backend()
	traces := s.TraceStore().Backend()
	names, err := results.List("table1-")
	if err != nil || len(names) != 1 {
		t.Fatalf("result store after computing table1: %v, %v", names, err)
	}
	resultName := names[0]
	names, err = traces.List("")
	if err != nil || len(names) == 0 {
		t.Fatalf("trace store after computing table2: %v, %v", names, err)
	}
	traceName := names[0]

	env := decodeEnvelope(t, honest)
	env.Result = json.RawMessage(`{"rows":[{"frame":"forged"}]}`)
	env.ResultSHA = resultSHA(env.Result)
	forged, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}

	before := storeSnapshot(t, results) + storeSnapshot(t, traces)
	for _, ns := range []struct{ store, name string }{{"results", resultName}, {"traces", traceName}} {
		base := "/v1/blobs/" + ns.store + "/"
		rename := url.Values{"op": {"rename"}, "to": {storage.QuarantinePrefix + ns.name}}
		sweep := url.Values{"op": {"sweep"}, "older-than": {"0s"}}
		for _, tc := range []struct {
			method, path string
			body         []byte
		}{
			{http.MethodDelete, base + ns.name, nil},
			{http.MethodPost, base + ns.name + "?" + rename.Encode(), nil},
			{http.MethodPost, base + "?" + sweep.Encode(), nil},
			{http.MethodPut, base + ns.name, forged},
		} {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(tc.method, tc.path, bytes.NewReader(tc.body)))
			if w.Code != http.StatusMethodNotAllowed || w.Header().Get("Allow") != "GET, HEAD" {
				t.Errorf("%s %s: status %d, Allow %q; want 405, \"GET, HEAD\"",
					tc.method, tc.path, w.Code, w.Header().Get("Allow"))
			}
		}
		// Reads still work: the blob API is what peers fetch from.
		getOK(t, h, base+ns.name)
	}
	if after := storeSnapshot(t, results) + storeSnapshot(t, traces); after != before {
		t.Fatalf("refused blob requests changed the stores:\nbefore:\n%s\nafter:\n%s", before, after)
	}

	restarted := newTestServerAt(t, resultDir, traceDir)
	w := getOK(t, restarted.Handler(), "/v1/experiments/table1")
	if got := w.Header().Get("X-Result-Source"); got != "disk" {
		t.Fatalf("restarted server: X-Result-Source %q, want disk", got)
	}
	if !bytes.Equal(w.Body.Bytes(), honest) {
		t.Fatalf("restarted server served a forged result:\n%s", w.Body.Bytes())
	}
}
