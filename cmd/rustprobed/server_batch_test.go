package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"rustprobe/internal/engine"
	"rustprobe/internal/store"
)

func postBatch(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/analyze-batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestBatchEndpoint drives a mixed repo through /v1/analyze-batch: buggy
// and clean files come back with findings, the unparseable file gets an
// isolated error entry, and the set as a whole succeeds.
func TestBatchEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)

	reqBody, err := json.Marshal(engine.BatchRequest{Files: map[string]string{
		"fig5.rs":   figure5Src,
		"clean.rs":  "fn tidy(x: i32) -> i32 { x + 1 }\n",
		"broken.rs": "fn broken( {",
	}})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postBatch(t, srv.URL, string(reqBody))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body = %s", resp.StatusCode, body)
	}

	var got batchResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("invalid JSON response: %v\n%s", err, body)
	}
	if got.Files != 3 || got.Errors != 1 {
		t.Fatalf("files=%d errors=%d, want 3/1", got.Files, got.Errors)
	}
	fig5 := got.Results["fig5.rs"]
	if fig5 == nil || fig5.Error != "" || len(fig5.Findings) != 1 || fig5.Findings[0].Kind != "use-after-free" {
		t.Fatalf("fig5.rs entry = %+v, want one use-after-free finding", fig5)
	}
	if clean := got.Results["clean.rs"]; clean == nil || clean.Error != "" || len(clean.Findings) != 0 {
		t.Fatalf("clean.rs entry = %+v, want clean success", clean)
	}
	broken := got.Results["broken.rs"]
	if broken == nil || broken.ErrorKind != engine.BatchErrSource || !strings.Contains(broken.Diagnostics, "broken.rs") {
		t.Fatalf("broken.rs entry = %+v, want isolated source error with diagnostics", broken)
	}

	// Identical resubmission: every entry is a per-file cache hit with
	// the same findings, and the broken file keeps its source error.
	resp2, body2 := postBatch(t, srv.URL, string(reqBody))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit status = %d", resp2.StatusCode)
	}
	var second batchResponse
	if err := json.Unmarshal(body2, &second); err != nil {
		t.Fatal(err)
	}
	for name, entry := range second.Results {
		if name == "broken.rs" {
			if entry.ErrorKind != engine.BatchErrSource || entry.Diagnostics != broken.Diagnostics {
				t.Errorf("broken.rs resubmission = %+v, want the same source error", entry)
			}
			continue
		}
		if !entry.CacheHit || !reflect.DeepEqual(entry.Findings, got.Results[name].Findings) {
			t.Errorf("%s resubmission = %+v, want a cache hit with the first findings", name, entry)
		}
	}
}

// TestBatchEndpointErrors covers request-level failures: these fail the
// batch as a unit with the same status-code mapping as /v1/analyze.
func TestBatchEndpointErrors(t *testing.T) {
	srv, _ := newTestServer(t)
	cases := []struct {
		body   string
		status int
	}{
		{`{`, http.StatusBadRequest},  // malformed JSON
		{`{}`, http.StatusBadRequest}, // empty set
		{`{"files": {"a.rs": "fn f() {}"}, "detectors": ["zap"]}`, http.StatusBadRequest},
		{`{"files": {"a.rs": "fn f() {}"}, "bogus": 1}`, http.StatusBadRequest}, // unknown field
	}
	for _, c := range cases {
		resp, body := postBatch(t, srv.URL, c.body)
		if resp.StatusCode != c.status {
			t.Errorf("POST %s: status = %d, want %d (%s)", c.body, resp.StatusCode, c.status, body)
			continue
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("POST %s: error payload = %s", c.body, body)
		}
	}

	if resp, _ := http.Get(srv.URL + "/v1/analyze-batch"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/analyze-batch status = %d", resp.StatusCode)
	}
}

// scrapeMetric pulls one series value out of the /metrics text format.
func scrapeMetric(t *testing.T, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(line[len(name)+1:]), 64)
			if err != nil {
				t.Fatalf("parse %s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in /metrics output", name)
	return 0
}

// TestDaemonRestartServesFromStore is the acceptance shape for the
// persistent tier: a first daemon lifetime analyzes a repo and persists
// the results; a second lifetime sharing the store directory serves the
// same content from disk, observable as rustprobed_store_hits_total on
// /metrics and zero fresh jobs.
func TestDaemonRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()
	version := engine.StoreVersion()
	openTestStore := func() *store.Store {
		st, err := store.Open(dir, version)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	reqBody, _ := json.Marshal(engine.BatchRequest{Files: map[string]string{
		"fig5.rs":  figure5Src,
		"clean.rs": "fn tidy(x: i32) -> i32 { x + 1 }\n",
	}})

	// First lifetime: compute and persist write-behind.
	eng1 := engine.New(engine.Config{Workers: 2, Store: openTestStore()})
	srv1 := httptest.NewServer(newServer(eng1, serverOptions{timeout: 5 * time.Second}))
	if resp, body := postBatch(t, srv1.URL, string(reqBody)); resp.StatusCode != http.StatusOK {
		t.Fatalf("first lifetime batch status = %d: %s", resp.StatusCode, body)
	}
	if hits := scrapeMetric(t, srv1.URL, "rustprobed_store_hits_total"); hits != 0 {
		t.Fatalf("cold daemon reported %v store hits", hits)
	}
	srv1.Close()
	eng1.Close() // drains write-behind puts

	// Second lifetime: fresh engine + LRU, same store directory.
	eng2 := engine.New(engine.Config{Workers: 2, Store: openTestStore()})
	srv2 := httptest.NewServer(newServer(eng2, serverOptions{timeout: 5 * time.Second}))
	defer srv2.Close()
	defer eng2.Close()

	resp, body := postBatch(t, srv2.URL, string(reqBody))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restart batch status = %d: %s", resp.StatusCode, body)
	}
	var got batchResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	for name, entry := range got.Results {
		if entry.Error != "" {
			t.Fatalf("%s after restart: %s", name, entry.Error)
		}
		if !entry.StoreHit {
			t.Fatalf("%s not served from the persistent tier after restart", name)
		}
	}
	if fig5 := got.Results["fig5.rs"]; len(fig5.Findings) != 1 || fig5.Findings[0].Kind != "use-after-free" {
		t.Fatalf("persisted findings corrupted across restart: %+v", fig5)
	}

	if hits := scrapeMetric(t, srv2.URL, "rustprobed_store_hits_total"); hits < 2 {
		t.Fatalf("rustprobed_store_hits_total = %v after restart, want >= 2", hits)
	}
	if jobs := scrapeMetric(t, srv2.URL, "rustprobed_jobs_completed_total"); jobs != 0 {
		t.Fatalf("restart replay ran %v fresh jobs, want 0", jobs)
	}
	if entries := scrapeMetric(t, srv2.URL, "rustprobed_store_entries"); entries < 2 {
		t.Fatalf("rustprobed_store_entries = %v, want >= 2", entries)
	}
}

// requireCompact checks that body is one compact JSON value and the
// encoder's newline, and that it holds the same values as the indented
// encoding rustprobed used to send: decoded into v and indented again,
// it compacts back to body.
func requireCompact(t *testing.T, body []byte, v any) {
	t.Helper()
	value, ok := bytes.CutSuffix(body, []byte("\n"))
	if !ok {
		t.Fatalf("body does not end in a newline: %q", body)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, value); err != nil {
		t.Fatalf("invalid JSON response: %v\n%s", err, body)
	}
	if !bytes.Equal(compact.Bytes(), value) {
		t.Fatalf("response is not compact:\n%s", body)
	}
	if err := json.Unmarshal(value, v); err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	compact.Reset()
	if err := json.Compact(&compact, indented); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compact.Bytes(), value) {
		t.Fatalf("compact response and its indented encoding differ:\n%s\n%s", value, indented)
	}
}

// TestResponsesAreCompact: a batch response and the responses of a full
// and a diff session push are compact JSON with the values they always
// carried.
func TestResponsesAreCompact(t *testing.T) {
	srv, _ := newSessionServer(t, nil)

	reqBody, err := json.Marshal(engine.BatchRequest{Files: map[string]string{
		"fig5.rs":   figure5Src,
		"broken.rs": "fn broken( {",
	}})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postBatch(t, srv.URL, string(reqBody))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, body = %s", resp.StatusCode, body)
	}
	var batch batchResponse
	requireCompact(t, body, &batch)
	if batch.Files != 2 || batch.Errors != 1 || len(batch.Results["fig5.rs"].Findings) != 1 {
		t.Fatalf("batch response = %+v", batch)
	}

	for i, req := range []sessionPushRequest{
		{Files: sessionBaseTree()},
		{Changed: map[string]string{"util.rs": strings.Replace(sessUtilSrc, "x + 1", "x + 2", 1)}},
	} {
		reqBody, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, body := postSessionPush(t, srv.URL, "acme", string(reqBody))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("push %d status = %d, body = %s", i, resp.StatusCode, body)
		}
		var push sessionPushResponse
		requireCompact(t, body, &push)
		if push.Stats.Full != (i == 0) || len(push.Findings) == 0 {
			t.Fatalf("push %d response = %+v", i, push)
		}
	}
}
