package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"rustprobe"
	"rustprobe/internal/engine"
)

// figure5Src is the paper's Figure 5 shape: a pointer obtained from an
// owned buffer, the owner dropped, the stale pointer dereferenced.
const figure5Src = `fn grow(v: Vec<i32>) {
    let p = v.as_ptr();
    drop(v);
    unsafe { let x = *p; }
}
`

func newTestServer(t *testing.T) (*httptest.Server, *engine.Engine) {
	t.Helper()
	eng := engine.New(engine.Config{Workers: 2})
	srv := httptest.NewServer(newServer(eng, serverOptions{timeout: 5 * time.Second}))
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	return srv, eng
}

func postAnalyze(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/analyze", "application/json", strings.NewReader(body))
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

func TestAnalyzeEndpointGolden(t *testing.T) {
	srv, _ := newTestServer(t)

	reqBody, err := json.Marshal(engine.Request{Files: map[string]string{"fig5.rs": figure5Src}})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postAnalyze(t, srv.URL, string(reqBody))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body = %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content-type = %q", ct)
	}

	var got map[string]any
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("invalid JSON response: %v\n%s", err, body)
	}
	// elapsed_ms varies run to run; golden-check everything else.
	delete(got, "elapsed_ms")
	want := map[string]any{
		"findings": []any{
			map[string]any{
				"kind":     "use-after-free",
				"severity": "error",
				"function": "grow",
				"file":     "fig5.rs",
				"line":     float64(4),
				"column":   float64(14),
				"message":  "pointer _3(p) may dereference storage of _1(v) after it is dead",
				"notes":    []any{"_1(v)'s storage ends before this use"},
			},
		},
		"unsafe": map[string]any{
			"regions": float64(1),
			"fns":     float64(0),
			"traits":  float64(0),
			"total":   float64(1),
		},
		"cache_hit": false,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("analyze payload diverged from golden\n got: %#v\nwant: %#v", got, want)
	}

	// Resubmission of identical sources is served from the cache.
	resp2, body2 := postAnalyze(t, srv.URL, string(reqBody))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp2.StatusCode)
	}
	var second analyzeResponse
	if err := json.Unmarshal(body2, &second); err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Error("second identical POST was not a cache hit")
	}
	if len(second.Findings) != 1 || second.Findings[0].Kind != "use-after-free" {
		t.Errorf("cached findings = %+v", second.Findings)
	}
}

func TestAnalyzeEndpointErrors(t *testing.T) {
	srv, _ := newTestServer(t)
	cases := []struct {
		body   string
		status int
	}{
		{`{`, http.StatusBadRequest},                  // malformed JSON
		{`{}`, http.StatusBadRequest},                 // no input
		{`{"corpus": "nope"}`, http.StatusBadRequest}, // unknown group
		{`{"files": {"x.rs": "fn f() {}"}, "detectors": ["zap"]}`, http.StatusBadRequest},
		{`{"files": {"bad.rs": "fn broken( {"}}`, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		resp, body := postAnalyze(t, srv.URL, c.body)
		if resp.StatusCode != c.status {
			t.Errorf("POST %s: status = %d, want %d (%s)", c.body, resp.StatusCode, c.status, body)
			continue
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("POST %s: error payload = %s", c.body, body)
		}
		if c.status == http.StatusUnprocessableEntity && (!strings.Contains(e.Diagnostics, "bad.rs") || e.Error != engine.SyntaxErrorMessage) {
			t.Errorf("syntax-error response = %s, want the shared message plus diagnostics", body)
		}
	}

	if resp, _ := http.Get(srv.URL + "/v1/analyze"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/analyze status = %d", resp.StatusCode)
	}
}

func TestDetectorsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/v1/detectors")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got map[string][]string
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got["detectors"], rustprobe.DetectorNames()) {
		t.Errorf("detectors = %v, want %v", got["detectors"], rustprobe.DetectorNames())
	}
}

func TestHealthzAndStatsEndpoints(t *testing.T) {
	srv, eng := newTestServer(t)

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz = %v", health)
	}

	// Drive one analysis through HTTP, then check the counters line up.
	reqBody, _ := json.Marshal(engine.Request{Files: map[string]string{"fig5.rs": figure5Src}})
	if resp, body := postAnalyze(t, srv.URL, string(reqBody)); resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status = %d: %s", resp.StatusCode, body)
	}

	sresp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats engine.Stats
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.JobsSubmitted != 1 || stats.JobsCompleted != 1 || stats.CacheMisses != 1 {
		t.Errorf("stats = %+v, want 1 submitted/completed/miss", stats)
	}
	if stats.Workers != 2 || stats.CacheCapacity != 256 {
		t.Errorf("config stats = %+v", stats)
	}
	if want := eng.Stats(); want.JobsCompleted != stats.JobsCompleted {
		t.Errorf("HTTP stats diverge from engine snapshot: %+v vs %+v", stats, want)
	}
}
