package main

// Session-endpoint robustness: session rounds run as engine jobs, so a
// panicking round, a saturated queue and a full pool behave exactly as
// they do for /v1/analyze — and a failed round leaves both the session
// and the pool as they were after the last good round.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rustprobe/internal/engine"
	"rustprobe/internal/sessionpool"
)

// getStats decodes /stats.
func getStats(t *testing.T, url string) statsResponse {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// pushStatus sends one push and returns its status and error payload.
func pushStatus(t *testing.T, url, repo string, req sessionPushRequest) (*http.Response, errorResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := postSessionPush(t, url, repo, string(body))
	var e errorResponse
	_ = json.Unmarshal(raw, &e) // a 200 body is no errorResponse; callers check the status first
	return resp, e
}

// TestSessionEndpointPanic500: a round that panics (injected through the
// pool's round hook, which runs on the engine worker) is a 500 with the
// stack logged server-side only, counts in /stats panics, and costs
// nothing else: the engine keeps its workers, the session's next push
// diffs against the last good tree, and the panicked repo's entry stays
// evictable.
func TestSessionEndpointPanic500(t *testing.T) {
	var boom atomic.Bool
	eng := engine.New(engine.Config{Workers: 2})
	pool := sessionpool.New(eng, sessionpool.Config{
		MaxSessions: 1,
		TestRoundHook: func(repo string) func() {
			if boom.Load() && repo == "boom" {
				panic("injected round panic")
			}
			return func() {}
		},
	})
	srv := httptest.NewServer(newServer(eng, serverOptions{timeout: 30 * time.Second, pool: pool}))
	defer func() { srv.Close(); pool.Close(); eng.Close() }()

	var logBuf bytes.Buffer
	log.SetOutput(&logBuf)
	defer log.SetOutput(os.Stderr)

	tree := sessionBaseTree()
	pushOK(t, srv.URL, "boom", sessionPushRequest{Files: tree})

	edited := strings.Replace(sessUtilSrc, "x + 1", "x + 3", 1)
	boom.Store(true)
	resp, e := pushStatus(t, srv.URL, "boom", sessionPushRequest{Changed: map[string]string{"util.rs": edited}})
	boom.Store(false)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking push status = %d (%+v), want 500", resp.StatusCode, e)
	}
	if !strings.Contains(e.Error, "panicked") || strings.Contains(e.Error, "injected round panic") {
		t.Errorf("error payload = %+v: want a generic panic message, no detail", e)
	}
	if !strings.Contains(logBuf.String(), "injected round panic") {
		t.Errorf("panic not logged server-side: %q", logBuf.String())
	}
	st := getStats(t, srv.URL)
	if st.Panics != 1 || st.Workers != 2 || st.JobsInFlight != 0 {
		t.Fatalf("engine stats after a round panic: %+v", st.Stats)
	}

	// The next push applies its diff to the last good tree, incrementally.
	tree["util.rs"] = edited
	res := pushOK(t, srv.URL, "boom", sessionPushRequest{Changed: map[string]string{"util.rs": edited}})
	if res.Stats.Full || !res.Stats.SessionHit {
		t.Fatalf("push after a panicked round lost the session: %+v", res.Stats)
	}
	requireEquivalent(t, srv.URL, tree, res.Findings, "push after panic")

	// Both workers still serve: two concurrent analyses succeed.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := analyzeBody(t, fmt.Sprintf("par%d.rs", i), fmt.Sprintf("fn par_%d() {}\n", i))
			if resp, raw := postAnalyze(t, srv.URL, body); resp.StatusCode != http.StatusOK {
				t.Errorf("analysis %d after panic: %d %s", i, resp.StatusCode, raw)
			}
		}(i)
	}
	wg.Wait()

	// A panicked entry is released: with MaxSessions 1, the next repo's
	// push evicts it.
	boom.Store(true)
	if resp, _ := pushStatus(t, srv.URL, "boom", sessionPushRequest{Files: tree}); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("second panicking push status = %d, want 500", resp.StatusCode)
	}
	boom.Store(false)
	pushOK(t, srv.URL, "other", sessionPushRequest{Files: sessionBaseTree()})
	st = getStats(t, srv.URL)
	if st.Panics != 2 || st.Sessions.EvictionsLRU != 1 || st.Sessions.Live != 1 {
		t.Fatalf("panicked repo was not evicted: engine %+v sessions %+v", st.Stats, st.Sessions)
	}
	if resp, _ := pushStatus(t, srv.URL, "boom", sessionPushRequest{Changed: map[string]string{"util.rs": edited}}); resp.StatusCode != http.StatusConflict {
		t.Errorf("diff push to the evicted repo: status = %d, want 409", resp.StatusCode)
	}
}

// TestSessionEndpointQueueFull503: session rounds take engine queue slots,
// so a saturated queue rejects a push with 503 + Retry-After, and the
// rejected push leaves its session at the last good round.
func TestSessionEndpointQueueFull503(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }

	eng := engine.New(engine.Config{Workers: 1, QueueDepth: 1, QueueReject: true})
	pool := sessionpool.New(eng, sessionpool.Config{
		TestRoundHook: func(repo string) func() {
			if strings.HasPrefix(repo, "slow") {
				<-gate
			}
			return func() {}
		},
	})
	srv := httptest.NewServer(newServer(eng, serverOptions{timeout: 30 * time.Second, pool: pool}))
	defer func() { srv.Close(); pool.Close(); eng.Close() }()
	defer release() // LIFO: unblock the worker before Close drains it

	tree := sessionBaseTree()
	pushOK(t, srv.URL, "r", sessionPushRequest{Files: tree})

	var wg sync.WaitGroup
	slowPush := func(repo string) {
		defer wg.Done()
		body, _ := json.Marshal(sessionPushRequest{Files: map[string]string{"s.rs": "fn s() {}\n"}})
		if resp, raw := postSessionPush(t, srv.URL, repo, string(body)); resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d: %s", repo, resp.StatusCode, raw)
		}
	}
	// Occupy the single worker, then the single queue slot.
	wg.Add(1)
	go slowPush("slow-1")
	waitForStat(t, "first round on the worker", func() bool { return eng.Stats().JobsInFlight == 1 })
	wg.Add(1)
	go slowPush("slow-2")
	waitForStat(t, "second round queued", func() bool { return eng.Stats().QueueDepth == 1 })

	edited := strings.Replace(sessUtilSrc, "x + 1", "x + 8", 1)
	resp, e := pushStatus(t, srv.URL, "r", sessionPushRequest{Changed: map[string]string{"util.rs": edited}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("push into a full queue: status = %d (%+v), want 503", resp.StatusCode, e)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	if !strings.Contains(e.Error, "queue is full") {
		t.Errorf("error payload = %+v", e)
	}
	if got := eng.Stats().QueueRejected; got != 1 {
		t.Errorf("QueueRejected = %d, want 1", got)
	}

	release()
	wg.Wait()
	// The rejected diff never reached the session: re-pushing the last
	// good tree is a pure replay.
	res := pushOK(t, srv.URL, "r", sessionPushRequest{Files: tree})
	if res.Stats.Full || !res.Stats.SessionHit || res.Stats.FilesReparsed != 0 {
		t.Fatalf("push after a rejected round lost the session: %+v", res.Stats)
	}
	requireEquivalent(t, srv.URL, tree, res.Findings, "push after queue-full rejection")
}
