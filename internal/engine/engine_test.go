package engine_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rustprobe"
	"rustprobe/internal/engine"
)

const uafSrc = `
fn f() {
    let v = Vec::new();
    let p = v.as_ptr();
    drop(v);
    unsafe { let x = *p; }
}
`

const doubleLockSrc = `
struct S { v: i32 }
fn f(mu: Mutex<S>) {
    let a = mu.lock().unwrap();
    let b = mu.lock().unwrap();
}
`

const cleanSrc = `
fn add(a: i32, b: i32) -> i32 { a + b }
`

// mixedRequests is the shared job set: corpus groups plus synthetic
// sources, with and without detector selections.
func mixedRequests() []engine.Request {
	return []engine.Request{
		{Corpus: "detector-eval"},
		{Corpus: "patterns"},
		{Corpus: "unsafe"},
		{Files: map[string]string{"uaf.rs": uafSrc}},
		{Files: map[string]string{"dl.rs": doubleLockSrc}, Detectors: []string{"double-lock"}},
		{Files: map[string]string{"clean.rs": cleanSrc}},
		{Files: map[string]string{"a.rs": uafSrc, "b.rs": doubleLockSrc}},
	}
}

// serialResponse computes the expected response for req with the plain
// serial pipeline: rustprobe.Analyze* + Result.Detect.
func serialResponse(t testing.TB, req engine.Request) []engine.Finding {
	t.Helper()
	var (
		res *rustprobe.Result
		err error
	)
	if req.Corpus != "" {
		res, err = rustprobe.AnalyzeCorpus(req.Corpus)
	} else {
		res, err = rustprobe.AnalyzeFiles(req.Files)
	}
	if err != nil {
		t.Fatalf("serial analyze: %v", err)
	}
	return engine.FindingsFrom(res.Fset, res.Detect(req.Detectors...))
}

func TestEngineMatchesSerialUnderConcurrency(t *testing.T) {
	reqs := mixedRequests()
	want := make([][]engine.Finding, len(reqs))
	for i, r := range reqs {
		want[i] = serialResponse(t, r)
	}

	eng := engine.New(engine.Config{Workers: 4, QueueDepth: 4})
	defer eng.Close()

	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(reqs))
	for round := 0; round < rounds; round++ {
		for i, r := range reqs {
			wg.Add(1)
			go func(i int, r engine.Request) {
				defer wg.Done()
				resp, err := eng.Analyze(context.Background(), r)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(resp.Findings, want[i]) {
					t.Errorf("request %d: engine findings diverge from serial pipeline\n got: %+v\nwant: %+v", i, resp.Findings, want[i])
				}
			}(i, r)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	s := eng.Stats()
	if s.JobsSubmitted != rounds*uint64(len(reqs)) {
		t.Errorf("submitted = %d, want %d", s.JobsSubmitted, rounds*len(reqs))
	}
	// Every submission is either analyzed, served from cache, or
	// coalesced onto an identical in-flight analysis (singleflight).
	if s.JobsCompleted+s.CacheHits+s.DedupHits != s.JobsSubmitted {
		t.Errorf("completed(%d) + hits(%d) + dedup(%d) != submitted(%d)",
			s.JobsCompleted, s.CacheHits, s.DedupHits, s.JobsSubmitted)
	}
	if s.JobsInFlight != 0 || s.QueueDepth != 0 {
		t.Errorf("idle engine reports in-flight=%d queue=%d", s.JobsInFlight, s.QueueDepth)
	}
}

func TestEngineCacheHitOnResubmission(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1})
	defer eng.Close()
	req := engine.Request{Files: map[string]string{"uaf.rs": uafSrc}}

	first, err := eng.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first submission reported a cache hit")
	}
	if len(first.Findings) != 1 || first.Findings[0].Kind != "use-after-free" {
		t.Fatalf("findings = %+v", first.Findings)
	}

	second, err := eng.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Error("identical resubmission was not served from cache")
	}
	if !reflect.DeepEqual(first.Findings, second.Findings) {
		t.Errorf("cached findings diverge: %+v vs %+v", first.Findings, second.Findings)
	}

	// A different detector selection is a different cache key.
	third, err := eng.Analyze(context.Background(), engine.Request{
		Files: req.Files, Detectors: []string{"double-lock"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if third.CacheHit {
		t.Error("different detector selection must not hit the cache")
	}

	s := eng.Stats()
	if s.CacheHits != 1 || s.CacheMisses != 2 {
		t.Errorf("hits=%d misses=%d, want 1/2", s.CacheHits, s.CacheMisses)
	}
	if s.CacheSize != 2 {
		t.Errorf("cache size = %d, want 2", s.CacheSize)
	}
}

func TestEngineCacheLRUEviction(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1, CacheCapacity: 1})
	defer eng.Close()
	a := engine.Request{Files: map[string]string{"a.rs": cleanSrc}}
	b := engine.Request{Files: map[string]string{"b.rs": cleanSrc}}

	for _, r := range []engine.Request{a, b, a} {
		resp, err := eng.Analyze(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if resp.CacheHit {
			t.Error("every submission should miss: capacity 1 evicts the other entry")
		}
	}
	s := eng.Stats()
	if s.CacheMisses != 3 || s.CacheHits != 0 || s.CacheSize != 1 {
		t.Errorf("stats = %+v, want 3 misses, 0 hits, size 1", s)
	}
}

// TestEnginePerDetectorStats: the /stats breakdown accumulates wall time
// under each detector that actually ran, and only those.
func TestEnginePerDetectorStats(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1, CacheCapacity: -1})
	defer eng.Close()

	if _, err := eng.Analyze(context.Background(), engine.Request{
		Files: map[string]string{"dl.rs": doubleLockSrc}, Detectors: []string{"double-lock"},
	}); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if len(s.DetectorMSTotal) != 1 {
		t.Fatalf("breakdown after a single-detector job = %+v, want only double-lock", s.DetectorMSTotal)
	}
	if _, ok := s.DetectorMSTotal["double-lock"]; !ok {
		t.Fatalf("breakdown missing double-lock: %+v", s.DetectorMSTotal)
	}

	if _, err := eng.Analyze(context.Background(), engine.Request{Corpus: "patterns"}); err != nil {
		t.Fatal(err)
	}
	s = eng.Stats()
	for _, name := range []string{"use-after-free", "double-lock", "race"} {
		if _, ok := s.DetectorMSTotal[name]; !ok {
			t.Errorf("full-suite job left no %s entry: %+v", name, s.DetectorMSTotal)
		}
	}
}

func TestEngineRequestValidation(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1})
	defer eng.Close()
	bad := []engine.Request{
		{},
		{Files: map[string]string{"a.rs": cleanSrc}, Corpus: "patterns"},
		{Corpus: "no-such-group"},
		{Files: map[string]string{"a.rs": cleanSrc}, Detectors: []string{"no-such-detector"}},
	}
	for i, r := range bad {
		_, err := eng.Analyze(context.Background(), r)
		var reqErr *engine.RequestError
		if !errors.As(err, &reqErr) {
			t.Errorf("request %d: err = %v, want RequestError", i, err)
		}
	}
}

func TestEngineSyntaxError(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1})
	defer eng.Close()
	_, err := eng.Analyze(context.Background(), engine.Request{
		Files: map[string]string{"bad.rs": "fn broken( {"},
	})
	var synErr *rustprobe.SyntaxError
	if !errors.As(err, &synErr) {
		t.Fatalf("err = %v, want *rustprobe.SyntaxError", err)
	}
	if !strings.Contains(synErr.Diags, "bad.rs") {
		t.Errorf("SyntaxError diagnostics do not name the file: %q", synErr.Diags)
	}
	if s := eng.Stats(); s.JobsFailed != 1 {
		t.Errorf("failed = %d, want 1", s.JobsFailed)
	}
}

func TestEngineClose(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2})
	eng.Close()
	eng.Close() // idempotent
	if _, err := eng.Analyze(context.Background(), engine.Request{Corpus: "unsafe"}); err == nil {
		t.Error("Analyze after Close should fail")
	}
}

// TestEngineCacheHitsAreIsolated: every cache hit must receive its own
// Findings slice — a caller sorting, truncating, or rewriting its
// response must not be visible to any other caller or corrupt the
// cached value for future submissions.
func TestEngineCacheHitsAreIsolated(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2})
	defer eng.Close()
	req := engine.Request{Files: map[string]string{"multi.rs": `
fn use_after_free() {
    let v = Vec::new();
    let p = v.as_ptr();
    drop(v);
    unsafe { let x = *p; }
}
struct S { v: i32 }
fn relock(mu: Mutex<S>) {
    let a = mu.lock().unwrap();
    let b = mu.lock().unwrap();
}
`}}

	baseline, err := eng.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline.Findings) < 2 {
		t.Fatalf("want >= 2 findings to make mutation observable, got %+v", baseline.Findings)
	}
	want := append([]engine.Finding(nil), baseline.Findings...)

	hit, err := eng.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Fatal("resubmission was not a cache hit")
	}
	// Vandalize the hit's response in place.
	hit.Findings[0], hit.Findings[1] = hit.Findings[1], hit.Findings[0]
	hit.Findings[0].Message = "mutated"
	hit.Findings = hit.Findings[:1]

	again, err := eng.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("third submission was not a cache hit")
	}
	if !reflect.DeepEqual(again.Findings, want) {
		t.Errorf("mutation through a cache hit leaked into the cache:\ngot  %+v\nwant %+v", again.Findings, want)
	}

	// Concurrent hits mutating their own copies must be race-free
	// (meaningful under -race) and observation-free.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := eng.Analyze(context.Background(), req)
			if err != nil {
				t.Error(err)
				return
			}
			for j := range r.Findings {
				r.Findings[j].Message = "scribbled"
			}
		}()
	}
	wg.Wait()
	final, err := eng.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(final.Findings, want) {
		t.Errorf("concurrent mutation leaked into the cache: %+v", final.Findings)
	}
}
