package engine_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"rustprobe/internal/engine"
)

const badSrc = `fn broken( { let = ; }`

func newBatchEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New(engine.Config{Workers: 4})
	t.Cleanup(e.Close)
	return e
}

// TestBatchMixedFiles submits a set mixing buggy, clean, and unparseable
// files: every parseable file gets its findings, the unparseable one
// gets an isolated source error, and nothing fails the set.
func TestBatchMixedFiles(t *testing.T) {
	e := newBatchEngine(t)
	resp, err := e.AnalyzeBatch(context.Background(), engine.BatchRequest{Files: map[string]string{
		"uaf.rs":    uafSrc,
		"dl.rs":     doubleLockSrc,
		"clean.rs":  cleanSrc,
		"broken.rs": badSrc,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Files != 4 || resp.Errors != 1 {
		t.Fatalf("Files=%d Errors=%d, want 4/1", resp.Files, resp.Errors)
	}

	if got := resp.Results["broken.rs"]; got.ErrorKind != engine.BatchErrSource || got.Diagnostics == "" ||
		got.Error != engine.SyntaxErrorMessage {
		t.Fatalf("broken.rs entry = %+v, want isolated source error with diagnostics kept out of error", got)
	}
	for name, wantSrc := range map[string]string{"uaf.rs": uafSrc, "dl.rs": doubleLockSrc} {
		entry := resp.Results[name]
		if entry.Error != "" {
			t.Fatalf("%s: unexpected error %q", name, entry.Error)
		}
		want := serialResponse(t, engine.Request{Files: map[string]string{name: wantSrc}})
		if !reflect.DeepEqual(normalize(entry.Findings), normalize(want)) {
			t.Fatalf("%s: batch findings differ from direct analysis", name)
		}
		if len(entry.Findings) == 0 {
			t.Fatalf("%s: expected findings", name)
		}
	}
	if entry := resp.Results["clean.rs"]; entry.Error != "" || len(entry.Findings) != 0 {
		t.Fatalf("clean.rs entry = %+v, want clean success", entry)
	}
}

// TestBatchPerFileAndSetCaching checks that a batch is cached file by
// file: a resubmitted identical set runs no analysis and every entry is
// a cache hit with the same findings, and a partially changed set still
// hits per file for the unchanged members.
func TestBatchPerFileAndSetCaching(t *testing.T) {
	e := newBatchEngine(t)
	files := map[string]string{"uaf.rs": uafSrc, "dl.rs": doubleLockSrc, "clean.rs": cleanSrc}

	first, err := e.AnalyzeBatch(context.Background(), engine.BatchRequest{Files: files})
	if err != nil {
		t.Fatal(err)
	}
	for name, entry := range first.Results {
		if entry.CacheHit {
			t.Fatalf("%s: first batch claimed a cache hit", name)
		}
	}

	// Identical resubmission: every entry is served by the per-file tier.
	jobsBefore := e.Stats().JobsCompleted
	second, err := e.AnalyzeBatch(context.Background(), engine.BatchRequest{Files: files})
	if err != nil {
		t.Fatal(err)
	}
	if ran := e.Stats().JobsCompleted - jobsBefore; ran != 0 {
		t.Fatalf("unchanged-set resubmission ran %d jobs, want 0", ran)
	}
	for name, entry := range second.Results {
		if !entry.CacheHit {
			t.Fatalf("%s: unchanged-set resubmission missed the per-file cache", name)
		}
		if !reflect.DeepEqual(normalize(entry.Findings), normalize(first.Results[name].Findings)) {
			t.Fatalf("%s: resubmission findings differ from the first batch", name)
		}
	}

	// One file changes: the two unchanged files ride their per-file
	// cache entries — only the changed file runs.
	jobsBefore = e.Stats().JobsCompleted
	changed := map[string]string{"uaf.rs": uafSrc, "dl.rs": doubleLockSrc, "clean.rs": cleanSrc + "\nfn extra() {}\n"}
	third, err := e.AnalyzeBatch(context.Background(), engine.BatchRequest{Files: changed})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"uaf.rs", "dl.rs"} {
		if !third.Results[name].CacheHit {
			t.Fatalf("%s unchanged but missed the per-file cache", name)
		}
	}
	if third.Results["clean.rs"].CacheHit {
		t.Fatal("changed file reported a cache hit")
	}
	if ran := e.Stats().JobsCompleted - jobsBefore; ran != 1 {
		t.Fatalf("partial change ran %d jobs, want 1 (O(diff), not O(repo))", ran)
	}
}

// TestBatchSetCacheSkipsTransientFailures: a batch containing an
// isolated panic entry caches only its good files; resubmitting the set
// recomputes the failed file.
func TestBatchSetCacheSkipsTransientFailures(t *testing.T) {
	panics := 0
	e := engine.New(engine.Config{
		Workers: 1,
		TestDetectHook: func(ctx context.Context, req engine.Request) {
			if _, ok := req.Files["boom.rs"]; ok && panics == 0 {
				panics++
				panic("injected batch panic")
			}
		},
	})
	t.Cleanup(e.Close)
	files := map[string]string{"boom.rs": cleanSrc, "ok.rs": cleanSrc}

	first, err := e.AnalyzeBatch(context.Background(), engine.BatchRequest{Files: files})
	if err != nil {
		t.Fatal(err)
	}
	if got := first.Results["boom.rs"]; got.ErrorKind != engine.BatchErrInternal {
		t.Fatalf("boom.rs = %+v, want internal error entry", got)
	}
	if got := first.Results["ok.rs"]; got.Error != "" {
		t.Fatalf("panic leaked across batch entries: %+v", got)
	}

	// Resubmission re-runs the failed file (hook no longer panics) and
	// must succeed — a cached transient failure would be served forever.
	second, err := e.AnalyzeBatch(context.Background(), engine.BatchRequest{Files: files})
	if err != nil {
		t.Fatal(err)
	}
	if got := second.Results["boom.rs"]; got.Error != "" || got.CacheHit {
		t.Fatalf("retry = %+v, want a fresh successful analysis", got)
	}
	if got := second.Results["ok.rs"]; !got.CacheHit {
		t.Fatalf("ok.rs = %+v, want a cache hit", got)
	}
}

// TestBatchValidation: malformed batches fail as a unit with a request
// error.
func TestBatchValidation(t *testing.T) {
	e := newBatchEngine(t)
	var reqErr *engine.RequestError
	if _, err := e.AnalyzeBatch(context.Background(), engine.BatchRequest{}); !errors.As(err, &reqErr) {
		t.Fatalf("empty batch: err = %v, want RequestError", err)
	}
	if _, err := e.AnalyzeBatch(context.Background(), engine.BatchRequest{
		Files:     map[string]string{"a.rs": cleanSrc},
		Detectors: []string{"nope"},
	}); !errors.As(err, &reqErr) {
		t.Fatalf("unknown detector: err = %v, want RequestError", err)
	}
}

// TestBatchCancellation: a dead context fails the batch as a whole
// rather than returning a partial map.
func TestBatchCancellation(t *testing.T) {
	e := newBatchEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	files := map[string]string{}
	for i := 0; i < 8; i++ {
		files[fmt.Sprintf("f%d.rs", i)] = fmt.Sprintf("fn f%d() {}\n", i)
	}
	if _, err := e.AnalyzeBatch(ctx, engine.BatchRequest{Files: files}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch: err = %v, want context.Canceled", err)
	}
}

// TestBatchLargeSetThroughStore: a generated many-file repo flows
// through batch + store; a second engine (restart) serves the whole set
// from disk with zero fresh jobs.
func TestBatchLargeSetThroughStore(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{}
	for i := 0; i < 24; i++ {
		files[fmt.Sprintf("mod_%02d.rs", i)] = fmt.Sprintf("fn work_%02d(x: i32) -> i32 { x + %d }\n", i, i)
	}

	e1 := engine.New(engine.Config{Workers: 4, Store: openStore(t, dir)})
	if _, err := e1.AnalyzeBatch(context.Background(), engine.BatchRequest{Files: files}); err != nil {
		t.Fatal(err)
	}
	e1.Close()

	e2 := engine.New(engine.Config{Workers: 4, Store: openStore(t, dir)})
	defer e2.Close()
	resp, err := e2.AnalyzeBatch(context.Background(), engine.BatchRequest{Files: files})
	if err != nil {
		t.Fatal(err)
	}
	for name, entry := range resp.Results {
		if entry.Error != "" {
			t.Fatalf("%s: %s", name, entry.Error)
		}
		if !entry.StoreHit {
			t.Fatalf("%s not served from the persistent tier after restart", name)
		}
	}
	st := e2.Stats()
	if st.JobsCompleted != 0 {
		t.Fatalf("restart replay ran %d jobs, want 0", st.JobsCompleted)
	}
	if st.StoreHits != uint64(len(files)) {
		t.Fatalf("StoreHits = %d, want %d", st.StoreHits, len(files))
	}
}
