package engine_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rustprobe/internal/engine"
	"rustprobe/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, engine.StoreVersion())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStoreTierSurvivesRestart is the fleet-scale core claim: results
// computed before a daemon restart are served from disk by the next
// process, observable as store hits.
func TestStoreTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	req := engine.Request{Files: map[string]string{"uaf.rs": uafSrc}}

	// First engine lifetime: compute and persist.
	e1 := engine.New(engine.Config{Workers: 2, Store: openStore(t, dir)})
	first, err := e1.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first analysis reported a cache hit")
	}
	e1.Close() // drains the write-behind put

	// Second engine lifetime (fresh LRU = simulated restart): the
	// result must come from the persistent tier without re-analysis.
	e2 := engine.New(engine.Config{Workers: 2, Store: openStore(t, dir)})
	defer e2.Close()
	second, err := e2.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit || !second.StoreHit {
		t.Fatalf("restart replay: CacheHit=%v StoreHit=%v, want both true", second.CacheHit, second.StoreHit)
	}
	if !reflect.DeepEqual(first.Findings, second.Findings) {
		t.Fatalf("store round-trip changed findings:\n%v\nvs\n%v", first.Findings, second.Findings)
	}
	st := e2.Stats()
	if st.StoreHits != 1 {
		t.Fatalf("StoreHits = %d, want 1", st.StoreHits)
	}
	if st.JobsCompleted != 0 {
		t.Fatalf("restart replay ran %d jobs, want 0", st.JobsCompleted)
	}

	// The store hit was promoted into the LRU: a third submission is a
	// memory hit, not a disk read.
	third, err := e2.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !third.CacheHit || third.StoreHit {
		t.Fatalf("post-promotion: CacheHit=%v StoreHit=%v, want memory hit", third.CacheHit, third.StoreHit)
	}
}

// TestStoreTierSharedByReplicas runs two engines concurrently over one
// store directory — the shared-volume replica shape — and checks both
// serve correct results and at least one benefits from the other's
// writes.
func TestStoreTierSharedByReplicas(t *testing.T) {
	dir := t.TempDir()
	a := engine.New(engine.Config{Workers: 2, Store: openStore(t, dir)})
	b := engine.New(engine.Config{Workers: 2, Store: openStore(t, dir)})

	reqs := mixedRequests()
	want := make([][]engine.Finding, len(reqs))
	for i, req := range reqs {
		want[i] = serialResponse(t, req)
	}
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for i, req := range reqs {
			for _, e := range []*engine.Engine{a, b} {
				wg.Add(1)
				go func(e *engine.Engine, i int, req engine.Request) {
					defer wg.Done()
					resp, err := e.Analyze(context.Background(), req)
					if err != nil {
						t.Errorf("replica analyze: %v", err)
						return
					}
					if !reflect.DeepEqual(normalize(resp.Findings), normalize(want[i])) {
						t.Errorf("replica req %d: findings differ", i)
					}
				}(e, i, req)
			}
		}
	}
	wg.Wait()
	a.Close()
	b.Close()
	sa, sb := a.Stats(), b.Stats()
	if sa.StoreQuarantined+sb.StoreQuarantined != 0 {
		t.Fatalf("replica sharing quarantined entries: %d/%d", sa.StoreQuarantined, sb.StoreQuarantined)
	}
	if sa.StorePutErrors+sb.StorePutErrors != 0 {
		t.Fatalf("replica sharing put errors: %d/%d", sa.StorePutErrors, sb.StorePutErrors)
	}
}

// TestStoreTierQuarantineIsolatesPoison poisons persisted entries in
// every way the store guards against and checks the engine transparently
// re-analyzes instead of failing or serving garbage.
func TestStoreTierQuarantineIsolatesPoison(t *testing.T) {
	dir := t.TempDir()
	req := engine.Request{Files: map[string]string{"dl.rs": doubleLockSrc}}

	e1 := engine.New(engine.Config{Workers: 1, Store: openStore(t, dir)})
	want, err := e1.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	e1.Close()

	// Truncate every persisted entry (torn write at the worst moment).
	var poisoned int
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || strings.Contains(path, "quarantine") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		poisoned++
		return os.WriteFile(path, data[:len(data)/3], 0o644)
	})
	if poisoned == 0 {
		t.Fatal("no persisted entries to poison; write-behind broken?")
	}

	e2 := engine.New(engine.Config{Workers: 1, Store: openStore(t, dir)})
	defer e2.Close()
	got, err := e2.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got.CacheHit || got.StoreHit {
		t.Fatal("poisoned entry served as a hit")
	}
	if !reflect.DeepEqual(got.Findings, want.Findings) {
		t.Fatal("re-analysis after quarantine produced different findings")
	}
	if st := e2.Stats(); st.StoreQuarantined == 0 {
		t.Fatalf("StoreQuarantined = 0 after poisoning, stats=%+v", st)
	}
}

// TestStoreTierNonJSONPayloadIsMiss: the store serves any payload whose
// head and checksum match what Put wrote, without re-checking its JSON
// syntax. An entry whose checksummed payload is not JSON must be a
// miss to the engine, and the next analysis must overwrite it.
func TestStoreTierNonJSONPayloadIsMiss(t *testing.T) {
	dir := t.TempDir()
	req := engine.Request{Files: map[string]string{"dl.rs": doubleLockSrc}}

	e1 := engine.New(engine.Config{Workers: 1, Store: openStore(t, dir)})
	want, err := e1.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	e1.Close()

	st := openStore(t, dir)
	var keys []string
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || strings.Contains(path, "quarantine") {
			return err
		}
		keys = append(keys, filepath.Base(path))
		return st.Put(filepath.Base(path), []byte(`{"findings":[`))
	})
	if len(keys) == 0 {
		t.Fatal("no persisted entries to rewrite; write-behind broken?")
	}
	for _, k := range keys {
		if _, ok := st.Get(k); !ok {
			t.Fatalf("store refused a checksum-valid entry %s", k)
		}
	}

	e2 := engine.New(engine.Config{Workers: 1, Store: openStore(t, dir)})
	got, err := e2.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got.CacheHit || got.StoreHit {
		t.Fatal("non-JSON payload served as a hit")
	}
	if !reflect.DeepEqual(got.Findings, want.Findings) {
		t.Fatal("re-analysis produced different findings")
	}
	if st := e2.Stats(); st.StoreQuarantined != 0 {
		t.Fatalf("checksum-valid entry quarantined: %+v", st)
	}
	e2.Close() // drains the overwriting put

	for _, k := range keys {
		payload, ok := openStore(t, dir).Get(k)
		if !ok || !json.Valid(payload) {
			t.Fatalf("entry %s not overwritten: %q ok=%v", k, payload, ok)
		}
	}
	e3 := engine.New(engine.Config{Workers: 1, Store: openStore(t, dir)})
	defer e3.Close()
	third, err := e3.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !third.StoreHit || !reflect.DeepEqual(third.Findings, want.Findings) {
		t.Fatalf("overwritten entry: StoreHit=%v findings=%v", third.StoreHit, third.Findings)
	}
}

// TestStoreTierVersionMismatchInvalidates writes entries under an old
// analyzer version and checks a current-version engine refuses them.
func TestStoreTierVersionMismatchInvalidates(t *testing.T) {
	dir := t.TempDir()
	req := engine.Request{Files: map[string]string{"clean.rs": cleanSrc}}
	key := req.Key()

	old, err := store.Open(dir, "rustprobe-0-obsolete")
	if err != nil {
		t.Fatal(err)
	}
	stale, _ := json.Marshal(map[string]any{"findings": []any{map[string]any{
		"kind": "use-after-free", "severity": "error", "function": "ghost",
		"file": "clean.rs", "line": 1, "column": 1, "message": "stale result that must never surface",
	}}})
	if err := old.Put(key, stale); err != nil {
		t.Fatal(err)
	}

	e := engine.New(engine.Config{Workers: 1, Store: openStore(t, dir)})
	defer e.Close()
	resp, err := e.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StoreHit {
		t.Fatal("stale-version entry served")
	}
	for _, f := range resp.Findings {
		if f.Function == "ghost" {
			t.Fatal("stale findings leaked into a fresh analysis")
		}
	}
	if st := e.Stats(); st.StoreQuarantined != 1 {
		t.Fatalf("StoreQuarantined = %d, want 1", st.StoreQuarantined)
	}
}

// normalize sorts findings into a comparison-stable order matching the
// engine's output (already sorted) — it exists so reflect.DeepEqual
// treats nil and empty slices alike.
func normalize(fs []engine.Finding) []engine.Finding {
	if len(fs) == 0 {
		return nil
	}
	return fs
}

// TestStoreWriteBehindPersistsPastQueue: more completed analyses than
// the write-behind queue holds are all on disk once Close returns,
// whether a put went through the queue or overflowed it.
func TestStoreWriteBehindPersistsPastQueue(t *testing.T) {
	dir := t.TempDir()
	e := engine.New(engine.Config{Workers: 2, Store: openStore(t, dir)})
	const n = 1500
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += 4 {
				src := fmt.Sprintf("fn f%d() {}\n", i)
				if _, err := e.Analyze(context.Background(), engine.Request{Files: map[string]string{"a.rs": src}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	e.Close()
	if got := openStore(t, dir).Stats().Entries; got != n {
		t.Fatalf("store holds %d entries after Close, want %d", got, n)
	}
}
