package sessionpool

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"rustprobe"
	"rustprobe/internal/engine"
	"rustprobe/internal/incrstate"
	"rustprobe/internal/store"
)

var (
	uafSrc = `fn stale(v: Vec<i32>) {
    let p = v.as_ptr();
    drop(v);
    unsafe { let x = *p; }
}
fn helper(x: i32) -> i32 {
    x + 1
}
`
	dlockSrc = `struct Shared { mu: Mutex<i32> }
impl Shared {
    fn twice(&self) {
        let a = self.mu.lock().unwrap();
        let b = self.mu.lock().unwrap();
    }
}
`
)

// testEngine is the worker pool a test pool's rounds run on, closed when
// the test ends.
func testEngine(t *testing.T) *engine.Engine {
	t.Helper()
	return storeEngine(t, nil)
}

// storeEngine is testEngine over a persistent store: the pool restores
// from it and persists through the engine's write-behind writers, which
// Engine.Close flushes (Close is idempotent, so tests may close early).
func storeEngine(t *testing.T, st *store.Store) *engine.Engine {
	t.Helper()
	eng := engine.New(engine.Config{Workers: 4, Store: st})
	t.Cleanup(eng.Close)
	return eng
}

func baseTree() map[string]string {
	return map[string]string{"util.rs": uafSrc, "lib.rs": dlockSrc}
}

// oracleFindings is the stateless reference: a from-scratch analysis of
// the same tree in the pool's wire shape.
func oracleFindings(t *testing.T, files map[string]string) []incrstate.Finding {
	t.Helper()
	res, err := rustprobe.AnalyzeFiles(files)
	if err != nil {
		t.Fatalf("oracle analysis: %v", err)
	}
	out := rustprobe.ResolveFindings(res.Fset, res.Detect())
	sort.SliceStable(out, func(i, j int) bool { return incrstate.Less(&out[i], &out[j]) })
	return out
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestPoolPushAndDiff(t *testing.T) {
	p := New(testEngine(t), Config{})
	ctx := context.Background()
	files := baseTree()

	res, err := p.Push(ctx, "repo-a", files)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Full || res.Stats.SessionHit {
		t.Fatalf("first push stats: %+v", res.Stats)
	}
	if got, want := mustJSON(t, res.Findings), mustJSON(t, oracleFindings(t, files)); got != want {
		t.Fatalf("first push findings diverge\n got: %s\nwant: %s", got, want)
	}

	// Body-only diff push: incremental, hits the live session, replays
	// the untouched double-lock, recomputes only the dirty closure.
	changed := map[string]string{"util.rs": strings.Replace(uafSrc, "x + 1", "x + 2", 1)}
	res, err = p.PushDiff(ctx, "repo-a", changed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Full || !res.Stats.SessionHit {
		t.Fatalf("diff push stats: %+v", res.Stats)
	}
	if res.Stats.FindingsReused == 0 || res.Stats.RootsDetected >= res.Stats.FuncsTotal {
		t.Fatalf("diff push not dirty-closure-only: %+v", res.Stats)
	}
	after := baseTree()
	after["util.rs"] = changed["util.rs"]
	if got, want := mustJSON(t, res.Findings), mustJSON(t, oracleFindings(t, after)); got != want {
		t.Fatalf("diff push findings diverge\n got: %s\nwant: %s", got, want)
	}

	// Diff removal of a file is a structural change — still correct.
	res, err = p.PushDiff(ctx, "repo-a", nil, []string{"lib.rs"})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, res.Findings), mustJSON(t, oracleFindings(t, map[string]string{"util.rs": after["util.rs"]})); got != want {
		t.Fatalf("removal push findings diverge\n got: %s\nwant: %s", got, want)
	}

	st := p.Stats()
	if st.Live != 1 || st.Pushes != 3 || st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("pool stats: %+v", st)
	}
}

func TestPoolDiffWithoutSession(t *testing.T) {
	p := New(testEngine(t), Config{})
	if _, err := p.PushDiff(context.Background(), "never-pushed", map[string]string{"a.rs": "fn f() {}\n"}, nil); err != ErrNoSession {
		t.Fatalf("diff without session: err = %v, want ErrNoSession", err)
	}
}

func TestPoolSyntaxErrorKeepsSession(t *testing.T) {
	p := New(testEngine(t), Config{})
	ctx := context.Background()
	if _, err := p.Push(ctx, "r", baseTree()); err != nil {
		t.Fatal(err)
	}
	_, err := p.PushDiff(ctx, "r", map[string]string{"util.rs": "fn oops( {"}, nil)
	var syn *rustprobe.SyntaxError
	if err == nil || !errors.As(err, &syn) {
		t.Fatalf("broken push err = %v, want *rustprobe.SyntaxError", err)
	}
	// The diff base is still the last good tree.
	res, err := p.PushDiff(ctx, "r", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, res.Findings), mustJSON(t, oracleFindings(t, baseTree())); got != want {
		t.Fatal("session state corrupted by failed push")
	}
}

func TestPoolLRUEviction(t *testing.T) {
	p := New(testEngine(t), Config{MaxSessions: 2})
	ctx := context.Background()
	tree := map[string]string{"a.rs": "fn f() {}\n"}
	for _, repo := range []string{"r1", "r2", "r3"} {
		if _, err := p.Push(ctx, repo, tree); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Live != 2 || st.EvictionsLRU != 1 {
		t.Fatalf("after 3 pushes with cap 2: %+v", st)
	}
	// r1 was the LRU victim; its next push is a miss.
	if res, err := p.Push(ctx, "r1", tree); err != nil {
		t.Fatal(err)
	} else if res.Stats.SessionHit {
		t.Fatal("evicted repo reported a session hit")
	}
}

func TestPoolTTLEviction(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	p := New(testEngine(t), Config{IdleTTL: time.Minute, Now: clock})
	ctx := context.Background()
	tree := map[string]string{"a.rs": "fn f() {}\n"}
	if _, err := p.Push(ctx, "r", tree); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Minute)
	if _, err := p.Push(ctx, "other", tree); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.EvictionsTTL != 1 || st.Live != 1 {
		t.Fatalf("TTL eviction stats: %+v", st)
	}
}

func TestPoolStoreRestore(t *testing.T) {
	dir := t.TempDir()
	open := func() *store.Store {
		s, err := store.Open(dir, "test-v1")
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ctx := context.Background()
	files := baseTree()

	eng1 := storeEngine(t, open())
	p1 := New(eng1, Config{})
	if _, err := p1.Push(ctx, "repo", files); err != nil {
		t.Fatal(err)
	}
	p1.Close()
	eng1.Close()

	// New pool, same store: the first push restores and a body-only edit
	// runs incrementally.
	p2 := New(storeEngine(t, open()), Config{})
	edited := baseTree()
	edited["util.rs"] = strings.Replace(uafSrc, "x + 1", "x + 9", 1)
	res, err := p2.Push(ctx, "repo", edited)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Full || !res.Stats.Restored || res.Stats.FindingsReused == 0 {
		t.Fatalf("restored push stats: %+v", res.Stats)
	}
	if got, want := mustJSON(t, res.Findings), mustJSON(t, oracleFindings(t, edited)); got != want {
		t.Fatalf("restored push findings diverge\n got: %s\nwant: %s", got, want)
	}
	if st := p2.Stats(); st.Restores != 1 {
		t.Fatalf("restore counter: %+v", st)
	}

	// A diff push right after restart still fails: the diff base is the
	// in-memory tree, which did not survive.
	p3 := New(storeEngine(t, open()), Config{})
	if _, err := p3.PushDiff(ctx, "repo", map[string]string{"util.rs": uafSrc}, nil); err != ErrNoSession {
		t.Fatalf("post-restart diff err = %v, want ErrNoSession", err)
	}
}

// TestPoolFlushesLatestSnapshot: snapshots persist write-behind. After
// K rounds of one repo, closing the pool and then the engine leaves the
// final round's snapshot on disk, byte-identical to what a session with
// the same history exports; every round's snapshot was either written
// or coalesced into a later one; and a new epoch on the same store
// restores it, so its first push runs no full round.
func TestPoolFlushesLatestSnapshot(t *testing.T) {
	dir := t.TempDir()
	open := func() *store.Store {
		s, err := store.Open(dir, "test-v1")
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ctx := context.Background()
	tree := func(i int) map[string]string {
		files := baseTree()
		files["util.rs"] = strings.Replace(uafSrc, "x + 1", fmt.Sprintf("x + %d", i), 1)
		return files
	}

	const rounds = 12
	eng1 := storeEngine(t, open())
	p1 := New(eng1, Config{})
	ref := rustprobe.NewSession()
	for i := 1; i <= rounds; i++ {
		if _, err := p1.Push(ctx, "repo", tree(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Analyze(tree(i)); err != nil {
			t.Fatal(err)
		}
	}
	p1.Close()
	eng1.Close()
	st := p1.Stats()
	if st.StateSaves+st.StateSavesCoalesced != rounds || st.StateSaveErrors != 0 || st.StateSaves == 0 {
		t.Fatalf("snapshot outcomes after %d rounds: %+v", rounds, st)
	}

	want, err := incrstate.Encode(ref.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	s2 := open()
	if got, ok := s2.Get(SessionKey("repo")); !ok || string(got) != string(want) {
		t.Fatalf("stored snapshot is not the final round's (ok=%v)\n got: %s\nwant: %s", ok, got, want)
	}

	p2 := New(storeEngine(t, s2), Config{})
	res, err := p2.Push(ctx, "repo", tree(rounds+1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Full || !res.Stats.Restored || res.Stats.ChangedFns != 1 {
		t.Fatalf("first push of the new epoch: %+v", res.Stats)
	}
	if st := p2.Stats(); st.FullRounds != 0 || st.Restores != 1 {
		t.Fatalf("new epoch stats: %+v", st)
	}
}

// TestPoolCountsSnapshotOutcomes: each write-behind outcome lands in its
// own counter, and a superseded snapshot counts as coalesced, not failed.
func TestPoolCountsSnapshotOutcomes(t *testing.T) {
	p := &Pool{}
	p.saved(nil)
	p.saved(fmt.Errorf("put: %w", engine.ErrSuperseded))
	p.saved(errors.New("disk full"))
	if st := p.Stats(); st.StateSaves != 1 || st.StateSavesCoalesced != 1 || st.StateSaveErrors != 1 {
		t.Fatalf("stats = %+v, want one save, one coalesced and one error", st)
	}
}

func TestPoolCorruptAndStaleStoreState(t *testing.T) {
	ctx := context.Background()
	files := baseTree()

	t.Run("corrupt on disk", func(t *testing.T) {
		dir := t.TempDir()
		s1, err := store.Open(dir, "test-v1")
		if err != nil {
			t.Fatal(err)
		}
		eng1 := storeEngine(t, s1)
		p1 := New(eng1, Config{})
		if _, err := p1.Push(ctx, "repo", files); err != nil {
			t.Fatal(err)
		}
		p1.Close()
		eng1.Close()
		// Smash the persisted snapshot's bytes on disk. The store's
		// checksum catches it, quarantines the entry, and the next epoch's
		// push runs a clean full round.
		smashed := 0
		filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() || !strings.Contains(path, "sess-") {
				return err
			}
			smashed++
			return os.WriteFile(path, []byte("garbage"), 0o644)
		})
		if smashed == 0 {
			t.Fatal("no persisted session snapshot found to corrupt")
		}
		s2, err := store.Open(dir, "test-v1")
		if err != nil {
			t.Fatal(err)
		}
		p2 := New(storeEngine(t, s2), Config{})
		res, err := p2.Push(ctx, "repo", files)
		if err != nil {
			t.Fatalf("push over corrupt state failed: %v", err)
		}
		if !res.Stats.Full {
			t.Fatalf("corrupt state should force a full round: %+v", res.Stats)
		}
		if got, want := mustJSON(t, res.Findings), mustJSON(t, oracleFindings(t, files)); got != want {
			t.Fatal("full round over corrupt state diverges")
		}
		if st := p2.Stats(); st.Restores != 0 {
			t.Fatalf("corrupt state counted as a restore: %+v", st)
		}
	})

	t.Run("previous layout payload", func(t *testing.T) {
		// The snapshot a release before the per-file layout wrote: the
		// same hashes and findings as flat per-plane maps, under that
		// release's version string. It is discarded like any stale
		// snapshot: one full round, counted as such, and no error.
		dir := t.TempDir()
		s1, err := store.Open(dir, "test-v1")
		if err != nil {
			t.Fatal(err)
		}
		sess := rustprobe.NewSession()
		if _, err := sess.Analyze(files); err != nil {
			t.Fatal(err)
		}
		st := sess.ExportState()
		flat := map[string]any{
			"version":        strings.TrimSuffix(rustprobe.StateVersion(), ":"+incrstate.Layout),
			"findings":       st.Findings,
			"local_findings": map[string][]incrstate.Finding{},
		}
		planes := map[string]map[string]string{"files": {}, "interfaces": {}, "fn_bodies": {}, "fn_pos": {}}
		for name, f := range st.Files {
			planes["files"][name], planes["interfaces"][name] = f.V.Content, f.V.Interface
			maps.Copy(planes["fn_bodies"], f.V.FnBodies)
			maps.Copy(planes["fn_pos"], f.V.FnPos)
		}
		for plane, m := range planes {
			flat[plane] = m
		}
		for root, fs := range st.Local {
			flat["local_findings"].(map[string][]incrstate.Finding)[root] = fs.V
		}
		payload, err := json.Marshal(flat)
		if err != nil {
			t.Fatal(err)
		}
		if err := s1.Put(SessionKey("repo"), payload); err != nil {
			t.Fatal(err)
		}
		p := New(storeEngine(t, s1), Config{})
		res, err := p.Push(ctx, "repo", files)
		if err != nil {
			t.Fatalf("push over a previous-layout snapshot failed: %v", err)
		}
		if !res.Stats.Full {
			t.Fatalf("previous-layout snapshot should force a full round: %+v", res.Stats)
		}
		if got, want := mustJSON(t, res.Findings), mustJSON(t, oracleFindings(t, files)); got != want {
			t.Fatal("full round over a previous-layout snapshot diverges")
		}
		if st := p.Stats(); st.Restores != 0 || st.FullRounds != 1 {
			t.Fatalf("stats %+v, want no restore and one full round", st)
		}
	})

	t.Run("stale version payload", func(t *testing.T) {
		dir := t.TempDir()
		s1, err := store.Open(dir, "test-v1")
		if err != nil {
			t.Fatal(err)
		}
		// A checksum-valid store entry whose incrstate payload names an
		// old analyzer version: decodes fail, push falls back to full.
		stale := &incrstate.State{Version: "0:ancient", Files: map[string]*incrstate.Sealed[incrstate.File]{}}
		payload, err := incrstate.Encode(stale)
		if err != nil {
			t.Fatal(err)
		}
		if err := s1.Put(SessionKey("repo"), payload); err != nil {
			t.Fatal(err)
		}
		p := New(storeEngine(t, s1), Config{})
		res, err := p.Push(ctx, "repo", files)
		if err != nil {
			t.Fatalf("push over stale state failed: %v", err)
		}
		if !res.Stats.Full {
			t.Fatalf("stale state should force a full round: %+v", res.Stats)
		}
		if st := p.Stats(); st.Restores != 0 {
			t.Fatalf("stale state counted as a restore: %+v", st)
		}
	})
}

func TestPoolClosed(t *testing.T) {
	p := New(testEngine(t), Config{})
	p.Close()
	if _, err := p.Push(context.Background(), "r", map[string]string{"a.rs": "fn f() {}\n"}); err != ErrClosed {
		t.Fatalf("push after close: err = %v, want ErrClosed", err)
	}
}

func TestPoolContextCancelled(t *testing.T) {
	p := New(testEngine(t), Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Push(ctx, "r", map[string]string{"a.rs": "fn f() {}\n"}); err != context.Canceled {
		t.Fatalf("cancelled push err = %v, want context.Canceled", err)
	}
}

// TestPoolCallerOwnedInputs: the pool must copy the pushed file map —
// a client reusing its map buffer between pushes cannot corrupt the
// session's diff base.
func TestPoolCallerOwnedInputs(t *testing.T) {
	p := New(testEngine(t), Config{})
	ctx := context.Background()
	files := baseTree()
	if _, err := p.Push(ctx, "r", files); err != nil {
		t.Fatal(err)
	}
	files["util.rs"] = "fn changed() {}\n" // caller mutates its map
	res, err := p.PushDiff(ctx, "r", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, res.Findings), mustJSON(t, oracleFindings(t, baseTree())); got != want {
		t.Fatal("caller mutation leaked into the session's diff base")
	}
}
