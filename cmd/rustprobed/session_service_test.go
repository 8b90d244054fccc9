package main

// Session-service tests: the stateful /v1/sessions/{repo}/push tier.
//
// The correctness spine is TestSessionEquivalenceSweep, a gen-driven
// differential sweep: scripted repo histories (body edits, structural
// edits, file adds/removes, reverts) are pushed through the session
// endpoint — mixing full-map and diff pushes — and after every step the
// session's findings must be byte-identical, file by file, to a
// stateless /v1/analyze-batch of the same tree. The session service may
// replay, restore, and dirty-closure its way through the history, but
// it may never *show* it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"rustprobe/internal/engine"
	"rustprobe/internal/gen"
	"rustprobe/internal/incrstate"
	"rustprobe/internal/sessionpool"
	"rustprobe/internal/store"
)

// Fixture tree: one interprocedural use-after-free file and one
// double-lock file, so body edits in one leave replayable findings in
// the other.
var (
	sessUtilSrc = `fn stale(v: Vec<i32>) {
    let p = v.as_ptr();
    drop(v);
    unsafe { let x = *p; }
}
fn sess_helper(x: i32) -> i32 {
    x + 1
}
`
	sessLibSrc = `struct Guarded { mu: Mutex<i32> }
impl Guarded {
    fn twice(&self) {
        let a = self.mu.lock().unwrap();
        let b = self.mu.lock().unwrap();
    }
}
`
)

func sessionBaseTree() map[string]string {
	return map[string]string{"util.rs": sessUtilSrc, "lib.rs": sessLibSrc}
}

// newSessionServer mounts the full daemon handler with a session pool
// (and optionally a shared persistent store) on an httptest listener.
func newSessionServer(t *testing.T, st *store.Store) (*httptest.Server, *sessionpool.Pool) {
	t.Helper()
	eng := engine.New(engine.Config{Workers: 2, Store: st})
	pool := sessionpool.New(eng, sessionpool.Config{})
	srv := httptest.NewServer(newServer(eng, serverOptions{timeout: 30 * time.Second, pool: pool}))
	t.Cleanup(func() {
		srv.Close()
		pool.Close()
		eng.Close()
	})
	return srv, pool
}

func postSessionPush(t *testing.T, url, repo, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/sessions/"+repo+"/push", "application/json", strings.NewReader(body))
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

// pushOK sends one push (full map or diff) and decodes the 200 response.
func pushOK(t *testing.T, url, repo string, req sessionPushRequest) sessionPushResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := postSessionPush(t, url, repo, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("push status = %d, body = %s", resp.StatusCode, raw)
	}
	var out sessionPushResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("invalid push response: %v\n%s", err, raw)
	}
	return out
}

// batchOracle analyzes files statelessly through /v1/analyze-batch and
// returns per-file findings in the session wire shape.
func batchOracle(t *testing.T, url string, files map[string]string) map[string][]incrstate.Finding {
	t.Helper()
	reqBody, err := json.Marshal(engine.BatchRequest{Files: files})
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := postBatch(t, url, string(reqBody))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("oracle batch status = %d: %s", resp.StatusCode, raw)
	}
	var got batchResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]incrstate.Finding, len(files))
	for name, entry := range got.Results {
		if entry.Error != "" {
			t.Fatalf("oracle batch: %s failed: %s", name, entry.Error)
		}
		fs := make([]incrstate.Finding, 0, len(entry.Findings))
		for _, f := range entry.Findings {
			fs = append(fs, incrstate.Finding{
				Kind: f.Kind, Severity: f.Severity, Function: f.Function,
				File: f.File, Line: f.Line, Column: f.Column, Message: f.Message, Notes: f.Notes,
			})
		}
		out[name] = fs
	}
	return out
}

// requireEquivalent byte-compares the session findings, grouped per
// file, against the stateless batch oracle of the same tree. ctx labels
// the failure (seed + step for the sweep).
func requireEquivalent(t *testing.T, url string, files map[string]string, sessionFindings []incrstate.Finding, ctx string) {
	t.Helper()
	oracle := batchOracle(t, url, files)
	byFile := make(map[string][]incrstate.Finding)
	for _, f := range sessionFindings {
		byFile[f.File] = append(byFile[f.File], f)
	}
	for name := range files {
		got, err := json.Marshal(byFile[name])
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(oracle[name])
		if err != nil {
			t.Fatal(err)
		}
		if gs, ws := string(got), string(want); gs != ws && !(gs == "null" && ws == "[]") {
			t.Errorf("%s: session findings diverge from stateless batch for %s\n session: %s\n   batch: %s", ctx, name, gs, ws)
		}
	}
	for name := range byFile {
		if _, ok := files[name]; !ok {
			t.Errorf("%s: session reported findings for %s, which is not in the tree", ctx, name)
		}
	}
}

// TestSessionEndpointPushAndDiff is the endpoint's acceptance pin: a
// full push builds the session, and a 1-file body-diff re-push runs
// dirty-closure detection only — incremental, strictly fewer roots than
// functions, with cached findings replayed — while staying equivalent
// to the stateless oracle.
func TestSessionEndpointPushAndDiff(t *testing.T) {
	srv, _ := newSessionServer(t, nil)
	tree := sessionBaseTree()

	res := pushOK(t, srv.URL, "org/base", sessionPushRequest{Files: tree})
	if !res.Stats.Full || res.Stats.SessionHit {
		t.Fatalf("first push stats: %+v", res.Stats)
	}
	requireEquivalent(t, srv.URL, tree, res.Findings, "full push")

	// 1-file body edit via diff push: only the dirty closure re-detects.
	edited := strings.Replace(sessUtilSrc, "x + 1", "x + 41", 1)
	tree["util.rs"] = edited
	res = pushOK(t, srv.URL, "org/base", sessionPushRequest{Changed: map[string]string{"util.rs": edited}})
	if res.Stats.Full || !res.Stats.SessionHit {
		t.Fatalf("diff push stats: %+v", res.Stats)
	}
	if res.Stats.ChangedFns != 1 {
		t.Fatalf("1-file body edit changed %d functions, want 1: %+v", res.Stats.ChangedFns, res.Stats)
	}
	if res.Stats.RootsDetected == 0 || res.Stats.RootsDetected >= res.Stats.FuncsTotal {
		t.Fatalf("diff push did not run dirty-closure-only detection: %+v", res.Stats)
	}
	if res.Stats.FindingsReused == 0 {
		t.Fatalf("diff push replayed no cached findings: %+v", res.Stats)
	}
	requireEquivalent(t, srv.URL, tree, res.Findings, "diff push")

	// Diff removal: structural, still equivalent.
	delete(tree, "lib.rs")
	res = pushOK(t, srv.URL, "org/base", sessionPushRequest{Removed: []string{"lib.rs"}})
	requireEquivalent(t, srv.URL, tree, res.Findings, "removal push")

	// URL-escaped repo names route to their own sessions.
	res = pushOK(t, srv.URL, "org%2Fother", sessionPushRequest{Files: sessionBaseTree()})
	if res.Stats.SessionHit {
		t.Fatal("escaped repo name aliased an existing session")
	}
}

// TestSessionEndpointErrors covers the request-level failure mapping.
func TestSessionEndpointErrors(t *testing.T) {
	srv, _ := newSessionServer(t, nil)

	if resp, err := http.Get(srv.URL + "/v1/sessions/x/push"); err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET session push: %v %d", err, resp.StatusCode)
	}
	for _, path := range []string{"/v1/sessions/", "/v1/sessions/norepo"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(`{"files":{"a.rs":"fn a() {}"}}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s status = %d, want 404", path, resp.StatusCode)
		}
	}

	badBodies := []string{
		`{`,             // malformed JSON
		`{}`,            // neither form
		`{"files": {}}`, // full push with no files
		`{"bogus": 1}`,  // unknown field
		`{"files": {"a.rs": "fn a() {}"}, "changed": {"b.rs": "fn b() {}"}}`, // both forms
	}
	for _, body := range badBodies {
		resp, raw := postSessionPush(t, srv.URL, "r", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: status = %d, want 400 (%s)", body, resp.StatusCode, raw)
		}
	}

	// Diff push with no live session: 409, client should re-push in full.
	resp, raw := postSessionPush(t, srv.URL, "never-seen", `{"changed": {"a.rs": "fn a() {}"}}`)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("diff without session: status = %d (%s)", resp.StatusCode, raw)
	}

	// Syntax errors: 422 with diagnostics, and the session survives.
	pushOK(t, srv.URL, "r2", sessionPushRequest{Files: sessionBaseTree()})
	resp, raw = postSessionPush(t, srv.URL, "r2", `{"changed": {"util.rs": "fn broken( {"}}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("broken push status = %d (%s)", resp.StatusCode, raw)
	}
	var e errorResponse
	if err := json.Unmarshal(raw, &e); err != nil || !strings.Contains(e.Diagnostics, "util.rs") || e.Error != engine.SyntaxErrorMessage {
		t.Errorf("broken push diagnostics = %s", raw)
	}
	// The failed push did not poison the session: the diff base is still
	// the last good tree, so a follow-up body diff stays incremental.
	res := pushOK(t, srv.URL, "r2", sessionPushRequest{Changed: map[string]string{"util.rs": strings.Replace(sessUtilSrc, "x + 1", "x + 5", 1)}})
	if res.Stats.Full {
		t.Fatalf("session lost its state after a rejected push: %+v", res.Stats)
	}
}

// TestSessionStatsAndMetrics: pool counters surface under the stats
// "sessions" key and as rustprobed_session_* series; a daemon without
// the session service exposes neither.
func TestSessionStatsAndMetrics(t *testing.T) {
	srv, _ := newSessionServer(t, nil)
	pushOK(t, srv.URL, "m", sessionPushRequest{Files: sessionBaseTree()})
	edited := strings.Replace(sessUtilSrc, "x + 1", "x + 7", 1)
	pushOK(t, srv.URL, "m", sessionPushRequest{Changed: map[string]string{"util.rs": edited}})

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Sessions == nil {
		t.Fatal("/stats is missing the sessions block")
	}
	if st.Sessions.Pushes != 2 || st.Sessions.Hits != 1 || st.Sessions.Misses != 1 || st.Sessions.Live != 1 {
		t.Fatalf("session stats: %+v", st.Sessions)
	}
	if st.Sessions.FullRounds != 1 || st.Sessions.IncrementalRounds != 1 || st.Sessions.FindingsReplayed == 0 {
		t.Fatalf("session round stats: %+v", st.Sessions)
	}

	if v := scrapeMetric(t, srv.URL, "rustprobed_session_pushes_total"); v != 2 {
		t.Errorf("rustprobed_session_pushes_total = %v, want 2", v)
	}
	if v := scrapeMetric(t, srv.URL, "rustprobed_session_incremental_rounds_total"); v != 1 {
		t.Errorf("rustprobed_session_incremental_rounds_total = %v, want 1", v)
	}
	if v := scrapeMetric(t, srv.URL, "rustprobed_sessions_live"); v != 1 {
		t.Errorf("rustprobed_sessions_live = %v, want 1", v)
	}
	if v := scrapeMetric(t, srv.URL, "rustprobed_session_findings_replayed_total"); v == 0 {
		t.Error("rustprobed_session_findings_replayed_total = 0 after an incremental round")
	}

	// Store-backed daemon: every round's snapshot is written behind the
	// push, so the save counters settle shortly after the pushes return.
	dir := t.TempDir()
	stored, err := store.Open(dir, engine.StoreVersion())
	if err != nil {
		t.Fatal(err)
	}
	ssrv, _ := newSessionServer(t, stored)
	pushOK(t, ssrv.URL, "m", sessionPushRequest{Files: sessionBaseTree()})
	pushOK(t, ssrv.URL, "m", sessionPushRequest{Changed: map[string]string{"util.rs": edited}})
	deadline := time.Now().Add(10 * time.Second)
	for {
		saves := scrapeMetric(t, ssrv.URL, "rustprobed_session_state_saves_total")
		coalesced := scrapeMetric(t, ssrv.URL, "rustprobed_session_state_saves_coalesced_total")
		if saves+coalesced == 2 && saves >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session snapshot outcomes never settled: %v saved, %v coalesced, want 2 in total", saves, coalesced)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if v := scrapeMetric(t, ssrv.URL, "rustprobed_session_state_save_errors_total"); v != 0 {
		t.Errorf("rustprobed_session_state_save_errors_total = %v, want 0", v)
	}

	// Pool-less daemon: no session route, no session series.
	bare, _ := newTestServer(t)
	if resp, err := http.Post(bare.URL+"/v1/sessions/x/push", "application/json", strings.NewReader(`{"files":{"a.rs":"fn a() {}"}}`)); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Errorf("pool-less session push: %v %d, want 404", err, resp.StatusCode)
	}
	mresp, err := http.Get(bare.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	if strings.Contains(buf.String(), "rustprobed_session") {
		t.Error("pool-less daemon exposes session metrics")
	}
}

// --- the gen-driven equivalence sweep ---

// topLevelName matches every declared top-level-ish identifier (fns,
// structs, impl targets) in a generated program. The sweep combines
// several generated programs into one tree, and the session analyzes
// that tree as a single program while the batch oracle analyzes each
// file alone — so programs sharing a struct or function name would
// legitimately diverge (cross-file resolution, global lock-order
// aliasing). Disjoint names make the two views semantically identical,
// which is exactly the property the sweep verifies.
var topLevelName = regexp.MustCompile(`(?m)^\s*(?:(?:pub|unsafe|async|const)\s+)*(?:fn|struct|trait|enum|impl)\s+([A-Za-z_][A-Za-z0-9_]*)`)

// sweepProgram is one admitted program: the generated variant and its
// buggy/clean twin, used as the "body edit" mutation.
type sweepProgram struct {
	main, twin *gen.Program
}

func (p sweepProgram) src(alt bool) string {
	s := p.main.Source
	if alt {
		s = p.twin.Source
	}
	// Strip the generated-header comment: it names the variant, so with
	// it in place a variant toggle would differ outside function bodies
	// and force a full round. Without it, toggling a body-stable twin is
	// a body-only edit the session analyzes incrementally — the rounds
	// the sweep's fact-reuse and graph-patch assertions exercise.
	if i := strings.Index(s, "\n"); i >= 0 && strings.HasPrefix(s, "// generated:") {
		s = s[i+1:]
	}
	return s
}

// disjointPrograms admits up to n generated programs whose declared
// names (across both variants) are pairwise disjoint.
func disjointPrograms(seed int64, n int) []sweepProgram {
	taken := map[string]bool{}
	var out []sweepProgram
	for sub := int64(0); sub < 400 && len(out) < n; sub++ {
		main := gen.Generate(seed*1000 + sub)
		twin := gen.New(main.Seed, main.Kind, !main.Buggy)
		names := topLevelName.FindAllStringSubmatch(main.Source+"\n"+twin.Source, -1)
		ok := true
		for _, m := range names {
			if taken[m[1]] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, m := range names {
			taken[m[1]] = true
		}
		out = append(out, sweepProgram{main: main, twin: twin})
	}
	return out
}

// sweepFile is one tree entry's state: which pool program it holds,
// which variant, and any structural suffix appended by an "extend"
// mutation.
type sweepFile struct {
	prog   int
	alt    bool
	suffix string
}

func sweepSeedCount(t *testing.T) int {
	if s := os.Getenv("RUSTPROBED_SWEEP_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("RUSTPROBED_SWEEP_SEEDS=%q: %v", s, err)
		}
		return n
	}
	if testing.Short() {
		return 8
	}
	return 40
}

// TestSessionEquivalenceSweep drives scripted mutation sequences — body
// edits (buggy/clean variant toggles), structural edits (appended
// functions), file adds and removes, and reverts to earlier snapshots —
// through /v1/sessions, mixing full-map and diff pushes, and demands
// byte-identical per-file findings against /v1/analyze-batch at every
// step. Any discrepancy reports its seed, step, and mutation op.
func TestSessionEquivalenceSweep(t *testing.T) {
	// Every incremental round cross-checks the patched call graph against
	// a from-scratch rebuild (fingerprint mismatch panics the round), so
	// the sweep's byte-identity bar also anchors the graph-patching layer.
	t.Setenv("RUSTPROBE_GRAPH_CHECK", "1")
	seeds := sweepSeedCount(t)
	srv, _ := newSessionServer(t, nil)

	var steps, diffPushes, incrementalRounds, factsReused int
	for seed := 0; seed < seeds; seed++ {
		s, d, incr, reused := runMutationScript(t, srv.URL, int64(seed))
		steps += s
		diffPushes += d
		incrementalRounds += incr
		factsReused += reused
		if t.Failed() {
			t.Fatalf("equivalence sweep aborted at seed %d", seed)
		}
	}
	// The sweep must actually exercise the incremental machinery, not
	// degenerate into all-full rounds.
	if diffPushes == 0 || incrementalRounds == 0 {
		t.Fatalf("sweep was degenerate: %d steps, %d diff pushes, %d incremental rounds", steps, diffPushes, incrementalRounds)
	}
	// And the incremental rounds must actually reuse global-detector
	// facts — a sweep where every round re-extracts everything would pass
	// the byte-identity bar while proving nothing about the caches.
	if factsReused == 0 {
		t.Fatalf("no global-detector facts reused across %d incremental rounds", incrementalRounds)
	}
	t.Logf("sweep: %d seeds, %d steps, %d diff pushes, %d incremental rounds, %d global facts reused — zero discrepancies", seeds, steps, diffPushes, incrementalRounds, factsReused)
}

// runMutationScript plays one seed's scripted history against its own
// session, returning (steps, diff pushes, incremental rounds, global
// facts reused on incremental rounds).
func runMutationScript(t *testing.T, url string, seed int64) (int, int, int, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pool := disjointPrograms(seed, 5)
	if len(pool) < 3 {
		t.Fatalf("seed %d: only %d disjoint programs found", seed, len(pool))
	}

	tree := map[string]*sweepFile{
		"m0.rs": {prog: 0},
		"m1.rs": {prog: 1},
	}
	render := func() map[string]string {
		files := make(map[string]string, len(tree))
		for path, f := range tree {
			files[path] = pool[f.prog].src(f.alt) + f.suffix
		}
		return files
	}
	snapshot := func() map[string]*sweepFile {
		cp := make(map[string]*sweepFile, len(tree))
		for k, v := range tree {
			c := *v
			cp[k] = &c
		}
		return cp
	}
	// Deterministic random path choice (map iteration order is not).
	pickPath := func() string {
		paths := make([]string, 0, len(tree))
		for p := range tree {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		return paths[rng.Intn(len(paths))]
	}

	repo := fmt.Sprintf("sweep/%d", seed)
	prev := render()
	res := pushOK(t, url, repo, sessionPushRequest{Files: prev})
	requireEquivalent(t, url, prev, res.Findings, fmt.Sprintf("seed %d step 0 (initial full push)", seed))

	snapshots := []map[string]*sweepFile{snapshot()}
	steps, diffPushes, incremental, factsReused := 1, 0, 0, 0
	for step := 1; step <= 6 && !t.Failed(); step++ {
		op := ""
		switch rng.Intn(5) {
		case 0: // body edit: toggle the buggy/clean twin
			p := pickPath()
			tree[p].alt = !tree[p].alt
			op = "body-toggle " + p
		case 1: // structural edit: append a fresh function
			p := pickPath()
			tree[p].suffix += fmt.Sprintf("\nfn sweep_extra_%d_%d(x: i32) -> i32 { x + %d }\n", seed, step, step)
			op = "extend " + p
		case 2: // add an unused pool program as a new file
			added := false
			for i := range pool {
				path := fmt.Sprintf("m%d.rs", i)
				if _, ok := tree[path]; !ok {
					tree[path] = &sweepFile{prog: i}
					op = "add " + path
					added = true
					break
				}
			}
			if !added {
				p := pickPath()
				tree[p].alt = !tree[p].alt
				op = "body-toggle(full-pool) " + p
			}
		case 3: // remove a file, keeping the tree non-empty
			if len(tree) > 1 {
				p := pickPath()
				delete(tree, p)
				op = "remove " + p
			} else {
				tree["m2.rs"] = &sweepFile{prog: 2}
				op = "add(min-tree) m2.rs"
			}
		case 4: // revert to an earlier snapshot (copied, so later ops don't mutate history)
			saved := snapshots[rng.Intn(len(snapshots))]
			tree = make(map[string]*sweepFile, len(saved))
			for k, v := range saved {
				c := *v
				tree[k] = &c
			}
			op = "revert"
		}

		files := render()
		changed := map[string]string{}
		var removed []string
		for path, src := range files {
			if prev[path] != src {
				changed[path] = src
			}
		}
		for path := range prev {
			if _, ok := files[path]; !ok {
				removed = append(removed, path)
			}
		}
		sort.Strings(removed)

		var res sessionPushResponse
		if rng.Intn(2) == 0 || len(changed)+len(removed) == 0 {
			// Full push (also the only wire shape for a no-op step, e.g. a
			// revert back to the current tree — which exercises pure replay).
			res = pushOK(t, url, repo, sessionPushRequest{Files: files})
			op += " [full push]"
		} else {
			res = pushOK(t, url, repo, sessionPushRequest{Changed: changed, Removed: removed})
			diffPushes++
			op += " [diff push]"
		}
		if !res.Stats.Full {
			incremental++
			// Incremental rounds that re-analyzed anything patch the
			// previous round's call graph instead of rebuilding; the stats
			// must say so. (Pure-replay rounds — no changed functions —
			// never reach the detectors or the graph.)
			if res.Stats.ChangedFns > 0 && !res.Stats.GraphPatched {
				t.Errorf("seed %d step %d (%s): incremental round did not patch the call graph", seed, step, op)
			}
			factsReused += res.Stats.GlobalFactsReused
		}
		t.Logf("seed %d step %d: %s stats=%+v", seed, step, op, res.Stats)
		requireEquivalent(t, url, files, res.Findings, fmt.Sprintf("seed %d step %d (%s)", seed, step, op))
		prev = files
		snapshots = append(snapshots, snapshot())
		steps++
	}
	return steps, diffPushes, incremental, factsReused
}

// --- restart persistence ---

// TestSessionRestartPersistence: with -store-dir, session state
// survives daemon restarts. A second daemon epoch sharing the store
// directory restores the repo's session from disk, so a 1-file body
// diff after restart runs only the dirty closure — pinned through
// /metrics (one restore, zero full rounds, replayed findings) and the
// round stats. Corrupt or version-stale snapshots degrade to a clean
// full round instead.
func TestSessionRestartPersistence(t *testing.T) {
	openStore := func(dir string) *store.Store {
		st, err := store.Open(dir, engine.StoreVersion())
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	// One daemon epoch: engine + pool + server over the shared store.
	epoch := func(dir string) (*httptest.Server, func()) {
		st := openStore(dir)
		eng := engine.New(engine.Config{Workers: 2, Store: st})
		pool := sessionpool.New(eng, sessionpool.Config{})
		srv := httptest.NewServer(newServer(eng, serverOptions{timeout: 30 * time.Second, pool: pool}))
		return srv, func() {
			srv.Close()
			pool.Close()
			eng.Close()
		}
	}

	t.Run("warm restart runs dirty closure only", func(t *testing.T) {
		dir := t.TempDir()
		srv1, close1 := epoch(dir)
		res := pushOK(t, srv1.URL, "persist/repo", sessionPushRequest{Files: sessionBaseTree()})
		if !res.Stats.Full {
			t.Fatalf("cold push stats: %+v", res.Stats)
		}
		close1()

		srv2, close2 := epoch(dir)
		defer close2()
		tree := sessionBaseTree()
		tree["util.rs"] = strings.Replace(sessUtilSrc, "x + 1", "x + 99", 1)
		res = pushOK(t, srv2.URL, "persist/repo", sessionPushRequest{Files: tree})
		if res.Stats.Full || !res.Stats.Restored || res.Stats.SessionHit {
			t.Fatalf("post-restart push stats: %+v", res.Stats)
		}
		if res.Stats.ChangedFns != 1 || res.Stats.RootsDetected >= res.Stats.FuncsTotal || res.Stats.FindingsReused == 0 {
			t.Fatalf("post-restart push not dirty-closure-only: %+v", res.Stats)
		}
		requireEquivalent(t, srv2.URL, tree, res.Findings, "post-restart push")

		if v := scrapeMetric(t, srv2.URL, "rustprobed_session_restores_total"); v != 1 {
			t.Errorf("rustprobed_session_restores_total = %v, want 1", v)
		}
		if v := scrapeMetric(t, srv2.URL, "rustprobed_session_full_rounds_total"); v != 0 {
			t.Errorf("rustprobed_session_full_rounds_total = %v, want 0", v)
		}
		if v := scrapeMetric(t, srv2.URL, "rustprobed_session_findings_replayed_total"); v == 0 {
			t.Error("rustprobed_session_findings_replayed_total = 0 after restored round")
		}
		if v := scrapeMetric(t, srv2.URL, "rustprobed_session_roots_detected_total"); v == 0 || int(v) >= res.Stats.FuncsTotal {
			t.Errorf("rustprobed_session_roots_detected_total = %v, want in (0, %d)", v, res.Stats.FuncsTotal)
		}

		// A diff push right after restart has no in-memory base: 409.
		resp, _ := postSessionPush(t, srv2.URL, "persist/other", `{"changed": {"util.rs": "fn f() {}"}}`)
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("post-restart diff status = %d, want 409", resp.StatusCode)
		}
	})

	t.Run("corrupt snapshot degrades to full round", func(t *testing.T) {
		dir := t.TempDir()
		srv1, close1 := epoch(dir)
		pushOK(t, srv1.URL, "persist/corrupt", sessionPushRequest{Files: sessionBaseTree()})
		close1()

		smashed := 0
		filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() || !strings.Contains(path, "sess-") {
				return err
			}
			smashed++
			return os.WriteFile(path, []byte("not json"), 0o644)
		})
		if smashed == 0 {
			t.Fatal("no persisted session snapshot found to corrupt")
		}

		srv2, close2 := epoch(dir)
		defer close2()
		res := pushOK(t, srv2.URL, "persist/corrupt", sessionPushRequest{Files: sessionBaseTree()})
		if !res.Stats.Full || res.Stats.Restored {
			t.Fatalf("push over corrupt snapshot: %+v", res.Stats)
		}
		requireEquivalent(t, srv2.URL, sessionBaseTree(), res.Findings, "corrupt-snapshot push")
		if v := scrapeMetric(t, srv2.URL, "rustprobed_session_restores_total"); v != 0 {
			t.Errorf("corrupt snapshot counted as a restore: %v", v)
		}
	})

	t.Run("stale-version snapshot degrades to full round", func(t *testing.T) {
		dir := t.TempDir()
		st := openStore(dir)
		stale := &incrstate.State{Version: "0:ancient", Files: map[string]*incrstate.Sealed[incrstate.File]{}}
		payload, err := incrstate.Encode(stale)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(sessionpool.SessionKey("persist/stale"), payload); err != nil {
			t.Fatal(err)
		}

		eng := engine.New(engine.Config{Workers: 2, Store: st})
		pool := sessionpool.New(eng, sessionpool.Config{})
		srv := httptest.NewServer(newServer(eng, serverOptions{timeout: 30 * time.Second, pool: pool}))
		defer func() { srv.Close(); pool.Close(); eng.Close() }()

		res := pushOK(t, srv.URL, "persist/stale", sessionPushRequest{Files: sessionBaseTree()})
		if !res.Stats.Full || res.Stats.Restored {
			t.Fatalf("push over stale snapshot: %+v", res.Stats)
		}
		if v := scrapeMetric(t, srv.URL, "rustprobed_session_restores_total"); v != 0 {
			t.Errorf("stale snapshot counted as a restore: %v", v)
		}
	})
}
