package rustprobe

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rustprobe/internal/gen"
)

// fullDetect runs a from-scratch analysis and returns the formatted
// findings, sorted — the oracle every incremental round must match.
func fullDetect(t *testing.T, files map[string]string) []string {
	t.Helper()
	res, err := AnalyzeFiles(files)
	if err != nil {
		t.Fatalf("full analysis: %v", err)
	}
	findings := res.Detect()
	out := make([]string, len(findings))
	for i, f := range findings {
		out[i] = f.Format(res.Fset)
	}
	sort.Strings(out)
	return out
}

// TestSessionMatchesFullOnMutations drives a multi-file repo through a
// scripted edit sequence and checks every incremental round's findings
// equal a from-scratch analysis of the same sources.
func TestSessionMatchesFullOnMutations(t *testing.T) {
	base := map[string]string{
		"lib.rs": `struct Shared { mu: Mutex<i32> }
impl Shared {
    fn twice(&self) {
        let a = self.mu.lock().unwrap();
        let b = self.mu.lock().unwrap();
    }
}
`,
		"util.rs": `fn stale(v: Vec<i32>) {
    let p = v.as_ptr();
    drop(v);
    unsafe { let x = *p; }
}
fn helper(x: i32) -> i32 {
    x + 1
}
fn caller() {
    let y = helper(2);
}
`,
		"main.rs": `fn main() {
    caller();
}
`,
	}

	s := NewSession()
	check := func(step string, files map[string]string, up *Update) {
		t.Helper()
		want := fullDetect(t, files)
		got := sessionStrings(up)
		if !equalStrings(got, want) {
			t.Fatalf("%s: incremental findings diverge from full analysis\n got: %v\nwant: %v", step, got, want)
		}
	}

	up, err := s.Analyze(base)
	if err != nil {
		t.Fatal(err)
	}
	if !up.Stats.Full || up.Stats.FullReason != "first analysis" {
		t.Fatalf("first round stats = %+v, want full build", up.Stats)
	}
	check("initial", base, up)

	// Round 2: identical resubmission — nothing recomputed.
	up, err = s.Analyze(base)
	if err != nil {
		t.Fatal(err)
	}
	if up.Stats.Full || up.Stats.FilesReparsed != 0 || up.Stats.FuncsLowered != 0 {
		t.Fatalf("no-change round stats = %+v, want pure reuse", up.Stats)
	}
	check("no-change", base, up)

	// Round 3: body-only edit introducing a new bug in one function.
	r3 := clone(base)
	r3["util.rs"] = `fn stale(v: Vec<i32>) {
    let p = v.as_ptr();
    drop(v);
    unsafe { let x = *p; }
}
fn helper(x: i32) -> i32 {
    let w = Vec::new();
    let q = w.as_ptr();
    drop(w);
    unsafe { let z = *q; }
    x + 1
}
fn caller() {
    let y = helper(2);
}
`
	up, err = s.Analyze(r3)
	if err != nil {
		t.Fatal(err)
	}
	if up.Stats.Full {
		t.Fatalf("body-only edit forced a full build: %+v", up.Stats)
	}
	if up.Stats.FilesReparsed != 1 {
		t.Fatalf("FilesReparsed = %d, want 1", up.Stats.FilesReparsed)
	}
	if up.Stats.FuncsLowered == 0 || up.Stats.BodiesReused == 0 {
		t.Fatalf("stats = %+v, want partial lowering with reuse", up.Stats)
	}
	check("introduce-bug", r3, up)

	// Round 4: revert — the bug disappears again, still incrementally.
	up, err = s.Analyze(base)
	if err != nil {
		t.Fatal(err)
	}
	if up.Stats.Full {
		t.Fatalf("revert forced a full build: %+v", up.Stats)
	}
	check("revert", base, up)

	// Round 5: interface change (new function) falls back to full.
	r5 := clone(base)
	r5["main.rs"] = `fn main() {
    caller();
}
fn fresh() {}
`
	up, err = s.Analyze(r5)
	if err != nil {
		t.Fatal(err)
	}
	if !up.Stats.Full {
		t.Fatalf("interface change did not rebuild: %+v", up.Stats)
	}
	check("interface-change", r5, up)

	// Round 6: file added falls back to full.
	r6 := clone(r5)
	r6["extra.rs"] = "fn extra_fn() {}\n"
	up, err = s.Analyze(r6)
	if err != nil {
		t.Fatal(err)
	}
	if !up.Stats.Full || up.Stats.FullReason != "file set changed" {
		t.Fatalf("file add stats = %+v, want full(file set changed)", up.Stats)
	}
	check("file-add", r6, up)
}

// TestSessionCrossFileInvalidation is the inter-procedural core case: a
// body-only edit to a callee in one file must re-analyze its transitive
// callers in other files, without reparsing those files.
func TestSessionCrossFileInvalidation(t *testing.T) {
	outer := `struct S { mu: Mutex<i32> }
impl S {
    fn outer(&self) {
        let g = self.mu.lock().unwrap();
        self.inner();
    }
}
`
	files := map[string]string{
		"a.rs": outer,
		"b.rs": `impl S {
    fn inner(&self) {
        let x = 1;
    }
}
`,
	}
	s := NewSession()
	up, err := s.Analyze(files)
	if err != nil {
		t.Fatal(err)
	}
	if n := countKind(up.Findings, "double-lock"); n != 0 {
		t.Fatalf("clean repo reported %d double-locks", n)
	}

	// inner now re-locks the mutex outer already holds: outer (in the
	// unchanged file) must be re-examined and gain a finding.
	mutated := clone(files)
	mutated["b.rs"] = `impl S {
    fn inner(&self) {
        let g = self.mu.lock().unwrap();
    }
}
`
	up, err = s.Analyze(mutated)
	if err != nil {
		t.Fatal(err)
	}
	if up.Stats.Full {
		t.Fatalf("callee body edit forced full build: %+v", up.Stats)
	}
	if up.Stats.FilesReparsed != 1 {
		t.Fatalf("FilesReparsed = %d, want 1 (only b.rs)", up.Stats.FilesReparsed)
	}
	want := fullDetect(t, mutated)
	got := sessionStrings(up)
	if !equalStrings(got, want) {
		t.Fatalf("cross-file invalidation diverged from full analysis\n got: %v\nwant: %v", got, want)
	}
	if countKind(up.Findings, "double-lock") == 0 {
		t.Fatal("caller in unchanged file did not pick up the callee's new lock")
	}

	// Reverting the callee clears the caller's finding again.
	up, err = s.Analyze(files)
	if err != nil {
		t.Fatal(err)
	}
	if n := countKind(up.Findings, "double-lock"); n != 0 {
		t.Fatalf("stale caller finding survived revert: %d double-locks", n)
	}
}

// TestSessionSpawnClosureEditRerunsBlocking: blocking is a global
// detector (its verdicts depend on every function's summaries), so a
// body-only edit inside a spawn closure in one file must re-run it —
// here the closure's unconditional notify turns conditional, which makes
// the condvar wait in the SAME file lose its only guaranteed signaller —
// while the local-detector finding in the other, untouched file is
// replayed rather than recomputed.
func TestSessionSpawnClosureEditRerunsBlocking(t *testing.T) {
	hub := `struct W { ready: Mutex<bool>, cv: Condvar }
impl W {
    fn wait(&self) {
        let g = self.ready.lock().unwrap();
        let g2 = self.cv.wait(g);
        consume(g2);
    }
    fn start(&self, go: bool) {
        thread::spawn(move || { self.cv.notify_all(); });
    }
}
`
	files := map[string]string{
		"hub.rs": hub,
		"util.rs": `fn stale(v: Vec<i32>) {
    let p = v.as_ptr();
    drop(v);
    unsafe { let x = *p; }
}
`,
	}
	s := NewSession()
	up, err := s.Analyze(files)
	if err != nil {
		t.Fatal(err)
	}
	if n := countKind(up.Findings, "blocking"); n != 0 {
		t.Fatalf("guaranteed closure notify should rescue the wait, got %d blocking findings", n)
	}
	if n := countKind(up.Findings, "use-after-free"); n != 1 {
		t.Fatalf("baseline use-after-free findings = %d, want 1", n)
	}

	// Body-only edit inside the spawn closure: the notify moves behind a
	// condition, so W::wait's signal is no longer guaranteed.
	mutated := clone(files)
	mutated["hub.rs"] = `struct W { ready: Mutex<bool>, cv: Condvar }
impl W {
    fn wait(&self) {
        let g = self.ready.lock().unwrap();
        let g2 = self.cv.wait(g);
        consume(g2);
    }
    fn start(&self, go: bool) {
        thread::spawn(move || { if go { self.cv.notify_all(); } });
    }
}
`
	up, err = s.Analyze(mutated)
	if err != nil {
		t.Fatal(err)
	}
	if up.Stats.Full {
		t.Fatalf("closure body edit forced a full build: %+v", up.Stats)
	}
	if up.Stats.FilesReparsed != 1 {
		t.Fatalf("FilesReparsed = %d, want 1 (only hub.rs)", up.Stats.FilesReparsed)
	}
	want := fullDetect(t, mutated)
	got := sessionStrings(up)
	if !equalStrings(got, want) {
		t.Fatalf("spawn-closure edit diverged from full analysis\n got: %v\nwant: %v", got, want)
	}
	if countKind(up.Findings, "blocking") != 1 {
		t.Fatal("blocking did not re-run after the spawn-closure body edit")
	}
	if countKind(up.Findings, "use-after-free") != 1 {
		t.Fatal("local use-after-free finding in the untouched file was not replayed")
	}

	// Reverting the closure body clears the blocking finding again.
	up, err = s.Analyze(files)
	if err != nil {
		t.Fatal(err)
	}
	if n := countKind(up.Findings, "blocking"); n != 0 {
		t.Fatalf("stale blocking finding survived revert: %d", n)
	}
}

// TestSessionClosureHelperEditRepairs is the dependency rule of the
// global detectors' derived values: helpers.rs holds functions only
// spawned or initializer closures call, so a body edit to one of them
// recomputes the closures' summaries but neither the spawner's nor the
// initializing function's. The race, all-ends-waiting and
// Once-reentrancy findings those functions own must still flip with
// each edit, exactly as in a from-scratch analysis.
func TestSessionClosureHelperEditRepairs(t *testing.T) {
	t.Setenv("RUSTPROBE_GRAPH_CHECK", "1")
	const spawners = `static mut COUNTER: u64 = 0;
fn bump() {
    thread::spawn(move || { touch(); });
    unsafe { COUNTER += 1; }
}
fn pipeline() {
    let (tx_a, rx_a) = mpsc::channel();
    let (tx_b, rx_b) = mpsc::channel();
    thread::spawn(move || { relay_a(rx_a, tx_b); });
    thread::spawn(move || { relay_b(rx_b, tx_a); });
}
fn init(once: Once) {
    once.call_once(|| {
        reenter(once);
    });
}
`
	const buggy = `fn touch() {
    unsafe { COUNTER += 1; }
}
fn relay_a(rx: Receiver<i32>, tx: Sender<i32>) {
    let job = rx.recv().unwrap();
    tx.send(job + 1);
}
fn relay_b(rx: Receiver<i32>, tx: Sender<i32>) {
    let job = rx.recv().unwrap();
    tx.send(job + 2);
}
fn reenter(once: Once) {
    once.call_once(|| {
        work();
    });
}
`
	const clean = `fn touch() {
    work();
}
fn relay_a(rx: Receiver<i32>, tx: Sender<i32>) {
    tx.send(1);
    let job = rx.recv().unwrap();
    consume(job);
}
fn relay_b(rx: Receiver<i32>, tx: Sender<i32>) {
    let job = rx.recv().unwrap();
    tx.send(job + 2);
}
fn reenter(once: Once) {
    work();
}
`
	s := NewSession()
	for i, helpers := range []string{buggy, clean, buggy, clean} {
		files := map[string]string{"spawners.rs": spawners, "helpers.rs": helpers}
		up, err := s.Analyze(files)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && (up.Stats.Full || up.Stats.FilesReparsed != 1) {
			t.Fatalf("round %d: a helper body edit was not an incremental round: %+v", i, up.Stats)
		}
		got, want := sessionStrings(up), fullDetect(t, files)
		if !equalStrings(got, want) {
			t.Fatalf("round %d diverged from a full analysis\n got: %v\nwant: %v", i, got, want)
		}
		owners := map[string]bool{}
		for _, f := range up.Findings {
			if f.Kind == "data-race" || f.Kind == "blocking" {
				owners[string(f.Kind)+" in "+f.Function] = true
			}
		}
		for _, owner := range []string{"data-race in bump", "blocking in relay_a", "blocking in init"} {
			if owners[owner] != (helpers == buggy) {
				t.Errorf("round %d: %s reported = %t, want %t (findings %v)", i, owner, owners[owner], helpers == buggy, got)
			}
		}
	}
}

// TestSessionShiftedPositionsMatchFull is the stale-span regression: an
// edited function sits ABOVE an unrelated buggy function in the same
// file, so the buggy function's body text is unchanged but its line
// numbers shift. Replaying its cached finding verbatim would report the
// bug at the previous revision's position; every round must instead
// match a from-scratch analysis exactly (the formatted comparison
// includes resolved file:line:col).
func TestSessionShiftedPositionsMatchFull(t *testing.T) {
	mk := func(padBody string) map[string]string {
		return map[string]string{"x.rs": "fn pad() {\n" + padBody + "}\nfn buggy(v: Vec<i32>) {\n    let p = v.as_ptr();\n    drop(v);\n    unsafe { let x = *p; }\n}\n"}
	}
	bodyA := "    let a = 1;\n    let b = 2;\n"
	// Same byte length as bodyA, one fewer newline: buggy()'s byte offset
	// stays identical while its line numbers shift up — the case a pure
	// offset comparison would miss.
	bodyB := "    let a = 1;     let b = 2;\n"
	if len(bodyA) != len(bodyB) {
		t.Fatalf("test invariant: len(bodyA)=%d len(bodyB)=%d, want equal", len(bodyA), len(bodyB))
	}
	bodyGrown := bodyA + "    let c = 3;\n    let d = 4;\n"

	s := NewSession()
	up, err := s.Analyze(mk(bodyA))
	if err != nil {
		t.Fatal(err)
	}
	if n := countKind(up.Findings, "use-after-free"); n != 1 {
		t.Fatalf("initial round found %d use-after-free, want 1", n)
	}

	for _, step := range []struct {
		name string
		body string
	}{
		{"same-length newline move", bodyB},
		{"grow pad above buggy", bodyGrown},
		{"shrink back", bodyA},
	} {
		files := mk(step.body)
		up, err = s.Analyze(files)
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if up.Stats.Full {
			t.Fatalf("%s: body-only edit forced a full build: %+v", step.name, up.Stats)
		}
		want := fullDetect(t, files)
		if got := sessionStrings(up); !equalStrings(got, want) {
			t.Fatalf("%s: cached finding replayed at stale position\n got: %v\nwant: %v", step.name, got, want)
		}
	}
}

// TestSessionSameLengthEditDirtiesOnlyTheEditedFunction: a same-length
// edit inside the first of three functions leaves the other two at the
// same offset, line and column, so only the edited function is dirty
// and the other two replay their findings.
func TestSessionSameLengthEditDirtiesOnlyTheEditedFunction(t *testing.T) {
	mk := func(a string) map[string]string {
		return map[string]string{"x.rs": "fn first() {\n    let a = " + a + ";\n}\n" +
			"fn second(v: Vec<i32>) {\n    let p = v.as_ptr();\n    drop(v);\n    unsafe { let x = *p; }\n}\n" +
			"fn third() {\n    let m = Mutex::new(0);\n    let g = m.lock().unwrap();\n    let h = m.lock().unwrap();\n}\n"}
	}
	s := NewSession()
	if _, err := s.Analyze(mk("1")); err != nil {
		t.Fatal(err)
	}
	files := mk("7")
	up, err := s.Analyze(files)
	if err != nil {
		t.Fatal(err)
	}
	if up.Stats.Full || up.Stats.ChangedFns != 1 || up.Stats.RootsDetected != 1 || up.Stats.FindingsReused == 0 {
		t.Fatalf("same-length edit in first(): stats %+v, want changed_fns 1, roots_detected 1 and replayed findings", up.Stats)
	}
	if got, want := sessionStrings(up), fullDetect(t, files); !equalStrings(got, want) {
		t.Fatalf("same-length edit diverges from full analysis\n got: %v\nwant: %v", got, want)
	}
}

// TestSessionOrdersRevisedSpansLikeAFullBuild: the all-ends-waiting
// rule names whichever of two recvs comes first in source order. After
// a body edit to worker_a only its file is re-parsed, so worker_a's
// spans get higher global offsets than worker_b's reused ones; the
// session must still order them as a full build does, whether the two
// workers share a file or not.
func TestSessionOrdersRevisedSpansLikeAFullBuild(t *testing.T) {
	worker := func(name, n string) string {
		return "fn " + name + "(rx: Receiver<i32>, tx: Sender<i32>) {\n    let job = rx.recv().unwrap();\n    tx.send(job + " + n + ");\n}\n"
	}
	pipeline := "fn pipeline() {\n    let (tx_a, rx_a) = mpsc::channel();\n    let (tx_b, rx_b) = mpsc::channel();\n" +
		"    thread::spawn(move || { worker_a(rx_a, tx_b); });\n    thread::spawn(move || { worker_b(rx_b, tx_a); });\n}\n"
	for _, tc := range []struct {
		name string
		tree func(n string) map[string]string
	}{
		{"one file", func(n string) map[string]string {
			return map[string]string{"a.rs": worker("worker_a", n) + worker("worker_b", "2") + pipeline}
		}},
		{"three files", func(n string) map[string]string {
			return map[string]string{"a.rs": worker("worker_a", n), "b.rs": worker("worker_b", "2"), "c.rs": pipeline}
		}},
	} {
		s := NewSession()
		if _, err := s.Analyze(tc.tree("1")); err != nil {
			t.Fatal(err)
		}
		files := tc.tree("3")
		up, err := s.Analyze(files)
		if err != nil {
			t.Fatal(err)
		}
		if up.Stats.Full || countKind(up.Findings, "blocking") != 1 {
			t.Fatalf("%s: stats %+v, %d blocking findings; want an incremental round with one", tc.name, up.Stats, countKind(up.Findings, "blocking"))
		}
		if got, want := sessionStrings(up), fullDetect(t, files); !equalStrings(got, want) {
			t.Fatalf("%s: session orders spans unlike a full build\n got: %v\nwant: %v", tc.name, got, want)
		}
	}
}

// TestSessionRedefinitionDiagnostics: a live round rebinds only the
// edited file's declarations, yet must report every "struct redefined"
// warning a full round reports, with the earlier declaration's position
// as it now reads — here moved by the edit itself.
func TestSessionRedefinitionDiagnostics(t *testing.T) {
	files := map[string]string{
		"a.rs": "fn fa(x: i32) -> i32 {\n    x + 1\n}\nstruct Shared { a: i32 }\n",
		"b.rs": "fn fb(x: i32) -> i32 {\n    x + 2\n}\nstruct Shared { b: i32 }\nstruct Other;\nstruct Shared { c: i32 }\n",
	}
	s := NewSession()
	if _, err := s.Analyze(files); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		name := []string{"a.rs", "b.rs"}[round%2]
		files[name] = strings.Replace(files[name], "\n    x", "\n\n    x", 1)
		up, err := s.Analyze(files)
		if err != nil {
			t.Fatal(err)
		}
		if up.Stats.Full || up.Stats.FilesReparsed != 1 {
			t.Fatalf("round %d: want a body-only round over %s, got %+v", round, name, up.Stats)
		}
		full, err := AnalyzeFiles(files)
		if err != nil {
			t.Fatal(err)
		}
		got, want := up.Result.Diags.String(), full.Diags.String()
		if got != want || strings.Count(want, "redefined") != 2 {
			t.Fatalf("round %d (edited %s): diagnostics\n%s\nwant a full round's\n%s", round, name, got, want)
		}
	}
}

// TestSessionInlineModBodyEdit: the body of a function inside an inline
// mod block is body text, not interface text, so editing it runs
// incrementally — live and restored alike — with one changed function.
func TestSessionInlineModBodyEdit(t *testing.T) {
	mk := func(n string) map[string]string {
		return map[string]string{
			"a.rs": "fn stale(v: Vec<i32>) {\n    let p = v.as_ptr();\n    drop(v);\n    unsafe { let x = *p; }\n}\n" +
				"mod m {\n    fn helper(x: i32) -> i32 {\n        x + " + n + "\n    }\n}\n",
			"b.rs": "fn main() {\n    let y = helper(2);\n}\n",
		}
	}
	base, edited := mk("1"), mk("22")
	s := NewSession()
	if _, err := s.Analyze(base); err != nil {
		t.Fatal(err)
	}
	snap := s.ExportState()
	want := fullDetect(t, edited)

	up, err := s.Analyze(edited)
	if err != nil {
		t.Fatal(err)
	}
	if up.Stats.Full || up.Stats.ChangedFns != 1 {
		t.Fatalf("mod body edit: stats %+v, want an incremental round with changed_fns 1", up.Stats)
	}
	if got := sessionStrings(up); !equalStrings(got, want) {
		t.Fatalf("mod body edit diverges from full analysis\n got: %v\nwant: %v", got, want)
	}

	rs := NewSession()
	if err := rs.Restore(snap); err != nil {
		t.Fatal(err)
	}
	rup, err := rs.Analyze(edited)
	if err != nil {
		t.Fatal(err)
	}
	if rup.Stats.Full || !rup.Stats.Restored || rup.Stats.ChangedFns != 1 {
		t.Fatalf("restored mod body edit: stats %+v, want an incremental restored round with changed_fns 1", rup.Stats)
	}
	if got := sessionStrings(rup); !equalStrings(got, want) {
		t.Fatalf("restored mod body edit diverges from full analysis\n got: %v\nwant: %v", got, want)
	}
}

// TestSessionUpdateIsCallerOwned: mutating a returned Update's findings
// (sorting, appending, editing Notes) must not corrupt the session's
// cached state for later rounds.
func TestSessionUpdateIsCallerOwned(t *testing.T) {
	files := map[string]string{"a.rs": `fn stale(v: Vec<i32>) {
    let p = v.as_ptr();
    drop(v);
    unsafe { let x = *p; }
}
fn other(w: Vec<i32>) {
    let q = w.as_ptr();
    drop(w);
    unsafe { let y = *q; }
}
`}
	s := NewSession()
	up, err := s.Analyze(files)
	if err != nil {
		t.Fatal(err)
	}
	want := fullDetect(t, files)

	// Vandalize the returned round: reverse order, overwrite contents.
	for i, j := 0, len(up.Findings)-1; i < j; i, j = i+1, j-1 {
		up.Findings[i], up.Findings[j] = up.Findings[j], up.Findings[i]
	}
	for i := range up.Findings {
		up.Findings[i].Message = "vandalized"
		for j := range up.Findings[i].Notes {
			up.Findings[i].Notes[j] = "vandalized"
		}
	}

	// The no-change fast path must replay the pristine cached view.
	up2, err := s.Analyze(files)
	if err != nil {
		t.Fatal(err)
	}
	if got := sessionStrings(up2); !equalStrings(got, want) {
		t.Fatalf("caller mutation leaked into cached state\n got: %v\nwant: %v", got, want)
	}
}

// TestSessionErrorKeepsState: a round with syntax errors fails without
// corrupting the session; the next good round still diffs against the
// last successful one.
func TestSessionErrorKeepsState(t *testing.T) {
	files := map[string]string{
		"a.rs": "fn f(x: i32) -> i32 {\n    x + 1\n}\n",
		"b.rs": "fn g() {\n    let y = f(1);\n}\n",
	}
	s := NewSession()
	if _, err := s.Analyze(files); err != nil {
		t.Fatal(err)
	}

	broken := clone(files)
	broken["a.rs"] = "fn f(x: i32) -> i32 { x +\n"
	filesBefore := len(s.prev.fset.Files())
	sizeBefore := s.prev.fset.Size()
	if _, err := s.Analyze(broken); err == nil {
		t.Fatal("syntax error round succeeded")
	}
	// The failed round's speculative registrations must be rolled back:
	// they belong to no retained artifact.
	if n, sz := len(s.prev.fset.Files()), s.prev.fset.Size(); n != filesBefore || sz != sizeBefore {
		t.Fatalf("error round leaked FileSet state: files %d->%d, size %d->%d",
			filesBefore, n, sizeBefore, sz)
	}

	fixed := clone(files)
	fixed["a.rs"] = "fn f(x: i32) -> i32 {\n    x + 2\n}\n"
	up, err := s.Analyze(fixed)
	if err != nil {
		t.Fatal(err)
	}
	if up.Stats.Full {
		t.Fatalf("post-error round lost incremental state: %+v", up.Stats)
	}
	want := fullDetect(t, fixed)
	if got := sessionStrings(up); !equalStrings(got, want) {
		t.Fatalf("post-error round diverged\n got: %v\nwant: %v", got, want)
	}
}

// TestSessionFileSetCompaction: the persistent FileSet grows with every
// reparse; once it dwarfs the live sources a round must fall back to a
// full rebuild (reseeding a one-registration-per-file set) instead of
// pinning old revisions forever — with findings still equal to a
// from-scratch analysis throughout.
func TestSessionFileSetCompaction(t *testing.T) {
	oldFactor, oldMin := fsetCompactFactor, fsetCompactMinBytes
	fsetCompactFactor, fsetCompactMinBytes = 2, 1
	defer func() { fsetCompactFactor, fsetCompactMinBytes = oldFactor, oldMin }()

	mk := func(round int) map[string]string {
		return map[string]string{"a.rs": fmt.Sprintf("fn f(x: i32) -> i32 {\n    x + %d\n}\n", round)}
	}
	s := NewSession()
	if _, err := s.Analyze(mk(0)); err != nil {
		t.Fatal(err)
	}
	compacted := false
	for round := 1; round <= 8; round++ {
		files := mk(round)
		up, err := s.Analyze(files)
		if err != nil {
			t.Fatal(err)
		}
		if up.Stats.Full && up.Stats.FullReason == "state compaction" {
			compacted = true
			if live := len(files["a.rs"]); s.prev.fset.Size() > 2*live+2 {
				t.Fatalf("compaction did not reseed the FileSet: size %d for %d live bytes", s.prev.fset.Size(), live)
			}
		}
		want := fullDetect(t, files)
		if got := sessionStrings(up); !equalStrings(got, want) {
			t.Fatalf("round %d diverged\n got: %v\nwant: %v", round, got, want)
		}
	}
	if !compacted {
		t.Fatal("no round compacted the FileSet despite tightened thresholds")
	}
}

// TestSessionGeneratedSeeds replays generated programs through one
// session (each round replaces the file wholesale) and cross-checks every
// round against a from-scratch analysis — a randomized equivalence sweep
// over the full detector surface.
func TestSessionGeneratedSeeds(t *testing.T) {
	s := NewSession()
	for seed := int64(0); seed < 40; seed++ {
		p := gen.Generate(seed)
		files := map[string]string{"gen.rs": p.Source}
		up, err := s.Analyze(files)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := fullDetect(t, files)
		if got := sessionStrings(up); !equalStrings(got, want) {
			t.Fatalf("seed %d: incremental diverged\n got: %v\nwant: %v", seed, got, want)
		}
	}
}

// TestAnalyzeDirSkipsJunk: the walk must ignore .git, target/ and hidden
// directories — real checkouts keep generated or vendored .rs files there
// that would otherwise collide with the real sources.
func TestAnalyzeDirSkipsJunk(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		p := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("src/lib.rs", "fn real_entry() {}\n")
	// Junk trees: a conflicting duplicate and outright garbage. If the
	// walk picked these up, analysis would fail or grow extra functions.
	write("target/debug/build/lib.rs", "fn real_entry() { broken(\n")
	write(".git/objects/blob.rs", "fn from_git_object( {\n")
	write(".cargo-cache/registry/vendored.rs", "fn vendored() {}\n")

	res, err := AnalyzeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Program.Funcs["real_entry"]; !ok {
		t.Fatal("real source not analyzed")
	}
	if _, ok := res.Program.Funcs["vendored"]; ok {
		t.Fatal("hidden-directory file leaked into the analysis")
	}
	files := res.Fset.Files()
	if len(files) != 1 || files[0].Name != "src/lib.rs" {
		var names []string
		for _, f := range files {
			names = append(names, f.Name)
		}
		t.Fatalf("analyzed files = %v, want [src/lib.rs]", names)
	}
}

func sessionStrings(up *Update) []string {
	out := make([]string, len(up.Findings))
	for i, f := range up.Findings {
		out[i] = f.Format(up.Result.Fset)
	}
	sort.Strings(out)
	return out
}

func countKind(fs []Finding, kind string) int {
	n := 0
	for _, f := range fs {
		if string(f.Kind) == kind {
			n++
		}
	}
	return n
}

func clone(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
