package doublelock

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"rustprobe/internal/detect"
	"rustprobe/internal/lower"
	"rustprobe/internal/parser"
	"rustprobe/internal/resolve"
	"rustprobe/internal/source"
	"rustprobe/internal/summary"
)

func newContext(t *testing.T, src string) *detect.Context {
	t.Helper()
	fset := source.NewFileSet()
	f := fset.Add("test.rs", src)
	diags := source.NewDiagnostics(fset)
	crate := parser.ParseFile(f, diags)
	if diags.HasErrors() {
		t.Fatalf("parse errors:\n%s", diags.String())
	}
	prog := resolve.Crates(fset, diags, crate)
	bodies := lower.Program(prog, diags)
	return detect.NewContext(prog, bodies)
}

func analyze(t *testing.T, src string) []detect.Finding {
	t.Helper()
	return New().Run(newContext(t, src))
}

// Figure 8 (TiKV): read lock held across the match arms; write() inside an
// arm deadlocks.
const figure8Buggy = `
struct Inner { m: i32 }
struct Client { inner: i32 }
fn connect(m: i32) -> Result<i32, i32> { Ok(m) }

fn do_request(client: Arc<RwLock<Inner>>) {
    match connect(client.read().unwrap().m) {
        Ok(mbrs) => {
            let mut inner = client.write().unwrap();
            inner.m = mbrs;
        }
        Err(e) => {}
    };
}
`

// The committed fix: the read guard dies at the end of the let statement.
const figure8Fixed = `
struct Inner { m: i32 }
fn connect(m: i32) -> Result<i32, i32> { Ok(m) }

fn do_request(client: Arc<RwLock<Inner>>) {
    let result = connect(client.read().unwrap().m);
    match result {
        Ok(mbrs) => {
            let mut inner = client.write().unwrap();
            inner.m = mbrs;
        }
        Err(e) => {}
    };
}
`

func TestFigure8BuggyFlagged(t *testing.T) {
	findings := analyze(t, figure8Buggy)
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want 1: %+v", len(findings), findings)
	}
	if findings[0].Kind != detect.KindDoubleLock {
		t.Errorf("kind = %s", findings[0].Kind)
	}
	if findings[0].Function != "do_request" {
		t.Errorf("function = %s", findings[0].Function)
	}
}

func TestFigure8FixedClean(t *testing.T) {
	findings := analyze(t, figure8Fixed)
	if len(findings) != 0 {
		t.Fatalf("fixed version flagged: %+v", findings)
	}
}

func TestDoubleLockInIfCondition(t *testing.T) {
	// §6.1: "the first lock is in an if condition, and the second lock is
	// in the if block".
	src := `
struct State { v: i32 }
fn f(mu: Arc<Mutex<State>>) {
    if mu.lock().unwrap().v > 0 {
        let mut g = mu.lock().unwrap();
        g.v = 2;
    }
}
`
	findings := analyze(t, src)
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want 1: %+v", len(findings), findings)
	}
}

func TestSequentialLocksClean(t *testing.T) {
	// Two critical sections in sequence: the first guard dies at the end
	// of its statement-bound temporary.
	src := `
struct State { v: i32 }
fn f(mu: Mutex<State>) {
    let a = mu.lock().unwrap().v;
    let b = mu.lock().unwrap().v;
}
`
	findings := analyze(t, src)
	if len(findings) != 0 {
		t.Fatalf("sequential locks flagged: %+v", findings)
	}
}

func TestExplicitDropAvoidsDoubleLock(t *testing.T) {
	// §6.1 avoidance idiom: mem::drop ends the critical section early.
	src := `
struct State { v: i32 }
fn f(mu: Mutex<State>) {
    let g = mu.lock().unwrap();
    drop(g);
    let h = mu.lock().unwrap();
}
`
	findings := analyze(t, src)
	if len(findings) != 0 {
		t.Fatalf("explicit drop still flagged: %+v", findings)
	}
}

func TestDoubleLockWithoutDropFlagged(t *testing.T) {
	src := `
struct State { v: i32 }
fn f(mu: Mutex<State>) {
    let g = mu.lock().unwrap();
    let h = mu.lock().unwrap();
}
`
	findings := analyze(t, src)
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want 1: %+v", len(findings), findings)
	}
}

func TestDifferentLocksClean(t *testing.T) {
	src := `
struct State { v: i32 }
fn f(a: Mutex<State>, b: Mutex<State>) {
    let g = a.lock().unwrap();
    let h = b.lock().unwrap();
}
`
	findings := analyze(t, src)
	if len(findings) != 0 {
		t.Fatalf("different locks flagged: %+v", findings)
	}
}

func TestInterProceduralDoubleLock(t *testing.T) {
	// The paper's found bugs (e.g. parity-ethereum #11172): a method
	// holding self.state's lock calls another method that locks it again.
	src := `
struct Engine { state: Mutex<i32>, extra: i32 }
impl Engine {
    fn helper(&self) -> i32 {
        let s = self.state.lock().unwrap();
        *s
    }
    fn broken(&self) {
        let g = self.state.lock().unwrap();
        let v = self.helper();
    }
    fn okay(&self) {
        let v0 = { let g = self.state.lock().unwrap(); *g };
        let v = self.helper();
    }
}
`
	findings := analyze(t, src)
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want 1: %+v", len(findings), findings)
	}
	if findings[0].Function != "Engine::broken" {
		t.Errorf("function = %s", findings[0].Function)
	}
}

func TestCondvarWaitReleasesLock(t *testing.T) {
	src := `
fn f(mu: Mutex<bool>, cv: Condvar) {
    let mut g = mu.lock().unwrap();
    let g2 = cv.wait(g);
    let h = mu.lock().unwrap();
}
`
	// g2 holds the reacquired guard, so the second explicit lock IS a
	// double lock; but wait() itself must not be flagged.
	findings := analyze(t, src)
	for _, f := range findings {
		if f.Kind == detect.KindDoubleLock && f.Message == "wait" {
			t.Errorf("wait flagged: %+v", f)
		}
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want 1 (the lock after wait): %+v", len(findings), findings)
	}
}

func TestReadReadNotFlaggedByDefault(t *testing.T) {
	src := `
struct S { v: i32 }
fn f(rw: RwLock<S>) {
    let a = rw.read().unwrap();
    let b = rw.read().unwrap();
}
`
	findings := analyze(t, src)
	if len(findings) != 0 {
		t.Fatalf("read-read flagged by default: %+v", findings)
	}
}

func TestGuardMovedIntoFunctionReleasesTracking(t *testing.T) {
	src := `
fn consume(g: MutexGuard<i32>) {}
fn f(mu: Mutex<i32>) {
    let g = mu.lock().unwrap();
    consume(g);
    let h = mu.lock().unwrap();
}
`
	// After moving the guard into consume(), the guard is dropped there
	// (conservatively treated as released at the call).
	findings := analyze(t, src)
	if len(findings) != 0 {
		t.Fatalf("moved-guard case flagged: %+v", findings)
	}
}

func TestIfLetScrutineeGuardHeld(t *testing.T) {
	// `if let` scrutinee temporaries live to the end of the whole if —
	// same rule as match.
	src := `
struct S { v: Option<i32> }
fn f(mu: Mutex<S>) {
    if let Some(n) = mu.lock().unwrap().v {
        let g = mu.lock().unwrap();
        report(n, g.v);
    }
}
`
	findings := analyze(t, src)
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want 1: %+v", len(findings), findings)
	}
}

func TestTryLockNotADoubleLock(t *testing.T) {
	// try_lock does not block: acquiring while holding returns Err rather
	// than deadlocking, so no finding — but a later blocking lock() while
	// the try_lock guard is live IS one.
	src := `
struct S { v: i32 }
fn ok_case(mu: Mutex<S>) {
    let g = mu.lock().unwrap();
    let maybe = mu.try_lock();
}
fn bad_case(mu: Mutex<S>) {
    let g = mu.try_lock().unwrap();
    let h = mu.lock().unwrap();
}
`
	findings := analyze(t, src)
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want 1 (only bad_case): %+v", len(findings), findings)
	}
	if findings[0].Function != "bad_case" {
		t.Errorf("function = %s", findings[0].Function)
	}
}

func TestWhileLetConditionGuardReleased(t *testing.T) {
	// In while-loop conditions temporaries drop at the end of each
	// condition evaluation (not the loop): locking in the body is fine.
	src := `
struct S { v: Option<i32> }
fn f(mu: Mutex<S>) {
    while let Some(n) = mu.lock().unwrap().v {
        let g = mu.lock().unwrap();
        report(n, g.v);
    }
}
`
	findings := analyze(t, src)
	if len(findings) != 0 {
		t.Fatalf("while-let condition guard should be released before the body: %+v", findings)
	}
}

func TestNestedMatchGuards(t *testing.T) {
	// Two different locks in nested matches: fine.
	src := `
struct S { v: i32 }
fn f(a: Mutex<S>, b: Mutex<S>) {
    match a.lock().unwrap().v {
        0 => {
            match b.lock().unwrap().v {
                _ => {}
            };
        }
        _ => {}
    };
}
`
	findings := analyze(t, src)
	if len(findings) != 0 {
		t.Fatalf("different nested locks flagged: %+v", findings)
	}
}

// --- SCC-fixpoint summary regressions ----------------------------------
// The previous buildSummaries ran exactly two bounded post-order rounds,
// so lock-sets never converged on cyclic call graphs. These cases lock in
// the fixpoint behaviour.

func TestMutualRecursionDoubleLock(t *testing.T) {
	// A→B→A: the lock-set must travel around the two-cycle to reach the
	// caller-holds/callee-locks site in broken().
	src := `
struct S { m: Mutex<i32> }
impl S {
    fn a(&self, n: i32) -> i32 {
        let v = { let g = self.m.lock().unwrap(); *g };
        if n > 0 { return self.b(n - 1); }
        v
    }
    fn b(&self, n: i32) -> i32 {
        if n > 1 { return self.a(n - 1); }
        1
    }
    fn broken(&self) {
        let g = self.m.lock().unwrap();
        let v = self.b(2);
    }
}
`
	findings := analyze(t, src)
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want 1: %+v", len(findings), findings)
	}
	if findings[0].Function != "S::broken" {
		t.Errorf("function = %s", findings[0].Function)
	}
}

func TestThreeCycleDoubleLock(t *testing.T) {
	// A→B→C→A with the acquisition inside the cycle.
	src := `
struct S { m: Mutex<i32> }
impl S {
    fn a(&self, n: i32) -> i32 {
        let v = { let g = self.m.lock().unwrap(); *g };
        if n > 0 { return self.b(n - 1); }
        v
    }
    fn b(&self, n: i32) -> i32 {
        if n > 0 { return self.c(n - 1); }
        1
    }
    fn c(&self, n: i32) -> i32 {
        if n > 0 { return self.a(n - 1); }
        2
    }
    fn broken(&self) {
        let g = self.m.lock().unwrap();
        let v = self.c(3);
    }
}
`
	findings := analyze(t, src)
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want 1: %+v", len(findings), findings)
	}
	if findings[0].Function != "S::broken" {
		t.Errorf("function = %s", findings[0].Function)
	}
}

// TestInterlockedCyclesDoubleLock is the shape the bounded two-round pass
// provably missed: two cycles sharing a node (audit↔balance,
// balance↔compact). The lock acquired in audit needs three propagation
// waves to reach compact's summary — post-order processes compact first
// and balance's summary is still empty for the first two rounds, so the
// old pass left compact's lock-set empty and broken() went unflagged.
func TestInterlockedCyclesDoubleLock(t *testing.T) {
	src := `
struct R { regions: Mutex<i32> }
impl R {
    fn audit(&self, n: i32) -> i32 {
        let v = { let g = self.regions.lock().unwrap(); *g };
        if n > 0 { return self.balance(n - 1); }
        v
    }
    fn balance(&self, n: i32) -> i32 {
        if n > 2 { return self.audit(n - 1); }
        if n > 0 { return self.compact(n - 1); }
        0
    }
    fn compact(&self, n: i32) -> i32 {
        if n > 0 { return self.balance(n - 1); }
        1
    }
    fn broken(&self) {
        let g = self.regions.lock().unwrap();
        let v = self.compact(4);
    }
    fn fixed(&self) {
        let v0 = { let g = self.regions.lock().unwrap(); *g };
        let v = self.compact(4);
    }
}
`
	findings := analyze(t, src)
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want 1: %+v", len(findings), findings)
	}
	if findings[0].Function != "R::broken" {
		t.Errorf("function = %s", findings[0].Function)
	}
}

// TestGuardMovedIntoStructReleasesTracking: an Assign whose destination
// is a field projection moves the guard out of the source local; the old
// transfer ignored non-local destinations entirely, leaving the local
// "held" forever and false-positives on the later reacquisition.
func TestGuardMovedIntoStructReleasesTracking(t *testing.T) {
	src := `
struct Holder { slot: MutexGuard<i32> }
fn f(mu: Mutex<i32>, h: Holder) {
    let g = mu.lock().unwrap();
    h.slot = g;
    let k = mu.lock().unwrap();
}
`
	findings := analyze(t, src)
	if len(findings) != 0 {
		t.Fatalf("guard moved into struct still flagged: %+v", findings)
	}
}

// TestHeldLockHelpers: the held-lock map helpers race and blocking share.
func TestHeldLockHelpers(t *testing.T) {
	locks := map[string]Mode{"m.state": ModeWrite, "static CFG": ModeRead, "tmp": ModeLock}
	tr := TranslateLocks(locks, []string{"m"}, []string{"self.inner"})
	if len(tr) != 2 || tr["self.inner.state"] != ModeWrite || tr["static CFG"] != ModeRead {
		t.Errorf("TranslateLocks = %v, want self.inner.state(write) and static CFG(read)", tr)
	}
	// The event transfer adds a call site's held locks to the result.
	tr["static CFG"] = ModeWrite
	if locks["static CFG"] != ModeRead {
		t.Error("TranslateLocks shares storage with its input")
	}
	if TranslateLocks(nil, nil, nil) == nil {
		t.Error("TranslateLocks(nil) is nil; the event transfer writes into it")
	}

	if got := LocksString(locks); got != "m.state(write), static CFG(read), tmp(lock)" {
		t.Errorf("LocksString = %q", got)
	}
	if got := LocksString(nil); got != "no locks" {
		t.Errorf("LocksString(nil) = %q", got)
	}
}

// TestSummarizeEvents drives the shared event summary with hand-written
// facts over a real call graph: leaf's events reach caller1 through one
// site and caller2 through two, and ping/pong form a recursive SCC.
func TestSummarizeEvents(t *testing.T) {
	ctx := newContext(t, `
struct S { a: i32 }
fn leaf(p: &S, q: &S) {}
fn caller1(x: &S) { leaf(x, x); }
fn caller2(x: &S) { leaf(x, x); leaf(x, x); }
fn ping(n: i32) { pong(n); }
fn pong(n: i32) { ping(n); }
`)
	ev := func(path, fn string, start int, locks map[string]Mode) *Event[int] {
		return &Event[int]{Path: path, Fn: fn, Span: source.Span{Start: start}, Locks: locks}
	}
	own := map[string][]*Event[int]{
		"leaf": {
			ev("p.f", "leaf", 1, map[string]Mode{"q": ModeRead, "q.inner": ModeWrite}),
			ev("p.b.c.d.e.f.g.h", "leaf", 2, nil), // depth 8: one more segment is too deep
			ev("tmp.f", "leaf", 3, nil),           // rooted at a callee local
		},
		"ping": {ev("static G", "ping", 4, nil)},
		"pong": {ev("static H", "pong", 5, nil)},
	}
	site := func(callee string, held map[string]Mode) CallSite {
		return CallSite{Callee: callee, ArgPaths: []string{"self.x", "self.lk"}, Held: held}
	}
	calls := map[string][]CallSite{
		"caller1": {site("leaf", map[string]Mode{"self.lk": ModeWrite, "static M": ModeLock})},
		"caller2": {
			site("leaf", map[string]Mode{"self.lk": ModeWrite, "self.other": ModeLock}),
			site("leaf", map[string]Mode{"self.lk": ModeRead}),
		},
		"ping": {site("pong", map[string]Mode{"static P": ModeWrite})},
		"pong": {site("ping", map[string]Mode{"static Q": ModeRead})},
	}
	steps := 0
	res := SummarizeEvents(ctx, "test.summary", &EventProblem[int, int, CallSite]{
		Facts: func(fn string) ([]*Event[int], []CallSite) { return own[fn], calls[fn] },
		ID:    func(int) int { return 0 },
		Step: func(d int, _ CallSite, _ func(string) string) int {
			steps++
			return d + 1
		},
		Merge: func(a, b int) int { return min(a, b) },
		Equal: func(a, b int) bool { return a == b },
	})
	if res.TruncatedSCCs != 0 {
		t.Fatalf("%d SCCs hit the iteration cap", res.TruncatedSCCs)
	}
	if steps == 0 {
		t.Error("Step was never called")
	}
	// describe renders a summary as sorted "path@fn locks data" lines.
	describe := func(fn string) string {
		var lines []string
		for _, e := range res.Summaries[fn] {
			lines = append(lines, fmt.Sprintf("%s@%s %s %d", e.Path, e.Fn, LocksString(e.Locks), e.Data))
		}
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	cases := []struct{ fn, want string }{
		{"leaf", `p.b.c.d.e.f.g.h@leaf no locks 0
p.f@leaf q(read), q.inner(write) 0
tmp.f@leaf no locks 0`},
		// Paths and locks rooted at a parameter translate onto the
		// argument; the depth-9 path and the callee-local one drop; the
		// site's held locks join the translated ones, the stronger mode
		// winning (self.lk: read from leaf, write at the site).
		{"caller1", `self.x.f@leaf self.lk(write), self.lk.inner(write), static M(lock) 1`},
		// Two sites: only locks held on both stay, in the weaker mode.
		{"caller2", `self.x.f@leaf self.lk(read), self.lk.inner(write) 1`},
		// The SCC converges: each member keeps its own event lock-free
		// (the recursive path only adds locks, and the merge intersects
		// them away) and sees the other's under its call site's lock.
		{"ping", `static G@ping no locks 0
static H@pong static P(write) 1`},
		{"pong", `static G@ping static Q(read) 1
static H@pong no locks 0`},
	}
	for _, c := range cases {
		if got := describe(c.fn); got != c.want {
			t.Errorf("%s summary:\n%s\nwant:\n%s", c.fn, got, c.want)
		}
	}
}

// TestRecursiveReceiverChainConverges: walk takes and drops self.m, then
// recurses through self.next, so each round of the fixpoint extends the
// inherited path (self.next.m, self.next.next.m, ...). The summary stops
// at summary.MaxPathDepth and converges; outer, which holds self.m
// across self.walk(), is still flagged.
func TestRecursiveReceiverChainConverges(t *testing.T) {
	ctx := newContext(t, `
struct Node { m: Mutex<i32>, next: Node }
impl Node {
    fn walk(&self) {
        let v = { let g = self.m.lock().unwrap(); *g };
        self.next.walk();
    }
    fn outer(&self) {
        let g = self.m.lock().unwrap();
        self.walk();
    }
}
`)
	res := SummarizeAcquisitions(ctx)
	if res.TruncatedSCCs != 0 {
		t.Fatalf("%d SCCs hit the iteration cap", res.TruncatedSCCs)
	}
	for _, e := range res.Summaries["Node::walk"] {
		if summary.Depth(e.Path) > summary.MaxPathDepth {
			t.Errorf("inherited path %q is deeper than %d", e.Path, summary.MaxPathDepth)
		}
	}
	findings := New().Run(ctx)
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want 1: %+v", len(findings), findings)
	}
	if f := findings[0]; f.Function != "Node::outer" || !strings.Contains(f.Message, `call to Node::walk acquires "self.m" (lock)`) {
		t.Errorf("finding = %+v, want walk's acquisition of self.m under outer's guard", f)
	}
}
