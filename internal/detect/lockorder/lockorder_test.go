package lockorder

import (
	"testing"

	"rustprobe/internal/detect"
	"rustprobe/internal/lower"
	"rustprobe/internal/parser"
	"rustprobe/internal/resolve"
	"rustprobe/internal/source"
)

func analyze(t *testing.T, src string) []detect.Finding {
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
	ctx := detect.NewContext(prog, bodies)
	return New().Run(ctx)
}

func TestABBAConflictFlagged(t *testing.T) {
	src := `
struct Shared { a: Mutex<i32>, b: Mutex<i32> }
impl Shared {
    fn path1(&self) {
        let ga = self.a.lock().unwrap();
        let gb = self.b.lock().unwrap();
    }
    fn path2(&self) {
        let gb = self.b.lock().unwrap();
        let ga = self.a.lock().unwrap();
    }
}
`
	findings := analyze(t, src)
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want 1: %+v", len(findings), findings)
	}
	if findings[0].Kind != detect.KindLockOrder {
		t.Errorf("kind = %s", findings[0].Kind)
	}
}

func TestConsistentOrderClean(t *testing.T) {
	src := `
struct Shared { a: Mutex<i32>, b: Mutex<i32> }
impl Shared {
    fn path1(&self) {
        let ga = self.a.lock().unwrap();
        let gb = self.b.lock().unwrap();
    }
    fn path2(&self) {
        let ga = self.a.lock().unwrap();
        let gb = self.b.lock().unwrap();
    }
}
`
	findings := analyze(t, src)
	if len(findings) != 0 {
		t.Fatalf("consistent order flagged: %+v", findings)
	}
}

func TestDropBetweenAcquisitionsClean(t *testing.T) {
	src := `
struct Shared { a: Mutex<i32>, b: Mutex<i32> }
impl Shared {
    fn path1(&self) {
        let ga = self.a.lock().unwrap();
        drop(ga);
        let gb = self.b.lock().unwrap();
    }
    fn path2(&self) {
        let gb = self.b.lock().unwrap();
        drop(gb);
        let ga = self.a.lock().unwrap();
    }
}
`
	findings := analyze(t, src)
	if len(findings) != 0 {
		t.Fatalf("drop-separated acquisitions flagged: %+v", findings)
	}
}

// --- inter-procedural acquisition summaries ----------------------------

// TestInterProceduralABBA: path1 orders a before b only through a callee
// that takes b internally; path2 orders b before a directly. The
// SCC-fixpoint acquisition summaries make the callee's lock visible at
// path1's call site.
func TestInterProceduralABBA(t *testing.T) {
	src := `
struct Shared { a: Mutex<i32>, b: Mutex<i32> }
impl Shared {
    fn read_b(&self) -> i32 {
        let g = self.b.lock().unwrap();
        *g
    }
    fn path1(&self) {
        let ga = self.a.lock().unwrap();
        let v = self.read_b();
    }
    fn path2(&self) {
        let gb = self.b.lock().unwrap();
        let ga = self.a.lock().unwrap();
    }
}
`
	findings := analyze(t, src)
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want 1: %+v", len(findings), findings)
	}
	if findings[0].Kind != detect.KindLockOrder {
		t.Errorf("kind = %s", findings[0].Kind)
	}
}

// TestInterProceduralABBAIntraOnlyMisses pins the ablation: without
// summaries the callee acquisition is invisible and no conflict exists.
func TestInterProceduralABBAIntraOnlyMisses(t *testing.T) {
	src := `
struct Shared { a: Mutex<i32>, b: Mutex<i32> }
impl Shared {
    fn read_b(&self) -> i32 {
        let g = self.b.lock().unwrap();
        *g
    }
    fn path1(&self) {
        let ga = self.a.lock().unwrap();
        let v = self.read_b();
    }
    fn path2(&self) {
        let gb = self.b.lock().unwrap();
        let ga = self.a.lock().unwrap();
    }
}
`
	fset := source.NewFileSet()
	f := fset.Add("test.rs", src)
	diags := source.NewDiagnostics(fset)
	crate := parser.ParseFile(f, diags)
	if diags.HasErrors() {
		t.Fatalf("parse errors:\n%s", diags.String())
	}
	prog := resolve.Crates(fset, diags, crate)
	bodies := lower.Program(prog, diags)
	ctx := detect.NewContext(prog, bodies)
	findings := (&Detector{IntraOnly: true}).Run(ctx)
	if len(findings) != 0 {
		t.Fatalf("intra-only should miss the callee acquisition: %+v", findings)
	}
}

// TestRecursiveCalleeOrdering: the callee's acquisition sits behind a
// mutual-recursion cycle, so only a converged fixpoint sees it.
func TestRecursiveCalleeOrdering(t *testing.T) {
	src := `
struct Shared { a: Mutex<i32>, b: Mutex<i32> }
impl Shared {
    fn ping(&self, n: i32) -> i32 {
        if n > 0 { return self.pong(n - 1); }
        0
    }
    fn pong(&self, n: i32) -> i32 {
        let v = { let g = self.b.lock().unwrap(); *g };
        if n > 0 { return self.ping(n - 1); }
        v
    }
    fn path1(&self) {
        let ga = self.a.lock().unwrap();
        let v = self.ping(2);
    }
    fn path2(&self) {
        let gb = self.b.lock().unwrap();
        let ga = self.a.lock().unwrap();
    }
}
`
	findings := analyze(t, src)
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want 1: %+v", len(findings), findings)
	}
}

// TestConsistentInterProceduralOrderClean: both paths take a then b (one
// via a callee) — consistent order, no conflict.
func TestConsistentInterProceduralOrderClean(t *testing.T) {
	src := `
struct Shared { a: Mutex<i32>, b: Mutex<i32> }
impl Shared {
    fn read_b(&self) -> i32 {
        let g = self.b.lock().unwrap();
        *g
    }
    fn path1(&self) {
        let ga = self.a.lock().unwrap();
        let v = self.read_b();
    }
    fn path2(&self) {
        let ga = self.a.lock().unwrap();
        let gb = self.b.lock().unwrap();
    }
}
`
	findings := analyze(t, src)
	if len(findings) != 0 {
		t.Fatalf("consistent order flagged: %+v", findings)
	}
}

// TestTryLockGuardOrdersLaterLock: a successful try_lock yields a guard
// like lock() does (the double-lock guard analysis treats it as held),
// so taking b while a's try_lock guard is live orders a before b — an
// AB-BA against path2.
func TestTryLockGuardOrdersLaterLock(t *testing.T) {
	src := `
struct Shared { a: Mutex<i32>, b: Mutex<i32> }
impl Shared {
    fn path1(&self) {
        let ga = self.a.try_lock().unwrap();
        let gb = self.b.lock().unwrap();
    }
    fn path2(&self) {
        let gb = self.b.lock().unwrap();
        let ga = self.a.lock().unwrap();
    }
}
`
	findings := analyze(t, src)
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want 1: %+v", len(findings), findings)
	}
	if findings[0].Kind != detect.KindLockOrder || findings[0].Function != "Shared::path1" {
		t.Errorf("finding = %+v, want a lock-order report in Shared::path1", findings[0])
	}
}

// TestGuardMovedIntoCallReleasesLock: path1 moves a's guard into a call,
// which consumes it, so a is released before b is taken and the two
// paths do not conflict.
func TestGuardMovedIntoCallReleasesLock(t *testing.T) {
	src := `
fn release(g: MutexGuard<i32>) {}
struct Shared { a: Mutex<i32>, b: Mutex<i32> }
impl Shared {
    fn path1(&self) {
        let ga = self.a.lock().unwrap();
        release(ga);
        let gb = self.b.lock().unwrap();
    }
    fn path2(&self) {
        let gb = self.b.lock().unwrap();
        let ga = self.a.lock().unwrap();
    }
}
`
	findings := analyze(t, src)
	if len(findings) != 0 {
		t.Fatalf("guard moved into a call still counted as held: %+v", findings)
	}
}

// TestCalleeOrderLiftedThroughReceiver: Inner::both takes a then b, and
// Outer::path1 reaches it through self.inner while Outer::path2 takes
// self.inner.b then self.inner.a. The callee's own order, re-expressed
// at the call as self.inner.a before self.inner.b, conflicts with
// path2: one AB-BA reported at path1's call.
func TestCalleeOrderLiftedThroughReceiver(t *testing.T) {
	src := `
struct Inner { a: Mutex<i32>, b: Mutex<i32> }
impl Inner {
    fn both(&self) {
        let ga = self.a.lock().unwrap();
        let gb = self.b.lock().unwrap();
    }
}
struct Outer { inner: Inner }
impl Outer {
    fn path1(&self) {
        self.inner.both();
    }
    fn path2(&self) {
        let gb = self.inner.b.lock().unwrap();
        let ga = self.inner.a.lock().unwrap();
    }
}
`
	findings := analyze(t, src)
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want 1: %+v", len(findings), findings)
	}
	if f := findings[0]; f.Kind != detect.KindLockOrder || f.Function != "Outer::path1" {
		t.Errorf("finding = %+v, want a lock-order report in Outer::path1", f)
	}
}
