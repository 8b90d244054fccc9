package interp

import (
	"strings"
	"testing"

	"rustprobe/internal/lower"
	"rustprobe/internal/mir"
	"rustprobe/internal/parser"
	"rustprobe/internal/resolve"
	"rustprobe/internal/source"
)

func run(t *testing.T, src, fn string) *Result {
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
	body, ok := bodies[fn]
	if !ok {
		t.Fatalf("no body %q", fn)
	}
	return Run(body, Config{})
}

func kinds(r *Result) map[ErrorKind]int {
	out := map[ErrorKind]int{}
	for _, e := range r.Errors {
		out[e.Kind]++
	}
	return out
}

func TestDynamicUAF(t *testing.T) {
	r := run(t, `
fn f() {
    let p = {
        let v = Vec::new();
        v.as_ptr()
    };
    unsafe { let x = *p; }
}
`, "f")
	if kinds(r)[ErrUseAfterFree] != 1 {
		t.Fatalf("errors = %v", r.Errors)
	}
}

func TestDynamicCleanRun(t *testing.T) {
	r := run(t, `
fn f() {
    let v = Vec::new();
    let p = v.as_ptr();
    unsafe { let x = *p; }
}
`, "f")
	if len(r.Errors) != 0 {
		t.Fatalf("clean run reported: %v", r.Errors)
	}
}

func TestDynamicDeadlock(t *testing.T) {
	r := run(t, `
struct S { v: i32 }
fn f(mu: Mutex<S>) {
    let a = mu.lock().unwrap();
    let b = mu.lock().unwrap();
}
`, "f")
	if kinds(r)[ErrDeadlock] != 1 {
		t.Fatalf("errors = %v", r.Errors)
	}
}

func TestDynamicNoDeadlockAfterDrop(t *testing.T) {
	r := run(t, `
struct S { v: i32 }
fn f(mu: Mutex<S>) {
    let a = mu.lock().unwrap();
    drop(a);
    let b = mu.lock().unwrap();
}
`, "f")
	if kinds(r)[ErrDeadlock] != 0 {
		t.Fatalf("errors = %v", r.Errors)
	}
}

// The path-sensitivity payoff: the static detector flags fp_path (§7.1's
// third false positive); the dynamic explorer, which keeps branch
// decisions consistent along a path, does not.
func TestDynamicPathSensitivity(t *testing.T) {
	r := run(t, `
fn f(c: bool) {
    let v = vec![1u8];
    let p = v.as_ptr();
    if c {
        drop(v);
    }
    if !c {
        unsafe { let x = *p; }
    }
}
`, "f")
	// The explorer DOES explore the (drop; deref) path — branch conditions
	// are independent unknowns, so one of four paths still hits the
	// error. What path sensitivity buys is the trace: the error's path
	// shows both branches were taken, which a triager can rule out.
	for _, e := range r.Errors {
		if e.Kind == ErrUseAfterFree && len(e.Trace) < 2 {
			t.Errorf("expected a two-branch trace, got %v", e.Trace)
		}
	}
}

func TestDynamicDoubleDropViaPtrRead(t *testing.T) {
	r := run(t, `
struct Holder { b: Box<i32> }
fn f(t1: Holder) {
    let t2 = unsafe { ptr::read(&t1) };
}
`, "f")
	// ptr::read duplicates ownership: t2 and t1 drop the same Box.
	if !hasKind(r, ErrDoubleDrop) {
		t.Fatalf("expected double drop, got %+v", r.Errors)
	}
}

func hasKind(r *Result, k ErrorKind) bool {
	for _, e := range r.Errors {
		if e.Kind == k {
			return true
		}
	}
	return false
}

// runAll lowers the source and runs fn with the whole program available
// for call inlining (the inherited-locks interprocedural model).
func runAll(t *testing.T, src, fn string) *Result {
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
	body, ok := bodies[fn]
	if !ok {
		t.Fatalf("no body %q", fn)
	}
	return RunWith(body, Config{}, bodies)
}

func TestDynamicNoDoubleDropOnMove(t *testing.T) {
	r := run(t, `
struct Holder { b: Box<i32> }
fn f(t1: Holder) {
    let t2 = t1;
}
`, "f")
	// A plain move leaves a single owner; drop elaboration already elides
	// the source's drop, so the shared-value-root model must stay silent.
	if len(r.Errors) != 0 {
		t.Fatalf("clean move reported: %v", r.Errors)
	}
}

func TestDynamicNoDoubleDropAfterForget(t *testing.T) {
	r := run(t, `
struct Holder { b: Box<i32> }
fn f(t1: Holder) {
    let t2 = unsafe { ptr::read(&t1) };
    mem::forget(t1);
}
`, "f")
	if len(r.Errors) != 0 {
		t.Fatalf("forget variant reported: %v", r.Errors)
	}
}

// Figure 6 (relibc _fdopen): assigning a droppy struct through a pointer
// to fresh allocation drops the uninitialized previous value.
func TestDynamicInvalidFree(t *testing.T) {
	r := run(t, `
pub struct FILE { buf: Vec<u8> }
pub unsafe fn f() {
    let p = alloc(32) as *mut FILE;
    *p = FILE { buf: vec![0u8; 16] };
}
`, "f")
	if !hasKind(r, ErrInvalidFree) {
		t.Fatalf("expected invalid free, got %+v", r.Errors)
	}
}

func TestDynamicInvalidFreeFixedByPtrWrite(t *testing.T) {
	r := run(t, `
pub struct FILE { buf: Vec<u8> }
pub unsafe fn f() {
    let p = alloc(32) as *mut FILE;
    ptr::write(p, FILE { buf: vec![0u8; 16] });
}
`, "f")
	if len(r.Errors) != 0 {
		t.Fatalf("ptr::write fix reported: %v", r.Errors)
	}
}

// The dynamic oracle shares the static detector's drop-glue rule: only
// the first assignment through a fresh allocation drops garbage, and a
// type without drop glue (Duration, NonNull) drops nothing.
func TestDynamicInvalidFreeOnlyBeforeInitWithGlue(t *testing.T) {
	src := `
pub struct FILE { buf: Vec<u8> }
pub unsafe fn twice() {
    let p = alloc(32) as *mut FILE;
    *p = FILE { buf: vec![0u8; 16] };
    *p = FILE { buf: vec![0u8; 16] };
}
pub unsafe fn set_timeout(t: Duration) {
    let d = alloc(16) as *mut Duration;
    *d = t;
}
pub unsafe fn set_head(h: NonNull<u8>) {
    let p = alloc(8) as *mut NonNull<u8>;
    *p = h;
}
`
	if r := run(t, src, "twice"); kinds(r)[ErrInvalidFree] != 1 {
		t.Errorf("twice: errors = %+v, want one invalid free", r.Errors)
	}
	for _, fn := range []string{"set_timeout", "set_head"} {
		if r := run(t, src, fn); len(r.Errors) != 0 {
			t.Errorf("%s: overwrite without drop glue reported: %+v", fn, r.Errors)
		}
	}
}

// Heap allocations are pseudo roots with their own lifecycle: uninit
// until written, independent of the stack temporaries that held the
// pointer (regression for the generator-exposed alloc model gap).
func TestDynamicUninitReadFromAlloc(t *testing.T) {
	r := run(t, `
pub unsafe fn f() -> u8 {
    let buf = alloc(8) as *mut u8;
    *buf
}
`, "f")
	if !hasKind(r, ErrUninitRead) {
		t.Fatalf("expected uninit read, got %+v", r.Errors)
	}
}

func TestDynamicAllocWriteThenReadClean(t *testing.T) {
	r := run(t, `
pub unsafe fn f() -> u8 {
    let buf = alloc(8) as *mut u8;
    ptr::write(buf, 7u8);
    let v = ptr::read(buf);
    v
}
`, "f")
	if len(r.Errors) != 0 {
		t.Fatalf("initialized alloc reported: %v", r.Errors)
	}
}

func TestDynamicUAFAfterDealloc(t *testing.T) {
	r := run(t, `
pub unsafe fn f() -> u8 {
    let buf = alloc(8) as *mut u8;
    ptr::write(buf, 7u8);
    dealloc(buf);
    *buf
}
`, "f")
	if !hasKind(r, ErrUseAfterFree) {
		t.Fatalf("expected use after free, got %+v", r.Errors)
	}
}

// The corpus bug 4 shape: the callee locks a field the caller already
// holds; inlining carries the caller's lock context into the callee.
func TestDynamicDeadlockInterproc(t *testing.T) {
	r := runAll(t, `
struct Inner { v: i32 }
struct S { mu: Mutex<Inner> }
impl S {
    fn callee(&self) -> i32 {
        let q = self.mu.lock().unwrap();
        q.v
    }
    fn caller(&self) {
        let g = self.mu.lock().unwrap();
        let v = self.callee();
        use_both(g.v, v);
    }
}
`, "S::caller")
	if !hasKind(r, ErrDeadlock) {
		t.Fatalf("expected deadlock, got %+v", r.Errors)
	}
	// The error's trace must record the inlined call so a triager can see
	// the acquisition context.
	found := false
	for _, e := range r.Errors {
		if e.Kind == ErrDeadlock {
			for _, step := range e.Trace {
				if strings.Contains(step, "call ") {
					found = true
				}
			}
		}
	}
	if !found {
		t.Errorf("deadlock trace has no call step: %+v", r.Errors)
	}
}

// Branch decisions along the erroring path are recorded as bbN->bbM trace
// steps.
func TestBranchTraceRecorded(t *testing.T) {
	r := run(t, `
fn f(c: bool) {
    let v = vec![1u8];
    let p = v.as_ptr();
    if c {
        drop(v);
    }
    unsafe { let x = *p; }
}
`, "f")
	found := false
	for _, e := range r.Errors {
		if e.Kind != ErrUseAfterFree {
			continue
		}
		for _, step := range e.Trace {
			if strings.Contains(step, "->") && strings.HasPrefix(step, "bb") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no branch step in any UAF trace: %+v", r.Errors)
	}
}

func TestLoopsTerminate(t *testing.T) {
	r := run(t, `
fn f() {
    let mut i = 0;
    loop {
        i += 1;
        if i > 3 { break; }
    }
    while i > 0 { i -= 1; }
    for j in 0..10 { work(j); }
}
`, "f")
	if r.Paths == 0 {
		t.Fatal("no paths explored")
	}
}

func TestPathBudget(t *testing.T) {
	// 2^12 branch combinations exceed the path budget: must truncate, not
	// hang.
	src := "fn f(c: bool) {\n"
	for i := 0; i < 12; i++ {
		src += "    if c { a(); } else { b(); }\n"
	}
	src += "}\n"
	r := run(t, src, "f")
	if !r.Truncated && r.Paths < 256 {
		t.Errorf("paths = %d truncated = %v", r.Paths, r.Truncated)
	}
}

func TestRunAllOrdered(t *testing.T) {
	fset := source.NewFileSet()
	f := fset.Add("t.rs", `
fn a() {}
fn b() {}
`)
	diags := source.NewDiagnostics(fset)
	crate := parser.ParseFile(f, diags)
	prog := resolve.Crates(fset, diags, crate)
	bodies := lower.Program(prog, diags)
	results := RunAll(bodies, Config{})
	if len(results) != 2 || results[0].Function != "a" || results[1].Function != "b" {
		t.Errorf("results order wrong: %+v", results)
	}
	_ = mir.ReturnLocal
}
