package dfree

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
	findings, _ := analyzeWith(t, New(), src)
	return findings
}

func analyzeWith(t *testing.T, d *Detector, src string) ([]detect.Finding, *source.FileSet) {
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
	return d.Run(ctx), fset
}

func count(fs []detect.Finding, kind detect.Kind) int {
	n := 0
	for _, f := range fs {
		if f.Kind == kind {
			n++
		}
	}
	return n
}

// Figure 6 (Redox): assigning a struct through a pointer to uninitialized
// memory drops the garbage previous value.
const figure6Buggy = `
pub struct FILE { buf: Vec<u8> }

pub unsafe fn _fdopen() {
    let f = alloc(size_of::<FILE>()) as *mut FILE;
    *f = FILE { buf: vec![0u8; 100] };
}
`

// The committed fix: ptr::write initializes without dropping.
const figure6Fixed = `
pub struct FILE { buf: Vec<u8> }

pub unsafe fn _fdopen() {
    let f = alloc(size_of::<FILE>()) as *mut FILE;
    ptr::write(f, FILE { buf: vec![0u8; 100] });
}
`

func TestFigure6BuggyFlagged(t *testing.T) {
	findings := analyze(t, figure6Buggy)
	if count(findings, detect.KindInvalidFree) != 1 {
		t.Fatalf("findings = %+v, want 1 invalid-free", findings)
	}
}

func TestFigure6FixedClean(t *testing.T) {
	findings := analyze(t, figure6Fixed)
	if n := count(findings, detect.KindInvalidFree); n != 0 {
		t.Fatalf("fixed version flagged: %+v", findings)
	}
}

// Only the first plain assignment through a fresh allocation drops a
// garbage previous value; it initializes the memory, so the second
// assignment drops the first one's valid value.
const figure6Twice = `
pub struct FILE { buf: Vec<u8> }

pub unsafe fn _fdopen() {
    let f = alloc(size_of::<FILE>()) as *mut FILE;
    *f = FILE { buf: vec![0u8; 100] };
    *f = FILE { buf: vec![0u8; 100] };
}
`

// Duration and NonNull have no drop glue, so overwriting garbage of those
// types through a fresh allocation drops nothing.
const noGlueOverwrite = `
pub unsafe fn set_timeout(t: Duration) {
    let d = alloc(size_of::<Duration>()) as *mut Duration;
    *d = t;
}

pub unsafe fn set_head(h: NonNull<u8>) {
    let p = alloc(size_of::<NonNull<u8>>()) as *mut NonNull<u8>;
    *p = h;
}
`

// TestInvalidFreeOnlyBeforeInit pins the invalid-free rule on the shared
// uninit facts and the shared drop-glue rule, in default and precise mode.
func TestInvalidFreeOnlyBeforeInit(t *testing.T) {
	for _, d := range []*Detector{New(), NewPrecise()} {
		findings, fset := analyzeWith(t, d, figure6Twice)
		if len(findings) != 1 || fset.Position(findings[0].Span.Start).Line != 6 {
			t.Errorf("precise=%v: findings = %+v, want one invalid free at the first assignment (line 6)", d.Precise, findings)
		}
		if findings, _ := analyzeWith(t, d, noGlueOverwrite); len(findings) != 0 {
			t.Errorf("precise=%v: overwrite without drop glue flagged: %+v", d.Precise, findings)
		}
	}
}

// §5.1 double free: t2 = ptr::read(&t1) gives the pointee two owners.
const doubleFreeBuggy = `
struct Holder { b: Box<i32> }

fn f(t1: Holder) {
    let t2 = unsafe { ptr::read(&t1) };
}
`

// The safe alternative moves ownership.
const doubleFreeFixed = `
struct Holder { b: Box<i32> }

fn f(t1: Holder) {
    let t2 = t1;
}
`

func TestDoubleFreeFlagged(t *testing.T) {
	findings := analyze(t, doubleFreeBuggy)
	if count(findings, detect.KindDoubleFree) != 1 {
		t.Fatalf("findings = %+v, want 1 double-free", findings)
	}
}

func TestMoveInsteadOfPtrReadClean(t *testing.T) {
	findings := analyze(t, doubleFreeFixed)
	if n := count(findings, detect.KindDoubleFree); n != 0 {
		t.Fatalf("move version flagged: %+v", findings)
	}
}

func TestPtrReadWithForgetClean(t *testing.T) {
	// mem::forget on the original owner prevents the double drop.
	src := `
struct Holder { b: Box<i32> }

fn f(t1: Holder) {
    let t2 = unsafe { ptr::read(&t1) };
    mem::forget(t1);
}
`
	findings := analyze(t, src)
	if n := count(findings, detect.KindDoubleFree); n != 0 {
		t.Fatalf("forget version flagged: %+v", findings)
	}
}
