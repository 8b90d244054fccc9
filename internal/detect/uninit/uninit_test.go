package uninit

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

func TestReadBeforeInitFlagged(t *testing.T) {
	src := `
unsafe fn f() -> u8 {
    let buf = alloc(16) as *mut u8;
    *buf
}
`
	findings := analyze(t, src)
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want 1: %+v", len(findings), findings)
	}
	if findings[0].Kind != detect.KindUninitRead {
		t.Errorf("kind = %s", findings[0].Kind)
	}
}

func TestReadAfterPtrWriteClean(t *testing.T) {
	src := `
unsafe fn f() -> u8 {
    let buf = alloc(16) as *mut u8;
    ptr::write(buf, 0u8);
    *buf
}
`
	findings := analyze(t, src)
	if len(findings) != 0 {
		t.Fatalf("initialized read flagged: %+v", findings)
	}
}

func TestReadAfterAssignClean(t *testing.T) {
	src := `
unsafe fn f() -> u8 {
    let buf = alloc(16) as *mut u8;
    *buf = 1u8;
    *buf
}
`
	findings := analyze(t, src)
	if len(findings) != 0 {
		t.Fatalf("assigned read flagged: %+v", findings)
	}
}

func TestConditionalInitStillFlagged(t *testing.T) {
	// May-analysis: one path leaves the buffer uninitialized.
	src := `
unsafe fn f(c: bool) -> u8 {
    let buf = alloc(16) as *mut u8;
    if c {
        ptr::write(buf, 0u8);
    }
    *buf
}
`
	findings := analyze(t, src)
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want 1: %+v", len(findings), findings)
	}
}

// TestCastAndTupleReadsFlagged: a read through the pointer is a read in
// any rvalue, a cast operand or an aggregate field as much as a plain
// use.
func TestCastAndTupleReadsFlagged(t *testing.T) {
	for name, read := range map[string]string{
		"cast":  "let v = *buf as u32;",
		"tuple": "let v = (*buf, 1u8);",
	} {
		src := "unsafe fn f() {\n    let buf = alloc(16) as *mut u8;\n    " + read + "\n}\n"
		findings := analyze(t, src)
		if len(findings) != 1 || findings[0].Kind != detect.KindUninitRead {
			t.Errorf("%s read: findings = %+v, want one uninitialized read", name, findings)
		}
	}
}
