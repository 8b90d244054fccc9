package detect

import (
	"strings"
	"testing"

	"rustprobe/internal/hir"
	"rustprobe/internal/mir"
	"rustprobe/internal/source"
)

func TestFindingFormat(t *testing.T) {
	fset := source.NewFileSet()
	f := fset.Add("lib.rs", "fn main() {\n    boom();\n}\n")
	sp := source.NewSpan(f.Base+16, f.Base+22)
	fd := Finding{
		Kind:     KindDoubleLock,
		Severity: SeverityError,
		Function: "main",
		Span:     sp,
		Message:  "second lock of \"mu\"",
		Notes:    []string{"first guard still live"},
	}
	out := fd.Format(fset)
	for _, want := range []string{"lib.rs:2:5", "error", "double-lock", "second lock", "(in main)", "note: first guard"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q:\n%s", want, out)
		}
	}
}

func TestSortFindings(t *testing.T) {
	fs := []Finding{
		{Kind: KindUseAfterFree, Span: source.NewSpan(50, 60)},
		{Kind: KindDoubleLock, Span: source.NewSpan(10, 20)},
		{Kind: KindInvalidFree, Span: source.NewSpan(10, 20)},
	}
	SortFindings(fs)
	if fs[0].Span.Start != 10 || fs[2].Span.Start != 50 {
		t.Errorf("order: %+v", fs)
	}
	// Ties break by kind.
	if fs[0].Kind > fs[1].Kind {
		t.Errorf("tie-break wrong: %s before %s", fs[0].Kind, fs[1].Kind)
	}
}

// TestContextPointsToUnknownFunction: an unresolved callee name must get
// an empty result, not a nil-body dereference panic inside the analysis.
func TestContextPointsToUnknownFunction(t *testing.T) {
	prog := hir.NewProgram(source.NewFileSet())
	ctx := NewContext(prog, map[string]*mir.Body{})
	r := ctx.PointsTo("does_not_exist")
	if r == nil {
		t.Fatal("nil result for unknown function")
	}
	if len(r.PointsTo) != 0 {
		t.Errorf("unknown function has points-to facts: %v", r.PointsTo)
	}
	if tg := r.Targets(0); tg != nil {
		t.Errorf("Targets on empty result = %v", tg)
	}
}

func TestContextPointsToCached(t *testing.T) {
	prog := hir.NewProgram(source.NewFileSet())
	body := &mir.Body{Func: &hir.FuncDef{Qualified: "f"}}
	body.NewLocal("", nil, false, source.Span{})
	blk := body.NewBlock()
	blk.Term = mir.Return{}
	ctx := NewContext(prog, map[string]*mir.Body{"f": body})
	r1 := ctx.PointsTo("f")
	r2 := ctx.PointsTo("f")
	if r1 != r2 {
		t.Error("points-to result not cached")
	}
}

func TestSeverityString(t *testing.T) {
	if SeverityWarning.String() != "warning" || SeverityError.String() != "error" {
		t.Error("severity strings wrong")
	}
}

// TestContextCallee: a call resolves to its definition when that has a
// body, else to its callee name when that does, else to nothing.
func TestContextCallee(t *testing.T) {
	prog := hir.NewProgram(source.NewFileSet())
	ctx := NewContext(prog, map[string]*mir.Body{"S::get": {}, "helper": {}})
	for _, tc := range []struct {
		call mir.Call
		want string
	}{
		{mir.Call{Callee: "get", Def: &hir.FuncDef{Qualified: "S::get"}}, "S::get"},
		{mir.Call{Callee: "helper", Def: &hir.FuncDef{Qualified: "T::helper"}}, "helper"},
		{mir.Call{Callee: "helper"}, "helper"},
		{mir.Call{Callee: "Vec::push"}, ""},
	} {
		if got := ctx.Callee(tc.call); got != tc.want {
			t.Errorf("Callee(%s) = %q, want %q", tc.call.Callee, got, tc.want)
		}
	}
}

// TestReuseFacts: a fact is kept only for a clean function whose body
// object is unchanged; everything else is extracted and recomputed.
func TestReuseFacts(t *testing.T) {
	bodies := map[string]*mir.Body{"a": {}, "b": {}, "c": {}}
	ctx := NewContext(hir.NewProgram(source.NewFileSet()), bodies)
	self := func(b *mir.Body) *mir.Body { return b }
	extract := func(name string) *mir.Body { return bodies[name] }

	prev := map[string]*mir.Body{"a": bodies["a"], "b": {}, "c": bodies["c"]}
	facts, recompute, reused := ReuseFacts(ctx, prev, map[string]bool{"c": true}, self, extract)
	if reused != 1 || len(recompute) != 2 || !recompute["b"] || !recompute["c"] {
		t.Errorf("reused %d, recompute %v; want 1 and {b c}", reused, recompute)
	}
	for name, b := range bodies {
		if facts[name] != b {
			t.Errorf("facts[%s] is not the current body", name)
		}
	}

	if _, recompute, reused := ReuseFacts(ctx, nil, nil, self, extract); reused != 0 || len(recompute) != 3 {
		t.Errorf("nil prev: reused %d, recompute %v; want 0 and all", reused, recompute)
	}
}
