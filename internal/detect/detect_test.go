package detect

import (
	"slices"
	"strings"
	"testing"

	"rustprobe/internal/hir"
	"rustprobe/internal/mir"
	"rustprobe/internal/source"
	"rustprobe/internal/summary"
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

// TestContextCallee: a call resolves to its definition when the call
// has one, else to its callee name, and only when that function has a
// body here — the call graph's rule, so a definition without a body is
// unresolved even when a body carries the callee name.
func TestContextCallee(t *testing.T) {
	prog := hir.NewProgram(source.NewFileSet())
	ctx := NewContext(prog, map[string]*mir.Body{"S::get": {}, "helper": {}})
	for _, tc := range []struct {
		call mir.Call
		want string
	}{
		{mir.Call{Callee: "get", Def: &hir.FuncDef{Qualified: "S::get"}}, "S::get"},
		{mir.Call{Callee: "helper", Def: &hir.FuncDef{Qualified: "T::helper"}}, ""},
		{mir.Call{Callee: "helper"}, "helper"},
		{mir.Call{Callee: "Vec::push"}, ""},
	} {
		if got := ctx.Callee(tc.call); got != tc.want {
			t.Errorf("Callee(%s) = %q, want %q", tc.call.Callee, got, tc.want)
		}
	}
}

// callBody is a body whose blocks call each callee by name in turn.
func callBody(callees ...string) *mir.Body {
	b := &mir.Body{Func: &hir.FuncDef{}}
	b.NewLocal("", nil, false, source.Span{})
	for i, c := range callees {
		b.NewBlock().Term = mir.Call{Callee: c, Target: mir.BlockID(i + 1)}
	}
	b.NewBlock().Term = mir.Return{}
	return b
}

// facts returns c's computed per-function facts by kind and function.
func facts(c *Context) map[factKey]any {
	c.perFn.mu.Lock()
	defer c.perFn.mu.Unlock()
	out := map[factKey]any{}
	for fn, row := range c.perFn.rows {
		for _, kc := range row {
			if kc.cell.done.Load() {
				out[factKey{kc.kind, fn}] = kc.cell.v
			}
		}
	}
	return out
}

// TestReuseFacts is the inheritance rule: a Context takes the previous
// round's per-function fact only for a function that is not dirty and
// whose body is the object the previous round held. A dirty function, a
// replaced body, a Context-scope value and DropFlow are never taken; a
// summary warm-starts and recomputes exactly the functions not taken
// and their transitive callers; and nothing the new Context computes,
// panics included, reaches the previous one.
func TestReuseFacts(t *testing.T) {
	prog := hir.NewProgram(source.NewFileSet())
	// a calls b, b calls c; d stands alone.
	old := map[string]*mir.Body{"a": callBody("b"), "b": callBody("c"), "c": callBody(), "d": callBody()}
	prev := NewContext(prog, old)
	builds := map[factKey]int{}
	defer SetSharedBuildHook(func(kind, fn string) { builds[factKey{kind, fn}]++ })()

	transfers := map[string]int{}
	prob := &summary.Problem[int]{
		Bottom: func(string) int { return 0 },
		Transfer: func(fn string, get summary.Lookup[int]) int {
			transfers[fn]++
			return len(fn)
		},
		Equal: func(a, b int) bool { return a == b },
	}
	fact := func(c *Context, fn string) *string { return Shared(c, "fact", fn, func() *string { return &fn }) }
	wholeFact := func(c *Context) *int { return perContext(c, "whole", "", func() *int { return new(int) }) }
	for _, fn := range prev.Graph.Names() {
		fact(prev, fn)
		prev.DropFlow(fn)
	}
	prevWhole, prevSum := wholeFact(prev), Summary(prev, "sum", prob)
	prevCells := facts(prev)

	// b is dirty, c got a new body object; a and d are unchanged.
	bodies := map[string]*mir.Body{"a": old["a"], "b": old["b"], "c": callBody(), "d": old["d"]}
	next := NewContext(prog, bodies)
	if n := next.Inherit(prev, map[string]bool{"b": true}); n != 2 {
		t.Errorf("Inherit took %d facts, want 2 (a's and d's)", n)
	}
	clear(builds)
	clear(transfers)
	for _, fn := range next.Graph.Names() {
		if got := fact(next, fn); (got == prevCells[factKey{"fact", fn}]) != (fn == "a" || fn == "d") {
			t.Errorf("fact of %s: inherited = %t", fn, got == prevCells[factKey{"fact", fn}])
		}
		next.DropFlow(fn)
	}
	if builds[factKey{"fact", "b"}] != 1 || builds[factKey{"fact", "c"}] != 1 || builds[factKey{"fact", "a"}] != 0 {
		t.Errorf("fact builds = %v, want b and c only", builds)
	}
	for _, fn := range []string{"a", "b", "c", "d"} {
		if builds[factKey{"dropflow", fn}] != 1 {
			t.Errorf("DropFlow(%s) built %d times, want 1: it is never inherited", fn, builds[factKey{"dropflow", fn}])
		}
	}
	if wholeFact(next) == prevWhole {
		t.Error("a Context-scope value was inherited")
	}
	sum := Summary(next, "sum", prob)
	if len(transfers) != 3 || transfers["d"] != 0 {
		t.Errorf("warm summary transferred %v, want a, b and c (not inherited, or a caller of one)", transfers)
	}
	if sum == prevSum || sum.Summaries["d"] != prevSum.Summaries["d"] || len(next.warm) != 0 {
		t.Errorf("summary: reused result %t, d = %d, warm starts left %d", sum == prevSum, sum.Summaries["d"], len(next.warm))
	}

	func() {
		defer func() { recover() }()
		Shared(next, "boom", "a", func() int { panic("boom") })
	}()
	after := facts(prev)
	if len(after) != len(prevCells) {
		t.Fatalf("the previous Context's facts went from %d to %d", len(prevCells), len(after))
	}
	for k, v := range prevCells {
		if after[k] != v {
			t.Errorf("the previous Context's %v changed", k)
		}
	}

	// The computation that panicked left nothing for the next round.
	third := NewContext(prog, bodies)
	if n, want := third.Inherit(next, nil), len(facts(next)); n != want {
		t.Errorf("the next round took %d facts, want the %d computed ones", n, want)
	}
	if _, ok := facts(third)[factKey{"boom", "a"}]; ok {
		t.Error("a computation that panicked was inherited")
	}

	// Two Contexts share an inherited row but never write it: a kind
	// either one adds lands in its own copy.
	mine, theirs := NewContext(prog, old), NewContext(prog, old)
	for _, kind := range []string{"k1", "k2", "k3"} {
		Shared(mine, kind, "d", func() string { return kind })
	}
	theirs.Inherit(mine, nil)
	Shared(mine, "mine", "d", func() string { return "mine" })
	Shared(theirs, "theirs", "d", func() string { return "theirs" })
	if got := facts(mine); got[factKey{"mine", "d"}] != "mine" || got[factKey{"theirs", "d"}] != nil {
		t.Errorf("the row was written through another Context: %v", got)
	}
}

// TestDerivedAllInheritance is the rule for values derived from
// summaries: a round's Context takes the previous round's value of a
// function only when neither its summary nor a summary it declared
// reading was recomputed, and only from a round that checked it; every
// value reads as on a Context of its own.
func TestDerivedAllInheritance(t *testing.T) {
	prog := hir.NewProgram(source.NewFileSet())
	// a calls b; c reads b's summary without calling it, as a spawner
	// reads its closure's; d stands alone.
	old := map[string]*mir.Body{"a": callBody("b"), "b": callBody(), "c": callBody(), "d": callBody()}
	weight := map[*mir.Body]int{old["b"]: 1}
	newB := callBody()
	weight[newB] = 10
	prob := func(c *Context) *summary.Problem[int] {
		return &summary.Problem[int]{
			Bottom: func(string) int { return 0 },
			Transfer: func(fn string, get summary.Lookup[int]) int {
				v := weight[c.Bodies[fn]]
				for _, e := range c.Graph.Callees[fn] {
					s, _ := get(e.Callee)
					v += s
				}
				return v
			},
			Equal: func(a, b int) bool { return a == b },
		}
	}
	builds := map[string]int{}
	defer SetSharedBuildHook(func(kind, fn string) {
		if kind == "derived" {
			builds[fn]++
		}
	})()
	derive := func(c *Context) []int {
		sums := Summary(c, "sum", prob(c))
		return DerivedAll(c, "derived", sums, func(fn string) (int, []string) {
			if fn == "c" {
				return sums.Summaries["b"], []string{"b"}
			}
			return sums.Summaries[fn], nil
		})
	}
	check := func(round string, c *Context, wantBuilt string) {
		t.Helper()
		clear(builds)
		got := derive(c)
		built := make([]string, 0, len(builds))
		for _, fn := range c.Graph.Names() {
			if builds[fn] > 0 {
				built = append(built, fn)
			}
		}
		if b := strings.Join(built, ","); b != wantBuilt {
			t.Errorf("%s: built %s, want %s", round, b, wantBuilt)
		}
		if want := derive(NewContext(prog, c.Bodies)); !slices.Equal(got, want) {
			t.Errorf("%s: values %v, want %v as on a Context of its own", round, got, want)
		}
	}

	first := NewContext(prog, old)
	check("cold", first, "a,b,c,d")
	bodies := map[string]*mir.Body{"a": old["a"], "b": newB, "c": old["c"], "d": old["d"]}
	second := NewContext(prog, bodies)
	second.Inherit(first, nil)
	check("b replaced", second, "a,b,c")
	third := NewContext(prog, bodies)
	third.Inherit(second, nil)
	check("unchanged", third, "")

	// A round that computed the summary but derived nothing checked
	// none of the values it inherited, so the next takes none of them.
	skipped := NewContext(prog, bodies)
	skipped.Inherit(first, nil)
	Summary(skipped, "sum", prob(skipped))
	after := NewContext(prog, bodies)
	after.Inherit(skipped, nil)
	check("after a round that derived nothing", after, "a,b,c,d")
}
