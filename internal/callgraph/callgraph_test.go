package callgraph

import (
	"strings"
	"testing"

	"rustprobe/internal/hir"
	"rustprobe/internal/lower"
	"rustprobe/internal/mir"
	"rustprobe/internal/parser"
	"rustprobe/internal/resolve"
	"rustprobe/internal/source"
)

func lowerBodies(t *testing.T, src string) map[string]*mir.Body {
	t.Helper()
	fset := source.NewFileSet()
	f := fset.Add("test.rs", src)
	diags := source.NewDiagnostics(fset)
	crate := parser.ParseFile(f, diags)
	if diags.HasErrors() {
		t.Fatalf("parse errors:\n%s", diags.String())
	}
	prog := resolve.Crates(fset, diags, crate)
	return lower.Program(prog, diags)
}

func buildGraph(t *testing.T, src string) *Graph {
	t.Helper()
	return Build(lowerBodies(t, src))
}

const chainSrc = `
fn a() { b(); }
fn b() { c(); c(); }
fn c() { external(); }
struct S { v: i32 }
impl S {
    fn m(&self) { helper(self.v); }
}
fn helper(v: i32) {}
`

func TestEdges(t *testing.T) {
	g := buildGraph(t, chainSrc)
	if len(g.Callees["a"]) != 1 || g.Callees["a"][0].Callee != "b" {
		t.Errorf("a's callees: %+v", g.Callees["a"])
	}
	if len(g.Callees["b"]) != 2 {
		t.Errorf("b should call c twice: %+v", g.Callees["b"])
	}
	// external() resolves to nothing: no edge.
	if len(g.Callees["c"]) != 0 {
		t.Errorf("c's callees: %+v", g.Callees["c"])
	}
	if len(g.Callers["c"]) != 2 {
		t.Errorf("c's callers: %+v", g.Callers["c"])
	}
	if len(g.Callees["S::m"]) != 1 || g.Callees["S::m"][0].Callee != "helper" {
		t.Errorf("method edge missing: %+v", g.Callees["S::m"])
	}
}

func TestRecursionTolerated(t *testing.T) {
	g := buildGraph(t, `
fn even(n: i32) -> bool { odd(n - 1) }
fn odd(n: i32) -> bool { even(n - 1) }
`)
	sccs := g.SCCs()
	if len(sccs) != 1 || len(sccs[0].Members) != 2 {
		t.Errorf("sccs = %+v", sccs)
	}
	trans := g.TransitiveCallers("even")
	if !trans["odd"] || !trans["even"] {
		t.Errorf("mutual recursion closure = %v", trans)
	}
	_ = mir.Call{}
}

func TestSCCsCondensationOrder(t *testing.T) {
	g := buildGraph(t, chainSrc)
	sccs := g.SCCs()
	if len(sccs) != len(g.Bodies) {
		t.Fatalf("acyclic graph should condense to singletons: %d vs %d", len(sccs), len(g.Bodies))
	}
	pos := map[string]int{}
	for i, s := range sccs {
		if s.Recursive {
			t.Errorf("acyclic component marked recursive: %v", s.Members)
		}
		for _, m := range s.Members {
			pos[m] = i
		}
	}
	// Callees must appear before their callers.
	for caller, edges := range g.Callees {
		for _, e := range edges {
			if pos[e.Callee] > pos[caller] {
				t.Errorf("callee %s condensed after caller %s", e.Callee, caller)
			}
		}
	}
}

func TestSCCsMutualRecursion(t *testing.T) {
	g := buildGraph(t, `
fn even(n: i32) -> bool { odd(n - 1) }
fn odd(n: i32) -> bool { even(n - 1) }
fn probe() { even(4); }
fn leaf() {}
`)
	sccs := g.SCCs()
	var cycle *SCC
	for i := range sccs {
		if len(sccs[i].Members) == 2 {
			cycle = &sccs[i]
		}
	}
	if cycle == nil {
		t.Fatalf("no 2-function component: %+v", sccs)
	}
	if !cycle.Recursive {
		t.Error("cycle not marked recursive")
	}
	if cycle.Members[0] != "even" || cycle.Members[1] != "odd" {
		t.Errorf("members not sorted: %v", cycle.Members)
	}
	// probe calls into the cycle, so its singleton must come later.
	pos := map[string]int{}
	for i, s := range sccs {
		for _, m := range s.Members {
			pos[m] = i
		}
	}
	if pos["probe"] < pos["even"] {
		t.Error("caller condensed before the cycle it calls into")
	}
}

func TestSCCsSelfRecursion(t *testing.T) {
	g := buildGraph(t, `
fn fact(n: i32) -> i32 { if n > 1 { return n * fact(n - 1); } 1 }
fn plain() {}
`)
	for _, s := range g.SCCs() {
		switch s.Members[0] {
		case "fact":
			if !s.Recursive {
				t.Error("self-recursive function not marked recursive")
			}
		case "plain":
			if s.Recursive {
				t.Error("plain function marked recursive")
			}
		}
	}
}

// TestSCCsDeterministic: repeated condensations of the same program (and
// of a fresh graph over the same source) are identical — the property the
// summary framework's reproducible iteration order rests on.
func TestSCCsDeterministic(t *testing.T) {
	src := `
struct R { m: Mutex<i32> }
impl R {
    fn a(&self, n: i32) { self.b(n); }
    fn b(&self, n: i32) { self.c(n); self.a(n); }
    fn c(&self, n: i32) { self.b(n); }
    fn d(&self) { self.a(1); }
}
fn free() {}
`
	ref := buildGraph(t, src).SCCs()
	for trial := 0; trial < 20; trial++ {
		got := buildGraph(t, src).SCCs()
		if len(got) != len(ref) {
			t.Fatalf("trial %d: %d components vs %d", trial, len(got), len(ref))
		}
		for i := range ref {
			if got[i].Recursive != ref[i].Recursive || len(got[i].Members) != len(ref[i].Members) {
				t.Fatalf("trial %d: component %d differs: %+v vs %+v", trial, i, got[i], ref[i])
			}
			for j := range ref[i].Members {
				if got[i].Members[j] != ref[i].Members[j] {
					t.Fatalf("trial %d: member order differs: %v vs %v", trial, got[i].Members, ref[i].Members)
				}
			}
		}
	}
}

func TestTransitiveCallers(t *testing.T) {
	g := buildGraph(t, chainSrc)
	callers := g.TransitiveCallers("c")
	if !callers["a"] || !callers["b"] {
		t.Errorf("c's transitive callers = %v, want a and b", callers)
	}
	if callers["c"] || callers["helper"] || callers["S::m"] {
		t.Errorf("unrelated functions marked as callers: %v", callers)
	}
	// Multi-start union: helper's callers join in.
	both := g.TransitiveCallers("c", "helper")
	if !both["S::m"] || !both["a"] || !both["b"] {
		t.Errorf("multi-start callers = %v", both)
	}
}

// --- incremental patching ------------------------------------------------

func TestPatchNilPrevIsBuild(t *testing.T) {
	bodies := lowerBodies(t, chainSrc)
	if d := Diff(Patch(nil, bodies, nil), Build(bodies)); d != "" {
		t.Fatalf("Patch(nil, ...) must degrade to Build: %s", d)
	}
}

// TestPatchBodyEditMatchesRebuild splices one re-lowered body into an
// otherwise pointer-identical map — exactly what the session does — and
// demands the patched graph fingerprint-match a from-scratch rebuild,
// with unchanged callers' edge slices reused rather than rescanned.
func TestPatchBodyEditMatchesRebuild(t *testing.T) {
	const v1 = `
fn a() { b(); }
fn b() { c(); }
fn c() {}
fn d() { c(); }
`
	const v2 = `
fn a() { b(); }
fn b() { c(); d(); }
fn c() {}
fn d() { c(); }
`
	prevBodies := lowerBodies(t, v1)
	prev := Build(prevBodies)

	bodies := map[string]*mir.Body{}
	for name, body := range prevBodies {
		bodies[name] = body
	}
	bodies["b"] = lowerBodies(t, v2)["b"]

	g := Patch(prev, bodies, map[string]bool{"b": true})
	if d := Diff(g, Build(bodies)); d != "" {
		t.Fatalf("patched graph diverged from rebuild after a body edit: %s", d)
	}
	if len(g.Callees["b"]) != 2 {
		t.Errorf("b's rescanned callees: %+v", g.Callees["b"])
	}
	// The unchanged caller's edges are the cached slice, not a rescan.
	if len(g.Callees["a"]) != 1 || &g.Callees["a"][0] != &prev.Callees["a"][0] {
		t.Error("unchanged caller a was rescanned instead of reusing cached edges")
	}
}

// TestPatchUnresolvedNowResolves: a caller whose callee did not exist at
// its last scan must be rescanned when the name gains a body, even
// though the caller itself is unchanged.
func TestPatchUnresolvedNowResolves(t *testing.T) {
	prevBodies := lowerBodies(t, `
fn caller() { missing(); }
fn other() { caller(); }
`)
	prev := Build(prevBodies)
	if len(prev.Callees["caller"]) != 0 {
		t.Fatalf("missing() should not resolve yet: %+v", prev.Callees["caller"])
	}

	bodies := map[string]*mir.Body{}
	for name, body := range prevBodies {
		bodies[name] = body
	}
	bodies["missing"] = lowerBodies(t, `fn missing() {}`)["missing"]

	g := Patch(prev, bodies, map[string]bool{"missing": true})
	if d := Diff(g, Build(bodies)); d != "" {
		t.Fatalf("patched graph diverged from rebuild after resolution flip: %s", d)
	}
	if len(g.Callees["caller"]) != 1 || g.Callees["caller"][0].Callee != "missing" {
		t.Errorf("caller's edge to the new body missing: %+v", g.Callees["caller"])
	}
}

// TestPatchVanishedCalleeRoundTrip: removing a callee drops the cached
// edge copy-on-write and re-records the name as unresolved, so a later
// re-add rescans the caller and restores the edge.
func TestPatchVanishedCalleeRoundTrip(t *testing.T) {
	prevBodies := lowerBodies(t, `
fn a() { b(); c(); }
fn b() {}
fn c() {}
`)
	prev := Build(prevBodies)

	// Round 1: b vanishes; a is untouched.
	smaller := map[string]*mir.Body{}
	for name, body := range prevBodies {
		if name != "b" {
			smaller[name] = body
		}
	}
	g1 := Patch(prev, smaller, nil)
	if d := Diff(g1, Build(smaller)); d != "" {
		t.Fatalf("patched graph diverged from rebuild after callee removal: %s", d)
	}
	if len(g1.Callees["a"]) != 1 || g1.Callees["a"][0].Callee != "c" {
		t.Errorf("a's edges after removal: %+v", g1.Callees["a"])
	}

	// Round 2: b comes back; a must be rescanned via Unresolved.
	restored := map[string]*mir.Body{}
	for name, body := range smaller {
		restored[name] = body
	}
	restored["b"] = lowerBodies(t, `fn b() {}`)["b"]
	g2 := Patch(g1, restored, map[string]bool{"b": true})
	if d := Diff(g2, Build(restored)); d != "" {
		t.Fatalf("patched graph diverged from rebuild after callee re-add: %s", d)
	}
	if len(g2.Callees["a"]) != 2 {
		t.Errorf("a's edges after re-add: %+v", g2.Callees["a"])
	}
}

// TestResolveDefWithoutBody pins the one callee rule on the shape the
// graph and the detectors once disagreed on: a call whose resolved
// definition has no body while a body carries its callee name. The call
// is unresolved — no edge, its definition recorded as unresolved — and
// Resolve says the same.
func TestResolveDefWithoutBody(t *testing.T) {
	call := mir.Call{Callee: "helper", Def: &hir.FuncDef{Qualified: "T::helper"}, Target: 1}
	caller := &mir.Body{}
	caller.NewBlock().Term = call
	caller.NewBlock().Term = mir.Return{}
	bodies := map[string]*mir.Body{"caller": caller, "helper": {}}

	if got := Resolve(call, bodies); got != "" {
		t.Errorf("Resolve = %q, want unresolved", got)
	}
	g := Build(bodies)
	if len(g.Callees["caller"]) != 0 || len(g.Callers["helper"]) != 0 {
		t.Errorf("edges %v, want none", g.Callees["caller"])
	}
	if u := g.Unresolved["caller"]; len(u) != 1 || u[0] != "T::helper" {
		t.Errorf("Unresolved = %v, want [T::helper]", u)
	}
	bodies["T::helper"] = &mir.Body{}
	if got := Resolve(call, bodies); got != "T::helper" {
		t.Errorf("with a body for the definition, Resolve = %q, want T::helper", got)
	}
}

// patchEdit lowers v1 and v2, swaps v2's bodies for every name in
// changed (dropping those v2 lacks) into v1's body map, and returns
// v1's graph with the patched and rebuilt graphs of the result.
func patchEdit(t *testing.T, v1, v2 string, changed ...string) (prev, patched, built *Graph) {
	t.Helper()
	prevBodies := lowerBodies(t, v1)
	prev = Build(prevBodies)
	prev.SCCs()
	next := lowerBodies(t, v2)
	bodies := map[string]*mir.Body{}
	for name, body := range prevBodies {
		bodies[name] = body
	}
	set := map[string]bool{}
	for _, name := range changed {
		if b, ok := next[name]; ok {
			bodies[name] = b
			set[name] = true
		} else {
			delete(bodies, name)
		}
	}
	patched, built = Patch(prev, bodies, set), Build(bodies)
	if d := Diff(patched, built); d != "" {
		t.Fatalf("patched graph diverges from Build: %s", d)
	}
	return prev, patched, built
}

// TestPatchReusesSCCsWhenCalleesUnchanged: a body edit that keeps the
// body's callee sequence hands the previous condensation and name list
// to the patched graph: the same backing arrays, not recomputed copies.
func TestPatchReusesSCCsWhenCalleesUnchanged(t *testing.T) {
	prev, g, _ := patchEdit(t, `
fn a() { b(); }
fn b() { let x = 1; c(); }
fn c() { a(); }
fn d() { c(); }
`, `
fn b() { let y = 2; let z = y; c(); }
`, "b")
	if &g.SCCs()[0] != &prev.SCCs()[0] {
		t.Error("SCCs were recomputed although no callee sequence changed")
	}
	if &g.Names()[0] != &prev.Names()[0] {
		t.Error("Names were recomputed although the body set is unchanged")
	}
	if &g.Callers["a"][0] != &prev.Callers["a"][0] {
		t.Error("an untouched Callers list was rewritten")
	}
}

// TestPatchRecomputesSCCsOnNewCycle: an added edge that closes a cycle
// must not reuse the previous condensation.
func TestPatchRecomputesSCCsOnNewCycle(t *testing.T) {
	prev, g, built := patchEdit(t, `
fn a() { b(); }
fn b() { c(); }
fn c() {}
`, `
fn c() { a(); }
`, "c")
	if &g.SCCs()[0] == &prev.SCCs()[0] {
		t.Fatal("SCCs reused across an edit that closed a cycle")
	}
	if len(built.SCCs()) != 1 || !built.SCCs()[0].Recursive {
		t.Fatalf("Build's SCCs %+v, want one recursive component", built.SCCs())
	}
}

// TestPatchClosureAddedAndRemoved: an edit that adds a closure body, and
// one that removes it again, changes the body set: names and SCCs are
// recomputed, and the vanished closure's edges leave every Callers list.
func TestPatchClosureAddedAndRemoved(t *testing.T) {
	const plain = `
fn helper() {}
fn run() { helper(); }
`
	const closure = `
fn helper() {}
fn run() { let f = || helper(); f(); }
`
	closureBody := func(g *Graph) string {
		for _, n := range g.Names() {
			if strings.HasPrefix(n, "run::closure#") {
				return n
			}
		}
		return ""
	}
	prev, g, _ := patchEdit(t, plain, closure, "run", "run::closure#0")
	if closureBody(g) == "" || closureBody(prev) != "" {
		t.Fatalf("closure body not added: %v", g.Names())
	}
	if &g.SCCs()[0] == &prev.SCCs()[0] || len(g.Names()) == len(prev.Names()) {
		t.Fatal("names or SCCs reused across a body-set change")
	}
	prev, g, _ = patchEdit(t, closure, plain, "run", closureBody(Build(lowerBodies(t, closure))))
	if closureBody(g) != "" || len(g.Callers["helper"]) != 1 || g.Callers["helper"][0].Caller != "run" {
		t.Fatalf("closure body not removed: names %v, helper's callers %+v", g.Names(), g.Callers["helper"])
	}
	if &g.SCCs()[0] == &prev.SCCs()[0] {
		t.Fatal("SCCs reused across a body-set change")
	}
}
