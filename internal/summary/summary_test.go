package summary

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rustprobe/internal/callgraph"
	"rustprobe/internal/mir"
)

// graphOf builds a call graph directly from an adjacency list (edges in
// declaration order, like block order in a real body).
func graphOf(adj map[string][]string) *callgraph.Graph {
	g := &callgraph.Graph{
		Bodies:  map[string]*mir.Body{},
		Callees: map[string][]callgraph.Edge{},
		Callers: map[string][]callgraph.Edge{},
	}
	for fn := range adj {
		g.Bodies[fn] = &mir.Body{}
	}
	for fn, callees := range adj {
		for _, c := range callees {
			if _, ok := g.Bodies[c]; !ok {
				g.Bodies[c] = &mir.Body{}
			}
			e := callgraph.Edge{Caller: fn, Callee: c}
			g.Callees[fn] = append(g.Callees[fn], e)
			g.Callers[c] = append(g.Callers[c], e)
		}
	}
	return g
}

// setProblem is the canonical monotone problem: each function's summary
// is seeds[fn] unioned with every callee summary.
func setProblem(seeds map[string][]string) *Problem[map[string]bool] {
	return &Problem[map[string]bool]{
		Bottom: func(string) map[string]bool { return map[string]bool{} },
		Equal: func(a, b map[string]bool) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if !b[k] {
					return false
				}
			}
			return true
		},
		Transfer: func(fn string, get Lookup[map[string]bool]) map[string]bool {
			out := map[string]bool{}
			for _, s := range seeds[fn] {
				out[s] = true
			}
			return out
		},
	}
}

func keys(m map[string]bool) string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return strings.Join(ks, ",")
}

func TestComputeChain(t *testing.T) {
	g := graphOf(map[string][]string{"a": {"b"}, "b": {"c"}, "c": nil})
	p := setProblem(map[string][]string{"c": {"L"}})
	p.Transfer = unionTransfer(g, map[string][]string{"c": {"L"}})
	res := Compute(g, p)
	for _, fn := range []string{"a", "b", "c"} {
		if !res.Summaries[fn]["L"] {
			t.Errorf("%s missing L: %v", fn, res.Summaries[fn])
		}
	}
	if len(res.Truncated) != 0 || res.TruncatedSCCs != 0 {
		t.Errorf("acyclic chain truncated: %+v", res)
	}
}

// unionTransfer seeds each function and unions in all callee summaries —
// the lock-set shape both detectors use.
func unionTransfer(g *callgraph.Graph, seeds map[string][]string) func(string, Lookup[map[string]bool]) map[string]bool {
	return func(fn string, get Lookup[map[string]bool]) map[string]bool {
		out := map[string]bool{}
		for _, s := range seeds[fn] {
			out[s] = true
		}
		for _, e := range g.Callees[fn] {
			cs, ok := get(e.Callee)
			if !ok {
				continue
			}
			for k := range cs {
				out[k] = true
			}
		}
		return out
	}
}

// TestComputeFigureEightFixpoint: two cycles sharing a node (a<->b,
// b<->c) need three propagation waves for a seed in `a` to reach `c` —
// the shape the old bounded two-round pass missed.
func TestComputeFigureEightFixpoint(t *testing.T) {
	g := graphOf(map[string][]string{
		"a": {"b"},
		"b": {"a", "c"},
		"c": {"b"},
	})
	p := setProblem(nil)
	p.Transfer = unionTransfer(g, map[string][]string{"a": {"L"}})
	res := Compute(g, p)
	for _, fn := range []string{"a", "b", "c"} {
		if !res.Summaries[fn]["L"] {
			t.Errorf("%s missing L after fixpoint: %v", fn, res.Summaries[fn])
		}
	}
	if res.TruncatedSCCs != 0 {
		t.Errorf("well-behaved cycle truncated")
	}
}

// TestComputeTruncation: a transfer that grows forever hits the per-SCC
// cap and is reported, not looped.
func TestComputeTruncation(t *testing.T) {
	g := graphOf(map[string][]string{"x": {"y"}, "y": {"x"}, "z": nil})
	round := 0
	p := &Problem[map[string]bool]{
		MaxIter: 8,
		Bottom:  func(string) map[string]bool { return map[string]bool{} },
		Equal: func(a, b map[string]bool) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if !b[k] {
					return false
				}
			}
			return true
		},
		Transfer: func(fn string, get Lookup[map[string]bool]) map[string]bool {
			round++
			return map[string]bool{fmt.Sprintf("v%d", round): true}
		},
	}
	res := Compute(g, p)
	if res.TruncatedSCCs != 1 {
		t.Fatalf("TruncatedSCCs = %d, want 1", res.TruncatedSCCs)
	}
	if !res.Truncated["x"] || !res.Truncated["y"] {
		t.Errorf("cycle members not marked truncated: %v", res.Truncated)
	}
	if res.Truncated["z"] {
		t.Error("acyclic function marked truncated")
	}
}

func TestComputeDeterministic(t *testing.T) {
	adj := map[string][]string{
		"a": {"b"}, "b": {"a", "c"}, "c": {"b"}, "d": {"a", "c"},
	}
	seeds := map[string][]string{"a": {"L1"}, "c": {"L2"}}
	ref := ""
	for trial := 0; trial < 10; trial++ {
		g := graphOf(adj)
		p := setProblem(nil)
		p.Transfer = unionTransfer(g, seeds)
		res := Compute(g, p)
		var lines []string
		for fn, s := range res.Summaries {
			lines = append(lines, fn+"="+keys(s))
		}
		sort.Strings(lines)
		got := strings.Join(lines, ";")
		if trial == 0 {
			ref = got
			continue
		}
		if got != ref {
			t.Fatalf("trial %d differs:\n%s\nvs\n%s", trial, got, ref)
		}
	}
}

// TestTranslate: the receiver-only translation of a method call
// (params ["self"], argument paths [receiver]) the acquisition summary
// uses.
func TestTranslate(t *testing.T) {
	cases := []struct {
		calleeID, recvPath, want string
	}{
		{"self", "self.client", "self.client"},
		{"self.state", "self.inner", "self.inner.state"},
		{"self.state", "registry", "registry.state"},
		{"static GLOBAL", "", "static GLOBAL"},
		{"static GLOBAL", "anything", "static GLOBAL"},
		{"mu", "self.inner", ""},                                // callee-parameter lock: untranslatable
		{"self.state", "", ""},                                  // no receiver path
		{"(*self).state", "conn", "conn.state"},                 // deref-shaped callee id
		{"*self.state", "conn", "conn.state"},                   // prefix-deref form
		{"(*(*self).a).b", "conn", "conn.a.b"},                  // nested derefs
		{"self.state", "(*handle).inner", "handle.inner.state"}, // deref-shaped receiver
		{"(*self)", "conn", "conn"},
	}
	for _, c := range cases {
		if got := TranslateRoot(c.calleeID, []string{"self"}, []string{c.recvPath}); got != c.want {
			t.Errorf("TranslateRoot(%q, [self], [%q]) = %q, want %q", c.calleeID, c.recvPath, got, c.want)
		}
	}
}

func TestTranslateRoot(t *testing.T) {
	params := []string{"self", "queue", "n"}
	args := []string{"self.inner", "self.jobs", ""}
	cases := []struct {
		calleeID, want string
	}{
		{"self", "self.inner"},
		{"self.state", "self.inner.state"},
		{"queue", "self.jobs"},
		{"queue.head", "self.jobs.head"},
		{"queue[0]", "self.jobs[0]"},
		{"queuex", ""}, // prefix match must stop at a separator
		{"n", ""},      // argument has no caller-side path
		{"local", ""},  // callee-local root: untranslatable
		{"static G", "static G"},
		{"(*queue).head", "self.jobs.head"},
	}
	for _, c := range cases {
		if got := TranslateRoot(c.calleeID, params, args); got != c.want {
			t.Errorf("TranslateRoot(%q) = %q, want %q", c.calleeID, got, c.want)
		}
	}
}

func TestDepth(t *testing.T) {
	for p, want := range map[string]int{"a": 1, "a.b": 2, "a.b[_]": 3, "self.x.y[_].z": 5} {
		if got := Depth(p); got != want {
			t.Errorf("Depth(%q) = %d, want %d", p, got, want)
		}
	}
}

func TestNormalizePath(t *testing.T) {
	cases := map[string]string{
		"self.a":         "self.a",
		"(*self).a":      "self.a",
		"*self":          "self",
		"(*(*self).a).b": "self.a.b",
		"plain":          "plain",
		"":               "",
	}
	for in, want := range cases {
		if got := NormalizePath(in); got != want {
			t.Errorf("NormalizePath(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestComputeFromWarmStart: ComputeFrom must equal Compute while only
// re-running Transfer for the requested dirty closure.
func TestComputeFromWarmStart(t *testing.T) {
	adj := map[string][]string{
		"a": {"b"}, "b": {"c"}, "c": nil,
		"x": {"y"}, "y": nil,
	}
	g := graphOf(adj)
	seeds := map[string][]string{"c": {"L"}, "y": {"M"}}
	p := setProblem(seeds)
	transferred := map[string]int{}
	p.Transfer = func(fn string, get Lookup[map[string]bool]) map[string]bool {
		transferred[fn]++
		return unionTransfer(g, seeds)(fn, get)
	}
	prev := Compute(g, p)

	// "c" changed: its dirty closure is {a, b, c}; x and y are reusable.
	transferred = map[string]int{}
	seeds["c"] = []string{"L2"}
	res := ComputeFrom(g, p, prev, map[string]bool{"a": true, "b": true, "c": true})
	for _, fn := range []string{"a", "b", "c"} {
		if transferred[fn] != 1 {
			t.Errorf("%s transferred %d times, want 1", fn, transferred[fn])
		}
		if !res.Summaries[fn]["L2"] {
			t.Errorf("%s missing propagated L2: %v", fn, res.Summaries[fn])
		}
	}
	for _, fn := range []string{"x", "y"} {
		if transferred[fn] != 0 {
			t.Errorf("clean %s recomputed", fn)
		}
		if keys(res.Summaries[fn]) != keys(prev.Summaries[fn]) {
			t.Errorf("%s summary changed on reuse: %v vs %v", fn, res.Summaries[fn], prev.Summaries[fn])
		}
	}

	// The warm result must equal a cold recomputation.
	cold := Compute(g, p)
	for fn := range g.Bodies {
		if keys(res.Summaries[fn]) != keys(cold.Summaries[fn]) {
			t.Errorf("%s: warm %v != cold %v", fn, res.Summaries[fn], cold.Summaries[fn])
		}
	}
}

// TestComputeFromRecursiveSCCUnit: a recursive component reuses or
// recomputes as a unit, and nil prev degrades to Compute.
func TestComputeFromRecursiveSCCUnit(t *testing.T) {
	g := graphOf(map[string][]string{"a": {"b"}, "b": {"a"}, "z": nil})
	seeds := map[string][]string{"a": {"L"}, "z": {"Z"}}
	p := setProblem(seeds)
	p.Transfer = unionTransfer(g, seeds)
	prev := Compute(g, p)

	// Dirtying only "a" must still recompute "b": the SCC fixpoint is
	// indivisible.
	transferred := map[string]int{}
	inner := p.Transfer
	p.Transfer = func(fn string, get Lookup[map[string]bool]) map[string]bool {
		transferred[fn]++
		return inner(fn, get)
	}
	res := ComputeFrom(g, p, prev, map[string]bool{"a": true})
	if transferred["b"] == 0 {
		t.Error("SCC member b not recomputed with its dirty partner")
	}
	if transferred["z"] != 0 {
		t.Error("clean singleton z recomputed")
	}
	if !res.Summaries["b"]["L"] {
		t.Errorf("b lost the cycle seed: %v", res.Summaries["b"])
	}

	if nilPrev := ComputeFrom(g, p, nil, nil); !nilPrev.Summaries["b"]["L"] {
		t.Error("nil prev did not fall back to full Compute")
	}
}

// TestComputeFromCopyOnWrite: a warm start shares every reused entry
// with prev, recomputes exactly the requested functions widened to their
// components plus the functions prev lacks, drops the functions the
// graph lost, and leaves prev as it was.
func TestComputeFromCopyOnWrite(t *testing.T) {
	seeds := map[string][]string{"a": {"A"}, "c": {"C"}, "x": {"X"}, "y": {"Y"}, "gone": {"G"}}
	before := graphOf(map[string][]string{"a": {"b", "c"}, "b": {"a"}, "c": nil, "x": {"y"}, "y": nil, "gone": nil})
	p := setProblem(seeds)
	p.Transfer = unionTransfer(before, seeds)
	prev := Compute(before, p)
	identity := func(m map[string]bool) uintptr { return reflect.ValueOf(m).Pointer() }
	prevEntries := map[string]uintptr{}
	for fn, s := range prev.Summaries {
		prevEntries[fn] = identity(s)
	}

	// "gone" vanished and "new" appeared; b is the one function to
	// recompute, and it shares a component with a.
	after := graphOf(map[string][]string{"a": {"b", "c"}, "b": {"a"}, "c": nil, "x": {"y"}, "y": nil, "new": {"c"}})
	p.Transfer = unionTransfer(after, seeds)
	res := ComputeFrom(after, p, prev, map[string]bool{"b": true})

	if got, want := keys(res.Recomputed), "a,b,new"; got != want {
		t.Errorf("Recomputed = %s, want %s", got, want)
	}
	for _, fn := range []string{"c", "x", "y"} {
		if identity(res.Summaries[fn]) != prevEntries[fn] {
			t.Errorf("reused %s is a copy, not the previous entry", fn)
		}
	}
	if _, ok := res.Summaries["gone"]; ok {
		t.Error("the vanished function kept its summary")
	}
	if len(res.Summaries) != len(after.Bodies) {
		t.Errorf("%d summaries for %d functions", len(res.Summaries), len(after.Bodies))
	}
	cold := Compute(after, p)
	for fn := range after.Bodies {
		if keys(res.Summaries[fn]) != keys(cold.Summaries[fn]) {
			t.Errorf("%s: warm %v != cold %v", fn, res.Summaries[fn], cold.Summaries[fn])
		}
	}

	if len(prev.Summaries) != len(prevEntries) || prev.Recomputed != nil {
		t.Fatalf("prev changed: %d summaries, recomputed %v", len(prev.Summaries), prev.Recomputed)
	}
	for fn, id := range prevEntries {
		if identity(prev.Summaries[fn]) != id {
			t.Errorf("prev's entry for %s was replaced", fn)
		}
	}
}
