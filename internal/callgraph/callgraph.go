// Package callgraph builds the static call graph over lowered MIR bodies,
// used by the inter-procedural parts of the double-lock and use-after-free
// detectors.
package callgraph

import (
	"maps"
	"reflect"
	"slices"
	"sort"
	"sync"

	"rustprobe/internal/mir"
)

// Edge is one call site.
type Edge struct {
	Caller string
	Callee string
	Site   mir.Call
	Block  mir.BlockID
}

// Graph is the program call graph. Build and Patch always return a fresh
// graph, and nothing modifies a graph after they return: its maps, edge
// slices, and the names and SCCs it computes once may be shared by
// concurrent readers, and by the graphs Patch derives from it.
type Graph struct {
	Bodies map[string]*mir.Body
	// Callees maps a function to its outgoing edges in block order.
	Callees map[string][]Edge
	// Callers maps a function to its incoming edges.
	Callers map[string][]Edge
	// Unresolved maps a function to the callee names its calls failed to
	// resolve (no matching body). Patch uses it to decide whether an
	// unchanged caller must be rescanned: its cached edges go stale only
	// if one of these names has since gained a body.
	Unresolved map[string][]string

	namesOnce sync.Once
	names     []string
	sccsOnce  sync.Once
	sccs      []SCC
}

// Build constructs the call graph. Only calls resolved to a known body (by
// Def or by name match) produce edges.
func Build(bodies map[string]*mir.Body) *Graph {
	g := &Graph{
		Bodies:     bodies,
		Callees:    map[string][]Edge{},
		Callers:    map[string][]Edge{},
		Unresolved: map[string][]string{},
	}
	for name, body := range bodies {
		g.scan(name, body)
	}
	g.invertCallers()
	return g
}

// Resolve returns the function a call resolves to in bodies, or "": its
// resolved definition when it has one, else its callee name, and only
// when that function has a body. It is the one rule behind every graph
// edge and every detector's callee lookup (detect.Context.Callee).
func Resolve(c mir.Call, bodies map[string]*mir.Body) string {
	name := c.Callee
	if c.Def != nil {
		name = c.Def.Qualified
	}
	if _, ok := bodies[name]; ok {
		return name
	}
	return ""
}

// scan appends name's outgoing edges and unresolved callee names.
func (g *Graph) scan(name string, body *mir.Body) {
	for _, blk := range body.Blocks {
		c, ok := blk.Term.(mir.Call)
		if !ok {
			continue
		}
		callee := Resolve(c, g.Bodies)
		if callee == "" {
			if c.Def != nil {
				g.Unresolved[name] = append(g.Unresolved[name], c.Def.Qualified)
			} else if c.Callee != "" {
				g.Unresolved[name] = append(g.Unresolved[name], c.Callee)
			}
			continue
		}
		g.Callees[name] = append(g.Callees[name], Edge{Caller: name, Callee: callee, Site: c, Block: blk.ID})
	}
}

// invertCallers derives the incoming-edge index from Callees.
func (g *Graph) invertCallers() {
	g.Callers = map[string][]Edge{}
	for _, name := range g.Names() {
		for _, e := range g.Callees[name] {
			g.Callers[e.Callee] = append(g.Callers[e.Callee], e)
		}
	}
}

// Patch returns the graph of bodies, given prev, the graph of an
// earlier body set, and changed, which names every body added or
// replaced since prev (bodies that vanished need not be named). It
// copies prev's maps and rescans only:
//
//   - the functions in changed (new call terminators);
//   - the functions whose previously unresolved callee names now have a
//     body (a resolution that flips without the caller changing);
//   - the callers of bodies that vanished (their edges must go).
//
// Only the Callers lists of those functions' old and new callees are
// rewritten. When the set of body names is unchanged, the new graph
// takes prev's Names(), and also prev's SCCs() if every rescanned
// function calls the same callees in the same order. The result equals
// Build(bodies) — the session's debug cross-check compares them with
// Diff on every patched round — and prev is not modified.
func Patch(prev *Graph, bodies map[string]*mir.Body, changed map[string]bool) *Graph {
	if prev == nil {
		return Build(bodies)
	}
	g := &Graph{
		Bodies:     bodies,
		Callees:    maps.Clone(prev.Callees),
		Callers:    maps.Clone(prev.Callers),
		Unresolved: maps.Clone(prev.Unresolved),
	}

	rescan := map[string]bool{}
	added := map[string]bool{}
	for name := range changed {
		if _, ok := bodies[name]; !ok {
			continue
		}
		rescan[name] = true
		if _, had := prev.Bodies[name]; !had {
			added[name] = true
		}
	}
	var removed []string
	if len(prev.Bodies)+len(added) != len(bodies) {
		for name := range prev.Bodies {
			if _, ok := bodies[name]; !ok {
				removed = append(removed, name)
				for _, e := range prev.Callers[name] {
					if _, ok := bodies[e.Caller]; ok {
						rescan[e.Caller] = true
					}
				}
			}
		}
	}
	if len(added) > 0 {
		for name, us := range prev.Unresolved {
			if slices.ContainsFunc(us, func(u string) bool { return added[u] }) {
				if _, ok := bodies[name]; ok {
					rescan[name] = true
				}
			}
		}
	}

	// Rescan, collecting every callee whose Callers list may change: the
	// old and new callees of rescanned and vanished functions.
	touched := map[string]bool{}
	sameEdges := true
	for name := range rescan {
		old := prev.Callees[name]
		for _, e := range old {
			touched[e.Callee] = true
		}
		delete(g.Callees, name)
		delete(g.Unresolved, name)
		g.scan(name, bodies[name])
		now := g.Callees[name]
		for _, e := range now {
			touched[e.Callee] = true
		}
		sameEdges = sameEdges && slices.EqualFunc(old, now, func(a, b Edge) bool { return a.Callee == b.Callee })
	}
	for _, name := range removed {
		for _, e := range prev.Callees[name] {
			touched[e.Callee] = true
		}
		delete(g.Callees, name)
		delete(g.Unresolved, name)
		delete(g.Callers, name)
	}

	// Rewrite the touched Callers lists: keep the edges of callers that
	// were neither rescanned nor removed, add the rescanned callers' new
	// edges, and order by caller name as Build does (a caller's own edges
	// stay in block order).
	gone := func(caller string) bool {
		_, ok := bodies[caller]
		return rescan[caller] || !ok
	}
	for callee := range touched {
		if _, ok := bodies[callee]; !ok {
			delete(g.Callers, callee)
			continue
		}
		var in []Edge
		for _, e := range prev.Callers[callee] {
			if !gone(e.Caller) {
				in = append(in, e)
			}
		}
		for name := range rescan {
			for _, e := range g.Callees[name] {
				if e.Callee == callee {
					in = append(in, e)
				}
			}
		}
		sort.SliceStable(in, func(i, j int) bool { return in[i].Caller < in[j].Caller })
		if len(in) > 0 {
			g.Callers[callee] = in
		} else {
			delete(g.Callers, callee)
		}
	}

	if len(added) == 0 && len(removed) == 0 {
		g.namesOnce.Do(func() { g.names = prev.Names() })
		if sameEdges {
			g.sccsOnce.Do(func() { g.sccs = prev.SCCs() })
		}
	}
	return g
}

// Diff describes the first way g differs from want — Callees, Callers,
// Unresolved, Names() or SCCs() — or returns "" when they agree. The
// session's debug cross-check compares every patched graph with a Build
// of the same bodies by it.
func Diff(g, want *Graph) string {
	switch {
	case !reflect.DeepEqual(g.Callees, want.Callees):
		return "Callees differ"
	case !reflect.DeepEqual(g.Callers, want.Callers):
		return "Callers differ"
	case !reflect.DeepEqual(g.Unresolved, want.Unresolved):
		return "Unresolved differs"
	case !slices.Equal(g.Names(), want.Names()):
		return "Names differ"
	case !reflect.DeepEqual(g.SCCs(), want.SCCs()):
		return "SCCs differ"
	}
	return ""
}

// Names returns all function names in sorted order. It is computed once
// per graph and shared by every caller, which must not modify it.
func (g *Graph) Names() []string {
	g.namesOnce.Do(func() {
		g.names = make([]string, 0, len(g.Bodies))
		for n := range g.Bodies {
			g.names = append(g.names, n)
		}
		sort.Strings(g.names)
	})
	return g.names
}

// TransitiveCallers returns every function from which any of the start
// functions is reachable, excluding the starts themselves unless they
// participate in a cycle reaching a start. This is the "dirty closure"
// primitive of incremental analysis: when a function's body changes,
// exactly its transitive callers can observe different summaries.
func (g *Graph) TransitiveCallers(starts ...string) map[string]bool {
	seen := map[string]bool{}
	var work []string
	for _, s := range starts {
		for _, e := range g.Callers[s] {
			if !seen[e.Caller] {
				seen[e.Caller] = true
				work = append(work, e.Caller)
			}
		}
	}
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		for _, e := range g.Callers[cur] {
			if !seen[e.Caller] {
				seen[e.Caller] = true
				work = append(work, e.Caller)
			}
		}
	}
	return seen
}

// SCC is one strongly connected component of the call graph. Members are
// sorted; Recursive is true for multi-function components and for
// single functions that call themselves.
type SCC struct {
	Members   []string
	Recursive bool
}

// SCCs returns the Tarjan condensation of the call graph in
// callee-before-caller order: every component appears before any
// component that calls into it, so iterating the slice front-to-back
// visits callees first — the order bottom-up summary propagation needs.
// The result is deterministic: roots are visited in sorted name order and
// edges in block order, and each component's Members are sorted. It is
// computed once per graph and shared by every caller, which must not
// modify it.
func (g *Graph) SCCs() []SCC {
	g.sccsOnce.Do(func() { g.sccs = g.condense() })
	return g.sccs
}

// condense runs Tarjan's algorithm for SCCs.
func (g *Graph) condense() []SCC {
	type nodeState struct {
		index, lowlink int
		onStack        bool
		visited        bool
	}
	states := map[string]*nodeState{}
	var stack []string
	var sccs []SCC
	next := 0

	// Iterative Tarjan: the explicit frame stack keeps pathological
	// (fuzzed) call chains from overflowing the goroutine stack.
	type frame struct {
		node string
		edge int // next outgoing edge to examine
	}
	var strongconnect func(root string)
	strongconnect = func(root string) {
		frames := []frame{{node: root}}
		st := &nodeState{index: next, lowlink: next, onStack: true, visited: true}
		states[root] = st
		next++
		stack = append(stack, root)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			ns := states[f.node]
			if f.edge < len(g.Callees[f.node]) {
				callee := g.Callees[f.node][f.edge].Callee
				f.edge++
				cs := states[callee]
				if cs == nil || !cs.visited {
					cs = &nodeState{index: next, lowlink: next, onStack: true, visited: true}
					states[callee] = cs
					next++
					stack = append(stack, callee)
					frames = append(frames, frame{node: callee})
				} else if cs.onStack {
					if cs.index < ns.lowlink {
						ns.lowlink = cs.index
					}
				}
				continue
			}
			// All edges done: pop the frame, fold lowlink into the parent,
			// and emit the component if this node is its root.
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := states[frames[len(frames)-1].node]
				if ns.lowlink < parent.lowlink {
					parent.lowlink = ns.lowlink
				}
			}
			if ns.lowlink != ns.index {
				continue
			}
			var members []string
			for {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				states[top].onStack = false
				members = append(members, top)
				if top == f.node {
					break
				}
			}
			sort.Strings(members)
			sccs = append(sccs, SCC{Members: members, Recursive: isRecursive(g, members)})
		}
	}
	for _, n := range g.Names() {
		if st := states[n]; st == nil || !st.visited {
			strongconnect(n)
		}
	}
	return sccs
}

// isRecursive reports whether a component needs fixpoint iteration: more
// than one member, or a single member with a self edge.
func isRecursive(g *Graph, members []string) bool {
	if len(members) > 1 {
		return true
	}
	for _, e := range g.Callees[members[0]] {
		if e.Callee == members[0] {
			return true
		}
	}
	return false
}
