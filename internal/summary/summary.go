// Package summary is the shared bottom-up inter-procedural summary
// framework behind the lockset-annotated event summary the double-lock,
// lock-order, race and blocking detectors read
// (internal/detect/doublelock) and the dropflow and use-after-free
// parameter summaries. It walks the Tarjan condensation of the call
// graph in callee-before-caller order and, inside each strongly
// connected component, iterates a detector-supplied transfer function to
// fixpoint — so summaries propagate soundly through mutual recursion and
// arbitrarily long call chains, which a bounded number of post-order
// passes cannot guarantee. A per-SCC iteration cap keeps pathological
// (non-monotone or fuzzed) transfer functions from looping; components
// that hit the cap are reported via Truncated rather than silently
// producing partial results.
package summary

import (
	"maps"
	"strings"

	"rustprobe/internal/callgraph"
)

// DefaultMaxIter caps fixpoint rounds per SCC when Problem.MaxIter is
// unset. A monotone transfer over a finite lock-id universe converges in
// at most |SCC| rounds; the default leaves generous headroom while
// bounding fuzz-shaped cycles.
const DefaultMaxIter = 64

// MaxPathDepth caps the segments of a path translated into a caller's
// namespace, so summaries stay finite through recursive call chains
// that keep extending a path ("self.next.next...").
const MaxPathDepth = 8

// Lookup reads the current summary of a callee. ok is false for
// functions outside the analyzed body set.
type Lookup[S any] func(callee string) (S, bool)

// Problem describes one bottom-up summary computation.
type Problem[S any] struct {
	// Bottom returns the initial (least) summary for fn.
	Bottom func(fn string) S
	// Transfer recomputes fn's summary from its body, reading callee
	// summaries through get. It must be monotone in the callee summaries
	// for the fixpoint to converge; the iteration cap backstops it.
	Transfer func(fn string, get Lookup[S]) S
	// Equal reports summary equality (the convergence check).
	Equal func(a, b S) bool
	// MaxIter caps iterations per SCC; <= 0 selects DefaultMaxIter.
	MaxIter int
}

// Result holds the computed summaries. A Result is never modified after
// ComputeFrom returns, so a later warm start may share its entries.
type Result[S any] struct {
	Summaries map[string]S
	// Truncated marks functions whose SCC hit the iteration cap before
	// converging; their summaries are a sound-so-far under-approximation.
	Truncated map[string]bool
	// TruncatedSCCs counts the capped components this computation ran
	// (0 on healthy programs).
	TruncatedSCCs int
	// Recomputed names, on a warm start, the functions whose summaries
	// this computation ran Transfer for: the components that hold a
	// function to recompute or one the previous result lacks. Every
	// other entry is the previous result's value itself. It is nil on a
	// cold start, which computes every function.
	Recomputed map[string]bool
}

// Compute runs the framework over every function in the call graph.
// Iteration order is deterministic: SCCs in condensation order, members
// in sorted name order.
func Compute[S any](g *callgraph.Graph, p *Problem[S]) *Result[S] {
	return ComputeFrom(g, p, nil, nil)
}

// ComputeFrom is Compute with a warm start for incremental re-analysis:
// it starts from copies of prev's maps, so functions outside recompute
// keep prev's summaries (and truncation marks) without re-running
// Transfer, and recomputed functions read them through the usual lookup.
// Functions prev holds that g lacks are dropped. A nil prev reuses
// nothing. prev is not modified.
//
// Soundness is the caller's contract: a function may be reused only if
// its body and the summaries of all its transitive callees are unchanged
// since prev was computed. The dirty closure "changed functions plus
// their transitive callers" satisfies this — a clean function can have no
// dirty callee, or it would itself be a transitive caller of the change.
// Functions missing from prev are recomputed regardless.
func ComputeFrom[S any](g *callgraph.Graph, p *Problem[S], prev *Result[S], recompute map[string]bool) *Result[S] {
	maxIter := p.MaxIter
	if maxIter <= 0 {
		maxIter = DefaultMaxIter
	}
	res := &Result[S]{Summaries: map[string]S{}, Truncated: map[string]bool{}}
	if prev != nil {
		res.Summaries = maps.Clone(prev.Summaries)
		if len(prev.Truncated) > 0 {
			res.Truncated = maps.Clone(prev.Truncated)
		}
		res.Recomputed = map[string]bool{}
	}
	get := func(callee string) (S, bool) {
		s, ok := res.Summaries[callee]
		return s, ok
	}
	for _, scc := range g.SCCs() {
		// An SCC is reusable only as a unit: a recursive component's
		// fixpoint entangles all members.
		reuse := prev != nil
		for i := 0; reuse && i < len(scc.Members); i++ {
			_, ok := prev.Summaries[scc.Members[i]]
			reuse = ok && !recompute[scc.Members[i]]
		}
		if reuse {
			continue
		}
		for _, fn := range scc.Members {
			res.Summaries[fn] = p.Bottom(fn)
			if prev != nil {
				delete(res.Truncated, fn)
				res.Recomputed[fn] = true
			}
		}
		if !scc.Recursive {
			fn := scc.Members[0]
			res.Summaries[fn] = p.Transfer(fn, get)
			continue
		}
		converged := false
		for iter := 0; iter < maxIter && !converged; iter++ {
			converged = true
			for _, fn := range scc.Members {
				next := p.Transfer(fn, get)
				if !p.Equal(res.Summaries[fn], next) {
					converged = false
				}
				res.Summaries[fn] = next
			}
		}
		if !converged {
			res.TruncatedSCCs++
			for _, fn := range scc.Members {
				res.Truncated[fn] = true
			}
		}
	}
	// Every function of g now has an entry, so any surplus entry is one
	// prev held for a function g lacks.
	if len(res.Summaries) > len(g.Bodies) {
		for fn := range res.Summaries {
			if _, ok := g.Bodies[fn]; !ok {
				delete(res.Summaries, fn)
				delete(res.Truncated, fn)
			}
		}
	}
	return res
}

// TranslateRoot maps a callee-namespace path (a lock or place such as
// "self.client") into the caller's namespace: a path rooted at the i-th
// parameter name is rewritten onto the caller's i-th argument path, with
// derefs normalized on both sides (NormalizePath). Static-rooted ids pass
// through unchanged (they name the same item in every namespace). Paths
// rooted at a callee local that is not a parameter — or at a parameter
// whose argument has no caller-side path — do not survive translation
// and return "".
func TranslateRoot(calleeID string, params, argPaths []string) string {
	if strings.HasPrefix(calleeID, "static ") {
		return calleeID
	}
	calleeID = NormalizePath(calleeID)
	for i, p := range params {
		if p == "" || i >= len(argPaths) || argPaths[i] == "" {
			continue
		}
		if calleeID == p {
			return NormalizePath(argPaths[i])
		}
		if strings.HasPrefix(calleeID, p) && (calleeID[len(p)] == '.' || calleeID[len(p)] == '[') {
			return NormalizePath(argPaths[i]) + calleeID[len(p):]
		}
	}
	return ""
}

// Depth counts the segments of a path: its root plus one per field or
// index projection.
func Depth(p string) int {
	return 1 + strings.Count(p, ".") + strings.Count(p, "[")
}

// NormalizePath canonicalizes deref-shaped receiver paths: "(*self).f",
// "*self.f" and "self.f" all name the same lock, so derefs are stripped
// before prefix matching (a deref never changes which lock a path
// denotes, only how it is reached).
func NormalizePath(p string) string {
	for {
		switch {
		case strings.HasPrefix(p, "(*") && strings.Contains(p, ")"):
			i := strings.Index(p, ")")
			p = p[2:i] + p[i+1:]
		case strings.HasPrefix(p, "*"):
			p = p[1:]
		default:
			return p
		}
	}
}
