// Package detect defines the shared detector infrastructure: the Finding
// type, the analysis Context handed to each detector, and the registry of
// built-in detectors (the paper's two headline detectors plus the
// extensions its §7 recommendations call for).
package detect

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"rustprobe/internal/callgraph"
	"rustprobe/internal/cfg"
	"rustprobe/internal/dropflow"
	"rustprobe/internal/hir"
	"rustprobe/internal/mir"
	"rustprobe/internal/pointsto"
	"rustprobe/internal/source"
)

// Kind classifies a finding.
type Kind string

// Finding kinds.
const (
	KindUseAfterFree   Kind = "use-after-free"
	KindDoubleLock     Kind = "double-lock"
	KindLockOrder      Kind = "conflicting-lock-order"
	KindDoubleFree     Kind = "double-free"
	KindInvalidFree    Kind = "invalid-free"
	KindUninitRead     Kind = "uninitialized-read"
	KindInteriorMut    Kind = "unsynchronized-interior-mutability"
	KindBorrowConflict Kind = "borrow-conflict"
	KindDataRace       Kind = "data-race"
	KindBlocking       Kind = "blocking"
)

// Severity ranks findings.
type Severity int

// Severity levels.
const (
	SeverityWarning Severity = iota
	SeverityError
)

func (s Severity) String() string {
	if s == SeverityError {
		return "error"
	}
	return "warning"
}

// Finding is one detector report.
type Finding struct {
	Kind     Kind
	Severity Severity
	Function string // qualified function name
	Span     source.Span
	Message  string
	Notes    []string
}

// Format renders the finding with a resolved position.
func (f Finding) Format(fset *source.FileSet) string {
	pos := fset.Position(f.Span.Start)
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s: [%s] %s (in %s)", pos, f.Severity, f.Kind, f.Message, f.Function)
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "\n    note: %s", n)
	}
	return b.String()
}

// Context carries everything a detector needs. Program, Bodies, Graph
// and Fset are immutable after NewContext, and the per-function caches
// are memos, so independent detectors may share one Context from
// concurrent goroutines.
//
// The per-function facts several detectors start from (the CFG, points-to,
// dropflow, the lock facts of package doublelock, the alias resolver, the
// uninitialized-allocation dataflow of package uninit) are computed once
// per Context through Shared and live as long as the Context. Every user
// must treat a shared value as read-only.
type Context struct {
	Program *hir.Program
	Bodies  map[string]*mir.Body
	Graph   *callgraph.Graph
	Fset    *source.FileSet

	shared memo[any] // Shared's values, keyed by kind and function
}

// memo computes each key's value at most once. Concurrent callers for
// the same key wait for the one computation instead of repeating it;
// callers for different keys never wait on each other. A computation
// that panics caches nothing, so a later caller computes again.
type memo[V any] struct {
	mu    sync.Mutex
	cells map[string]*memoCell[V]
}

type memoCell[V any] struct {
	mu   sync.Mutex
	done bool
	v    V
}

// get returns key's value, running compute if no earlier call finished.
func (m *memo[V]) get(key string, compute func() V) V {
	m.mu.Lock()
	if m.cells == nil {
		m.cells = map[string]*memoCell[V]{}
	}
	c := m.cells[key]
	if c == nil {
		c = &memoCell[V]{}
		m.cells[key] = c
	}
	m.mu.Unlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.done {
		c.v = compute()
		c.done = true
	}
	return c.v
}

// NewContext builds a Context, precomputing the call graph.
func NewContext(prog *hir.Program, bodies map[string]*mir.Body) *Context {
	return NewContextWithGraph(prog, bodies, callgraph.Build(bodies))
}

// NewContextWithGraph builds a Context around a caller-supplied call
// graph — the incremental session path, where the graph is patched
// in place per round instead of rebuilt from the full body set. The
// graph must describe exactly the given bodies.
func NewContextWithGraph(prog *hir.Program, bodies map[string]*mir.Body, g *callgraph.Graph) *Context {
	return &Context{
		Program: prog,
		Bodies:  bodies,
		Graph:   g,
		Fset:    prog.Fset,
	}
}

// sharedBuilt, when set, observes every Shared computation by kind; the
// package tests use it to count builds.
var sharedBuilt func(kind string)

// Shared returns (computing once per Context) the value of kind for
// function fn. Packages that derive per-function facts from a Context
// use it so that every detector asking for the same fact shares one
// computation; concurrent callers for the same key wait for it. The
// value is shared by all callers and must be treated as immutable. kind
// names the fact and must be unique to one value type.
func Shared[V any](c *Context, kind, fn string, compute func() V) V {
	return c.shared.get(kind+"\x00"+fn, func() any {
		if sharedBuilt != nil {
			sharedBuilt(kind)
		}
		return compute()
	}).(V)
}

// CFG returns (computing once) the control-flow graph of function fn.
// The graph is shared by every detector and must not be modified.
func (c *Context) CFG(fn string) *cfg.Graph {
	return Shared(c, "cfg", fn, func() *cfg.Graph { return cfg.New(c.Bodies[fn]) })
}

// PointsTo returns (computing once) the points-to result for a
// function; concurrent detectors asking for the same function share one
// fixpoint. Unknown function names yield an empty result rather than
// panicking on a nil body.
func (c *Context) PointsTo(fn string) *pointsto.Result {
	return Shared(c, "pointsto", fn, func() *pointsto.Result {
		body := c.Bodies[fn]
		if body == nil {
			return &pointsto.Result{PointsTo: map[mir.LocalID]map[mir.LocalID]bool{}}
		}
		return pointsto.Analyze(body)
	})
}

// DropFlowSummaries returns (computing once) the shared context-sensitive
// parameter-dereference summaries used by the precise detectors. The map
// and the summaries it holds are shared across detectors and must be
// treated as immutable.
func (c *Context) DropFlowSummaries() map[string]*dropflow.FnSummary {
	return Shared(c, "dropflow.summaries", "", func() map[string]*dropflow.FnSummary {
		return dropflow.ComputeSummaries(c.Bodies, c.Graph)
	})
}

// DropFlow returns (computing once) the path-sensitive drop-and-alias
// walk for a function. Like PointsTo, concurrent callers share one walk;
// the shared Result must be treated as immutable by all detectors.
func (c *Context) DropFlow(fn string) *dropflow.Result {
	return Shared(c, "dropflow", fn, func() *dropflow.Result {
		sums := c.DropFlowSummaries()
		return dropflow.Analyze(c.Bodies[fn], dropflow.Options{Lookup: func(name string) (*dropflow.FnSummary, bool) {
			s, ok := sums[name]
			return s, ok
		}})
	})
}

// Callee returns the analyzed function a call resolves to: its
// resolved definition when that has a body here, else its callee name
// when that does, else "".
func (c *Context) Callee(call mir.Call) string {
	if call.Def != nil {
		if _, ok := c.Bodies[call.Def.Qualified]; ok {
			return call.Def.Qualified
		}
	}
	if _, ok := c.Bodies[call.Callee]; ok {
		return call.Callee
	}
	return ""
}

// Detector is one analysis pass over a Context.
type Detector interface {
	Name() string
	Run(*Context) []Finding
}

// Carry is a detector's opaque incremental fact cache, threaded between
// rounds by the session. Carries hold per-function extraction results
// keyed by body identity; they are process-local and never serialized.
type Carry interface{}

// Incremental is a detector whose whole-program pass splits into
// per-function fact extraction (cacheable) and a cheap global pairing
// phase.
//
// Implementing Incremental is what makes a detector global. A global
// detector pairs facts across possibly unrelated functions (lock orders
// across function pairs, races across spawn sites, one type's methods),
// so a change anywhere can flip its findings: a session round always
// runs it over the whole program, through its carry. Every other
// detector is local: its findings are attributed to the analyzed root
// and depend only on that root, its transitive callees and the resolved
// program, so a session round re-runs it only over the dirty callgraph
// closure and replays cached findings for every other root.
//
// RunIncremental re-extracts facts only for functions in dirty
// (or whose cached body no longer matches), warm-starts any summary
// fixpoints from the carry, and re-runs pairing over the full fact set.
//
// The contract is byte-identity: RunIncremental(ctx, carry, dirty) must
// return exactly the findings Run(ctx) would, for any carry produced by
// a prior round whose unchanged functions kept their body objects. A
// nil carry (or nil dirty) degrades to a full extraction and seeds a
// fresh carry. The int is the number of functions whose cached facts
// were reused, for serving-layer stats.
//
// Callers must not thread a carry across a round that changed the set
// of function names or anything outside function bodies: cached facts
// embed call resolution, which such changes can flip without touching
// the caller's body. The session enforces this by rebuilding from
// scratch (dropping carries) on any interface or file-set change.
type Incremental interface {
	Detector
	RunIncremental(ctx *Context, carry Carry, dirty map[string]bool) ([]Finding, Carry, int)
}

// FactCounter is the optional sizing interface a Carry may implement;
// the session's exported-state manifest records the counts so operators
// can see how much process-local cache a restart will cost.
type FactCounter interface {
	FactCount() int
}

// ReuseFacts is the per-function fact half of RunIncremental, shared by
// the global detectors so the body-identity rule lives in one place.
// For each function of ctx.Graph it keeps prev[name] when name is not
// dirty and body(prev[name]) is the body object ctx.Bodies holds now;
// otherwise it calls extract and adds name to recompute. reused counts
// the kept entries. A nil prev extracts every function.
func ReuseFacts[F any](ctx *Context, prev map[string]F, dirty map[string]bool, body func(F) *mir.Body, extract func(name string) F) (facts map[string]F, recompute map[string]bool, reused int) {
	names := ctx.Graph.Names()
	facts = make(map[string]F, len(names))
	recompute = map[string]bool{}
	for _, name := range names {
		if old, ok := prev[name]; ok && !dirty[name] && body(old) == ctx.Bodies[name] {
			facts[name] = old
			reused++
			continue
		}
		facts[name] = extract(name)
		recompute[name] = true
	}
	return facts, recompute, reused
}

// CloseOverCallers expands a recompute set in place with the transitive
// callers of its members — the closure summary.ComputeFrom requires
// before a warm-started fixpoint may reuse an SCC: a clean function must
// have no recomputed transitive callee, or its cached summary could be
// stale. Fact extraction stays per-function; only the summary phase
// widens to this closure.
func CloseOverCallers(g *callgraph.Graph, recompute map[string]bool) {
	if len(recompute) == 0 {
		return
	}
	seeds := make([]string, 0, len(recompute))
	for n := range recompute {
		seeds = append(seeds, n)
	}
	for n := range g.TransitiveCallers(seeds...) {
		recompute[n] = true
	}
}

// SortFindings orders findings by position then kind for stable output.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].Span.Start != fs[j].Span.Start {
			return fs[i].Span.Start < fs[j].Span.Start
		}
		return fs[i].Kind < fs[j].Kind
	})
}
