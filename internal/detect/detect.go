// Package detect defines the shared detector infrastructure: the Finding
// type, the analysis Context handed to each detector, and the registry of
// built-in detectors (the paper's two headline detectors plus the
// extensions its §7 recommendations call for).
package detect

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"rustprobe/internal/callgraph"
	"rustprobe/internal/cfg"
	"rustprobe/internal/dropflow"
	"rustprobe/internal/hir"
	"rustprobe/internal/mir"
	"rustprobe/internal/pointsto"
	"rustprobe/internal/source"
	"rustprobe/internal/summary"
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
// and Fset are immutable after NewContext, and the fact caches are
// memos, so independent detectors may share one Context from concurrent
// goroutines.
//
// Facts live in two scopes, and every user must treat a fact as
// read-only. The per-function scope (Shared) holds the facts that read
// only their own function's body, the resolved program and Callee: the
// CFG, points-to, the lock facts of package doublelock, the alias
// resolver, the uninitialized-allocation dataflow of package uninit and
// the global detectors' per-function extractions. A restricted View
// shares it with the Context it is cut from, and a session round's
// Context inherits the unchanged functions' entries from the previous
// round's (Inherit). The Context scope holds the whole-program values —
// the bottom-up summaries (Summary) and dropflow's parameter summaries —
// the per-function values that read another function's value (DropFlow)
// and the per-function values derived from summaries (DerivedAll); it
// belongs to one Context. A round's Context inherits the previous
// round's summaries as warm starts and its derived values, each kept
// only while the summaries it read were not recomputed.
type Context struct {
	Program *hir.Program
	Bodies  map[string]*mir.Body
	Graph   *callgraph.Graph
	Fset    *source.FileSet

	perFn  *fnMemo            // per-function scope; a View shares it
	perCtx memo[factKey, any] // Context scope
	sums   memo[string, any]  // Context scope: Summary's results by kind

	// warm holds the previous round's summaries by kind (Inherit); each
	// is dropped once Summary has warm-started from it. recompute is what
	// a warm start recomputes: the functions not inherited and their
	// transitive callers.
	warmMu    sync.Mutex
	warm      map[string]any
	recompute map[string]bool

	derived derivedMemo // Context scope: DerivedAll's values
}

// factKey names one memoized fact: its kind and the function it
// describes ("" for a whole-program value).
type factKey struct{ kind, fn string }

// memo computes each key's value at most once. Concurrent callers for
// the same key wait for the one computation instead of repeating it;
// callers for different keys never wait on each other. A computation
// that panics caches nothing, so a later caller computes again. A cell
// is never written once done, so memos may share done cells.
type memo[K comparable, V any] struct {
	mu    sync.Mutex
	cells map[K]*memoCell[V]
}

type memoCell[V any] struct {
	mu   sync.Mutex
	done atomic.Bool // set after v
	v    V
}

// get returns key's value, running compute if no earlier call finished.
func (m *memo[K, V]) get(key K, compute func() V) V {
	m.mu.Lock()
	if m.cells == nil {
		m.cells = map[K]*memoCell[V]{}
	}
	c := m.cells[key]
	if c == nil {
		c = &memoCell[V]{}
		m.cells[key] = c
	}
	m.mu.Unlock()
	return c.get(compute)
}

// get returns the cell's value, running compute if no earlier call
// finished.
func (c *memoCell[V]) get(compute func() V) V {
	if c.done.Load() {
		return c.v
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.done.Load() {
		c.v = compute()
		c.done.Store(true)
	}
	return c.v
}

// fnMemo is the per-function scope: each function's facts as a row of
// cells, one per kind, with memo's semantics. A row is allocated once
// with room for rowKinds kinds and grows in place: a cell is only ever
// appended past a row's length, never overwritten. An inherited row has
// its capacity clipped to its length, so the first kind it gains
// stores a copy; a Context that inherits a row thus shares its cells
// with the Context it came from and neither can change what the other
// sees. cells counts the cells of all rows, and panicked names the
// functions a computation panicked for.
type fnMemo struct {
	mu       sync.Mutex
	rows     map[string][]kindCell
	cells    int
	panicked map[string]bool
}

type kindCell struct {
	kind string
	cell *memoCell[any]
}

// rowKinds is the number of kinds the detectors memoize per function
// through Shared: cfg, pointsto, alias, doublelock.facts,
// doublelock.acquisitions, uninit.facts, race.info, blocking.info and
// interiormut.info. A row needing more grows by one copy.
const rowKinds = 9

// get returns kind's value for fn, running compute if no earlier call
// finished.
func (m *fnMemo) get(kind, fn string, compute func() any) any {
	m.mu.Lock()
	row := m.rows[fn]
	var c *memoCell[any]
	for _, kc := range row {
		if kc.kind == kind {
			c = kc.cell
			break
		}
	}
	if c == nil {
		c = &memoCell[any]{}
		if len(row) == cap(row) {
			row = append(make([]kindCell, 0, max(rowKinds, len(row)+1)), row...)
		}
		m.rows[fn] = append(row, kindCell{kind, c})
		m.cells++
	}
	m.mu.Unlock()
	defer func() {
		if !c.done.Load() {
			m.mu.Lock()
			if m.panicked == nil {
				m.panicked = map[string]bool{}
			}
			m.panicked[fn] = true
			m.mu.Unlock()
		}
	}()
	return c.get(compute)
}

// NewContext builds a Context, precomputing the call graph.
func NewContext(prog *hir.Program, bodies map[string]*mir.Body) *Context {
	return NewContextWithGraph(prog, bodies, callgraph.Build(bodies))
}

// inherit returns the rows a next round takes from m: its rows less
// those of the changed functions and the cells whose computation
// panicked, each clipped to its length, and the number of cells they
// hold.
func (m *fnMemo) inherit(changed map[string]bool) (map[string][]kindCell, int) {
	notDone := func(kc kindCell) bool { return !kc.cell.done.Load() }
	m.mu.Lock()
	defer m.mu.Unlock()
	rows, cells := make(map[string][]kindCell, len(m.rows)), m.cells
	for fn, row := range m.rows {
		if changed[fn] {
			cells -= len(row)
			continue
		}
		rows[fn] = slices.Clip(row)
	}
	for fn := range m.panicked {
		// A computation that panicked left nothing to take.
		if row, ok := rows[fn]; ok && slices.ContainsFunc(row, notDone) {
			kept := slices.Clip(slices.DeleteFunc(slices.Clone(row), notDone))
			cells -= len(row) - len(kept)
			rows[fn] = kept
		}
	}
	return rows, cells
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
		perFn:   &fnMemo{rows: map[string][]kindCell{}},
	}
}

// View returns a Context over bodies, a subset of c.Bodies closed under
// call-graph callees, that shares c's per-function scope and has a
// Context scope of its own. Callee resolves a call only along a graph
// edge, and every edge of a member leads to a member, so a per-function
// fact reads the same in the view as in c and is built once for both.
func (c *Context) View(bodies map[string]*mir.Body) *Context {
	v := NewContext(c.Program, bodies)
	v.perFn = c.perFn
	return v
}

// Inherit fills c, a Context no detector has used yet, from prev, the
// Context of the previous round over the same program interface: c
// takes prev's per-function facts of every function that is not in
// dirty and whose body is the object prev held, prev's summaries as the
// warm starts of Summary, and prev's derived values as DerivedAll's
// candidates. No other Context-scope value — DropFlow among them — is
// taken, and c keeps no pointer to prev. It returns the number of facts
// taken.
//
// Besides one body comparison per function and copies of prev's rows
// map and derived-value slices, the work is proportional to the changed
// functions: the dirty ones, those whose body object differs, and those
// only one round has. c takes every row but theirs, and a warm start
// recomputes them and their transitive callers.
//
// The caller guarantees that nothing outside function bodies changed
// between the rounds: a fact embeds call resolution, which a change to
// the set of function names or to anything outside bodies can flip
// without touching the caller's body.
func (c *Context) Inherit(prev *Context, dirty map[string]bool) int {
	changed := maps.Clone(dirty)
	if changed == nil {
		changed = map[string]bool{}
	}
	shared := 0 // functions both rounds have
	for fn, b := range c.Bodies {
		if pb, ok := prev.Bodies[fn]; ok {
			shared++
			if pb != b {
				changed[fn] = true
			}
		} else {
			changed[fn] = true
		}
	}
	if shared < len(prev.Bodies) {
		for fn := range prev.Bodies {
			if _, ok := c.Bodies[fn]; !ok {
				changed[fn] = true
			}
		}
	}

	rows, taken := prev.perFn.inherit(changed)
	c.perFn.mu.Lock()
	c.perFn.rows, c.perFn.cells = rows, taken
	c.perFn.mu.Unlock()

	warm := map[string]any{}
	prev.sums.mu.Lock()
	for kind, cell := range prev.sums.cells {
		if cell.done.Load() {
			warm[kind] = cell.v
		}
	}
	prev.sums.mu.Unlock()
	var fresh []string
	for fn := range changed {
		if _, ok := c.Bodies[fn]; ok {
			fresh = append(fresh, fn)
		}
	}
	recompute := c.Graph.TransitiveCallers(fresh...)
	for _, fn := range fresh {
		recompute[fn] = true
	}
	c.warmMu.Lock()
	c.warm, c.recompute = warm, recompute
	c.warmMu.Unlock()

	c.derived.inherit(&prev.derived, c.Graph.Names(), changed)
	return taken
}

// sharedBuilt, when set, observes every memoized computation by kind and
// function; the package tests use it to count builds.
var sharedBuilt func(kind, fn string)

func observe(kind, fn string) {
	if sharedBuilt != nil {
		sharedBuilt(kind, fn)
	}
}

// Shared returns (computing once per Context, and at most once across a
// Context, its views and the rounds that inherit it) the value of kind
// for function fn. compute may read only fn's body, the resolved program
// and Callee. Packages that derive per-function facts from a Context use
// it so that every detector asking for the same fact shares one
// computation; concurrent callers for the same key wait for it. The
// value is shared by all callers and must be treated as immutable. kind
// names the fact and must be unique to one value type.
func Shared[V any](c *Context, kind, fn string, compute func() V) V {
	return c.perFn.get(kind, fn, func() any {
		observe(kind, fn)
		return compute()
	}).(V)
}

// Summary returns (computing once per Context) the bottom-up summary of
// kind over c.Graph. On a Context that inherited the previous round's
// summary of kind, the fixpoint warm-starts from it and recomputes only
// the functions not inherited and their transitive callers, the closure
// summary.ComputeFrom requires. kind names one problem and must be
// unique to one summary type.
func Summary[S any](c *Context, kind string, p *summary.Problem[S]) *summary.Result[S] {
	return c.sums.get(kind, func() any {
		observe(kind, "")
		c.warmMu.Lock()
		warm, _ := c.warm[kind].(*summary.Result[S])
		c.warmMu.Unlock()
		res := summary.ComputeFrom(c.Graph, p, warm, c.recompute)
		c.warmMu.Lock()
		delete(c.warm, kind)
		c.warmMu.Unlock()
		return res
	}).(*summary.Result[S])
}

// derivedMemo is the Context scope's DerivedAll values: by kind, a
// cell per function of names, the graph's Names(); and for each
// function whose summary a value read, the values that read it. Once a
// next round takes readers, neither round writes it: each writes a copy.
type derivedMemo struct {
	mu            sync.Mutex
	names         []string
	kinds         []derivedKind
	readers       map[string][]derivedReader
	readersShared bool
}

// derivedKind is one kind's cells, aligned with derivedMemo.names.
// checked is set once the kind's inherited values were checked against
// this Context's summaries.
type derivedKind struct {
	kind    string
	cells   []*memoCell[any]
	checked bool
}

// derivedReader names one DerivedAll value.
type derivedReader struct{ kind, fn string }

// inherit fills m, which no call has used yet, with prev's values of
// the functions of names that are not in changed, and prev's readers.
// Only the kinds prev checked are taken: the values of a kind prev only
// inherited were never checked against prev's summaries.
func (m *derivedMemo) inherit(prev *derivedMemo, names []string, changed map[string]bool) {
	prev.mu.Lock()
	defer prev.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.names = names
	for _, pk := range prev.kinds {
		if !pk.checked {
			continue
		}
		// Both name lists are sorted: walk them together.
		cells := make([]*memoCell[any], len(names))
		j := 0
		for i, fn := range names {
			for j < len(prev.names) && prev.names[j] < fn {
				j++
			}
			// A computation that panicked left nothing to take.
			if j < len(prev.names) && prev.names[j] == fn && pk.cells[j].done.Load() {
				cells[i] = pk.cells[j]
			}
		}
		for fn := range changed {
			if i, ok := slices.BinarySearch(names, fn); ok {
				cells[i] = nil
			}
		}
		m.kinds = append(m.kinds, derivedKind{kind: pk.kind, cells: cells})
	}
	m.readers = prev.readers
	m.readersShared = m.readers != nil
	prev.readersShared = m.readersShared
}

// cells returns kind's cells, one per function of names. On kind's
// first call it drops every inherited value that read the summary of a
// function in recomputed, or every one when recomputed is nil (a cold
// summary), and gives each function without a value a fresh cell; the
// slice is never written after.
func (m *derivedMemo) cells(kind string, names []string, recomputed map[string]bool) []*memoCell[any] {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := slices.IndexFunc(m.kinds, func(k derivedKind) bool { return k.kind == kind })
	if i < 0 {
		i = len(m.kinds)
		m.kinds = append(m.kinds, derivedKind{kind: kind})
	}
	k := &m.kinds[i]
	if k.checked {
		return k.cells
	}
	k.checked = true
	m.names = names
	if k.cells == nil || recomputed == nil {
		k.cells = make([]*memoCell[any], len(names))
	} else {
		drop := func(fn string) {
			if i, ok := slices.BinarySearch(names, fn); ok {
				k.cells[i] = nil
			}
		}
		for fn := range recomputed {
			drop(fn)
			for _, r := range m.readers[fn] {
				if r.kind == kind {
					drop(r.fn)
				}
			}
		}
	}
	missing := 0
	for _, c := range k.cells {
		if c == nil {
			missing++
		}
	}
	block := make([]memoCell[any], missing) // one allocation for every fresh cell
	for i, c := range k.cells {
		if c == nil {
			k.cells[i], block = &block[0], block[1:]
		}
	}
	return k.cells
}

// read records that kind's value for fn read the summaries of deps.
func (m *derivedMemo) read(kind, fn string, deps []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := derivedReader{kind, fn}
	for _, d := range deps {
		rs := m.readers[d]
		if slices.Contains(rs, r) {
			continue
		}
		if m.readers == nil || m.readersShared {
			m.readers, m.readersShared = maps.Clone(m.readers), false
			if m.readers == nil {
				m.readers = map[string][]derivedReader{}
			}
		}
		m.readers[d] = append(rs[:len(rs):len(rs)], r)
	}
}

// DerivedAll returns kind's value for every function of c.Graph, in
// Names() order, each computed once per Context: a value derived from
// the summaries sums. compute(fn) may read fn's per-function facts and
// summary and, for each function in the deps it returns, that
// function's per-function facts and summary; callees need no listing,
// as a callee's recomputation recomputes its callers. A Context that
// inherited the previous round's values takes fn's when neither fn nor
// any of its deps is in sums.Recomputed. kind names one value type
// derived from one summary kind, and every call for kind on a Context
// passes that Context's result of it. The values are shared by all
// callers and must be treated as immutable.
func DerivedAll[V, S any](c *Context, kind string, sums *summary.Result[S], compute func(fn string) (v V, deps []string)) []V {
	names := c.Graph.Names()
	cells := c.derived.cells(kind, names, sums.Recomputed)
	out := make([]V, len(names))
	for i, fn := range names {
		out[i] = cells[i].get(func() any {
			observe(kind, fn)
			v, deps := compute(fn)
			c.derived.read(kind, fn, deps)
			return v
		}).(V)
	}
	return out
}

// perContext returns (computing once per Context) a Context-scope value.
func perContext[V any](c *Context, kind, fn string, compute func() V) V {
	return c.perCtx.get(factKey{kind, fn}, func() any {
		observe(kind, fn)
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
	return perContext(c, "dropflow.summaries", "", func() map[string]*dropflow.FnSummary {
		return dropflow.ComputeSummaries(c.Bodies, c.Graph)
	})
}

// DropFlow returns (computing once) the path-sensitive drop-and-alias
// walk for a function. Like PointsTo, concurrent callers share one walk;
// the shared Result must be treated as immutable by all detectors. It
// reads the callees' parameter summaries, so it lives in the Context
// scope.
func (c *Context) DropFlow(fn string) *dropflow.Result {
	return perContext(c, "dropflow", fn, func() *dropflow.Result {
		sums := c.DropFlowSummaries()
		return dropflow.Analyze(c.Bodies[fn], dropflow.Options{Lookup: func(name string) (*dropflow.FnSummary, bool) {
			s, ok := sums[name]
			return s, ok
		}})
	})
}

// Callee returns the analyzed function a call resolves to, or "": the
// call graph's rule (callgraph.Resolve), so every result is an edge of
// c.Graph.
func (c *Context) Callee(call mir.Call) string {
	return callgraph.Resolve(call, c.Bodies)
}

// Detector is one analysis pass over a Context.
type Detector interface {
	Name() string
	Run(*Context) []Finding
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
