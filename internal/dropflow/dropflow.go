// Package dropflow is the shared path-sensitive drop-and-alias analysis
// underlying the precise (-precise) mode of the uaf, dfree, and uninit
// detectors. It walks a function's CFG keeping one abstract state per
// explored path prefix — a value environment for branch correlation, a
// per-path alive/dead lattice over drop-class roots, flow-sensitive
// points-to with strong updates, and alias classes that survive
// Box::into_raw / Box::from_raw round-trips (the SafeDrop model,
// arXiv 2103.15420).
//
// The analysis is a refuter, not a finder: it records a Verdict for every
// syntactic site the default (paper-faithful) detectors can report, and a
// precise detector drops a default finding only when the verdict proves
// the site safe on every feasible path. Anything the walk cannot prove —
// unknown points-to, merged paths, a bailed walk — keeps the default
// finding, so precise findings are always a subset of default findings.
//
// Path explosion is bounded two ways: at CFG merge points at most
// MaxStates distinct states are kept per block (beyond that the block
// falls back to a single joined state with path-insensitive join
// semantics), and a per-block visit budget bails the whole walk
// (Result.Bailed) so pathological CFGs stay linear-ish.
package dropflow

import (
	"fmt"
	"sort"
	"strings"

	"rustprobe/internal/mir"
	"rustprobe/internal/types"
)

// SiteKey names one syntactic site a detector may report: a statement
// (Stmt >= 0) or the block terminator (Stmt == -1), plus the pointer or
// owner local the report is about. Detectors construct the same key at
// report time, so matching is exact rather than span-based.
type SiteKey struct {
	Block mir.BlockID
	Stmt  int // statement index within the block, -1 for the terminator
	Local mir.LocalID
}

func (k SiteKey) String() string {
	return fmt.Sprintf("bb%d/%d/_%d", k.Block, k.Stmt, k.Local)
}

// Verdict accumulates may-facts for one site across every explored path.
// A bit left false after the walk is a proof: no feasible path reaches
// the site in the offending state.
type Verdict struct {
	// MayUseDead: some feasible path dereferences the site's pointer while
	// a pointee root is dead (freed or storage-dead).
	MayUseDead bool
	// MayUninit: some feasible path reads or drop-assigns through the
	// pointer while a pointee root's memory is uninitialized.
	MayUninit bool
	// MayDoubleFree: some feasible path frees the same drop-class root
	// twice through a ptr::read ownership duplicate.
	MayDoubleFree bool
}

// Result is the per-function analysis output.
type Result struct {
	Sites map[SiteKey]*Verdict
	// Summary is the caller-indexed parameter-dereference summary derived
	// from the same walk (which params may be dereferenced, under which
	// argument-value guards).
	Summary *FnSummary
	// Bailed is set when the walk hit its step budget; no refutations may
	// be drawn from a bailed result.
	Bailed bool
}

// RefutesUseDead reports whether the walk proved the deref at k never
// touches dead storage on any feasible path.
func (r *Result) RefutesUseDead(k SiteKey) bool {
	if r == nil || r.Bailed {
		return false
	}
	v, ok := r.Sites[k]
	return ok && !v.MayUseDead
}

// RefutesUninit reports whether the walk proved the access at k never
// touches uninitialized memory on any feasible path.
func (r *Result) RefutesUninit(k SiteKey) bool {
	if r == nil || r.Bailed {
		return false
	}
	v, ok := r.Sites[k]
	return ok && !v.MayUninit
}

// RefutesDoubleFree reports whether the walk proved the ownership
// duplication at k never leads to a second free on any feasible path.
func (r *Result) RefutesDoubleFree(k SiteKey) bool {
	if r == nil || r.Bailed {
		return false
	}
	v, ok := r.Sites[k]
	return ok && !v.MayDoubleFree
}

// Options tunes one walk.
type Options struct {
	// MaxStates caps distinct path states kept per block before the block
	// collapses to joined semantics. <= 0 selects DefaultMaxStates.
	MaxStates int
	// MaxVisits caps how often any single block is re-walked before the
	// analysis bails. <= 0 selects DefaultMaxVisits.
	MaxVisits int
	// Lookup resolves callee summaries for context-sensitive call-site
	// evaluation; nil treats every callee as unknown.
	Lookup func(callee string) (*FnSummary, bool)
}

// Default bounds: generous for generated/corpus-sized functions, tiny in
// absolute terms so the walk stays linear-ish on real CFGs.
const (
	DefaultMaxStates = 8
	DefaultMaxVisits = 64
)

// state is one path-prefix abstract state. All maps are keyed by local.
type state struct {
	// env holds known constant values ("true", "false", "0", ...) —
	// branch assertions and propagated constants.
	env map[mir.LocalID]string
	// orig maps a local to the zero-based parameter index whose
	// unmodified value it carries (for summary guard resolution).
	orig map[mir.LocalID]int
	// negOf maps a local to the local whose boolean negation it holds,
	// used to back-propagate branch assertions through `!x`.
	negOf map[mir.LocalID]mir.LocalID
	// dead marks drop-class roots whose storage or heap is gone.
	dead map[mir.LocalID]bool
	// pts is flow-sensitive points-to with strong updates on full-local
	// assignment. A present key is a known (possibly empty) root set; an
	// absent key means unknown, which every check treats conservatively.
	pts map[mir.LocalID][]mir.LocalID
	// moved marks owners whose heap escaped via into_raw/forget: their
	// StorageDead/Drop no longer frees the class.
	moved map[mir.LocalID]bool
	// owns maps an owner local to the class roots freed when it drops;
	// absent means the default class {self}.
	owns map[mir.LocalID][]mir.LocalID
	// uninit marks class roots whose memory is allocated but not yet
	// initialized (ptr-write/alloc modeling for dfree/uninit).
	uninit map[mir.LocalID]bool
	// dup maps a class root to the ptr::read site that duplicated its
	// ownership; a second kill of the root flags that site.
	dup map[mir.LocalID]SiteKey
}

func newState(body *mir.Body) *state {
	s := &state{
		env:    map[mir.LocalID]string{},
		orig:   map[mir.LocalID]int{},
		negOf:  map[mir.LocalID]mir.LocalID{},
		dead:   map[mir.LocalID]bool{},
		pts:    map[mir.LocalID][]mir.LocalID{},
		moved:  map[mir.LocalID]bool{},
		owns:   map[mir.LocalID][]mir.LocalID{},
		uninit: map[mir.LocalID]bool{},
		dup:    map[mir.LocalID]SiteKey{},
	}
	for i := 0; i < body.ArgCount; i++ {
		l := mir.LocalID(i + 1)
		if types.IsPointerLike(body.Local(l).Ty) {
			// A pointer param points at (a proxy for) itself, mirroring
			// the flow-insensitive model so summaries line up.
			s.pts[l] = []mir.LocalID{l}
		} else {
			s.orig[l] = i
		}
	}
	return s
}

func (s *state) clone() *state {
	out := &state{
		env:    make(map[mir.LocalID]string, len(s.env)),
		orig:   make(map[mir.LocalID]int, len(s.orig)),
		negOf:  make(map[mir.LocalID]mir.LocalID, len(s.negOf)),
		dead:   make(map[mir.LocalID]bool, len(s.dead)),
		pts:    make(map[mir.LocalID][]mir.LocalID, len(s.pts)),
		moved:  make(map[mir.LocalID]bool, len(s.moved)),
		owns:   make(map[mir.LocalID][]mir.LocalID, len(s.owns)),
		uninit: make(map[mir.LocalID]bool, len(s.uninit)),
		dup:    make(map[mir.LocalID]SiteKey, len(s.dup)),
	}
	for k, v := range s.env {
		out.env[k] = v
	}
	for k, v := range s.orig {
		out.orig[k] = v
	}
	for k, v := range s.negOf {
		out.negOf[k] = v
	}
	for k, v := range s.dead {
		out.dead[k] = v
	}
	for k, v := range s.pts {
		out.pts[k] = append([]mir.LocalID(nil), v...)
	}
	for k, v := range s.moved {
		out.moved[k] = v
	}
	for k, v := range s.owns {
		out.owns[k] = append([]mir.LocalID(nil), v...)
	}
	for k, v := range s.uninit {
		out.uninit[k] = v
	}
	for k, v := range s.dup {
		out.dup[k] = v
	}
	return out
}

// key renders the state canonically so merge points can deduplicate.
func (s *state) key() string {
	var b strings.Builder
	writeIDs := func(tag string, m map[mir.LocalID]bool) {
		ids := make([]int, 0, len(m))
		for k, v := range m {
			if v {
				ids = append(ids, int(k))
			}
		}
		sort.Ints(ids)
		fmt.Fprintf(&b, "%s%v;", tag, ids)
	}
	envKeys := make([]int, 0, len(s.env))
	for k := range s.env {
		envKeys = append(envKeys, int(k))
	}
	sort.Ints(envKeys)
	for _, k := range envKeys {
		fmt.Fprintf(&b, "e%d=%s,", k, s.env[mir.LocalID(k)])
	}
	origKeys := make([]int, 0, len(s.orig))
	for k := range s.orig {
		origKeys = append(origKeys, int(k))
	}
	sort.Ints(origKeys)
	for _, k := range origKeys {
		fmt.Fprintf(&b, "o%d=%d,", k, s.orig[mir.LocalID(k)])
	}
	negKeys := make([]int, 0, len(s.negOf))
	for k := range s.negOf {
		negKeys = append(negKeys, int(k))
	}
	sort.Ints(negKeys)
	for _, k := range negKeys {
		fmt.Fprintf(&b, "n%d=%d,", k, s.negOf[mir.LocalID(k)])
	}
	writeIDs("d", s.dead)
	writeIDs("m", s.moved)
	writeIDs("u", s.uninit)
	ptsKeys := make([]int, 0, len(s.pts))
	for k := range s.pts {
		ptsKeys = append(ptsKeys, int(k))
	}
	sort.Ints(ptsKeys)
	for _, k := range ptsKeys {
		fmt.Fprintf(&b, "p%d=%v,", k, s.pts[mir.LocalID(k)])
	}
	ownKeys := make([]int, 0, len(s.owns))
	for k := range s.owns {
		ownKeys = append(ownKeys, int(k))
	}
	sort.Ints(ownKeys)
	for _, k := range ownKeys {
		fmt.Fprintf(&b, "w%d=%v,", k, s.owns[mir.LocalID(k)])
	}
	dupKeys := make([]int, 0, len(s.dup))
	for k := range s.dup {
		dupKeys = append(dupKeys, int(k))
	}
	sort.Ints(dupKeys)
	for _, k := range dupKeys {
		fmt.Fprintf(&b, "q%d=%s,", k, s.dup[mir.LocalID(k)])
	}
	return b.String()
}

// join merges o into s with path-insensitive (may) semantics: constants
// survive only when both sides agree, deadness and uninitness union,
// points-to unions (dropping to unknown when either side is unknown).
func (s *state) join(o *state) {
	for k, v := range s.env {
		if ov, ok := o.env[k]; !ok || ov != v {
			delete(s.env, k)
		}
	}
	for k, v := range s.orig {
		if ov, ok := o.orig[k]; !ok || ov != v {
			delete(s.orig, k)
		}
	}
	for k, v := range s.negOf {
		if ov, ok := o.negOf[k]; !ok || ov != v {
			delete(s.negOf, k)
		}
	}
	for k, v := range o.dead {
		if v {
			s.dead[k] = true
		}
	}
	for k := range s.moved {
		if !o.moved[k] {
			delete(s.moved, k)
		}
	}
	for k := range s.pts {
		ov, ok := o.pts[k]
		if !ok {
			delete(s.pts, k) // either side unknown -> unknown
			continue
		}
		s.pts[k] = unionIDs(s.pts[k], ov)
	}
	for k, v := range o.uninit {
		if v {
			s.uninit[k] = true
		}
	}
	for k, v := range o.owns {
		s.owns[k] = unionIDs(s.owns[k], v)
	}
	for k, v := range o.dup {
		if prev, ok := s.dup[k]; !ok || v.String() < prev.String() {
			s.dup[k] = v
		}
	}
}

func unionIDs(a, b []mir.LocalID) []mir.LocalID {
	seen := make(map[mir.LocalID]bool, len(a)+len(b))
	for _, x := range a {
		seen[x] = true
	}
	for _, x := range b {
		seen[x] = true
	}
	out := make([]mir.LocalID, 0, len(seen))
	for x := range seen {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// walker drives the bounded path-sensitive fixpoint.
type walker struct {
	body      *mir.Body
	opt       Options
	res       *Result
	in        map[mir.BlockID][]*state
	inKeys    map[mir.BlockID]map[string]bool
	collapsed map[mir.BlockID]bool
	visits    map[mir.BlockID]int
	work      []mir.BlockID
	queued    map[mir.BlockID]bool
}

// Analyze runs the path-sensitive walk over one function body.
func Analyze(body *mir.Body, opt Options) *Result {
	if opt.MaxStates <= 0 {
		opt.MaxStates = DefaultMaxStates
	}
	if opt.MaxVisits <= 0 {
		opt.MaxVisits = DefaultMaxVisits
	}
	res := &Result{Sites: map[SiteKey]*Verdict{}, Summary: &FnSummary{}}
	if body == nil || len(body.Blocks) == 0 {
		return res
	}
	w := &walker{
		body:      body,
		opt:       opt,
		res:       res,
		in:        map[mir.BlockID][]*state{},
		inKeys:    map[mir.BlockID]map[string]bool{},
		collapsed: map[mir.BlockID]bool{},
		visits:    map[mir.BlockID]int{},
		queued:    map[mir.BlockID]bool{},
	}
	w.push(0, newState(body))
	for len(w.work) > 0 && !res.Bailed {
		b := w.work[0]
		w.work = w.work[1:]
		w.queued[b] = false
		w.visits[b]++
		if w.visits[b] > opt.MaxVisits {
			res.Bailed = true
			break
		}
		states := w.in[b]
		if w.collapsed[b] {
			states = states[:1]
		}
		for _, st := range states {
			w.walkBlock(b, st.clone())
		}
	}
	if res.Bailed {
		res.Summary.Opaque = true
	}
	res.Summary.normalize()
	return res
}

// push adds a state to a block's input set, collapsing past the cap, and
// queues the block when the set changed.
func (w *walker) push(b mir.BlockID, s *state) {
	if int(b) >= len(w.body.Blocks) {
		return
	}
	if w.collapsed[b] {
		joined := w.in[b][0]
		before := joined.key()
		joined.join(s)
		if joined.key() != before {
			w.enqueue(b)
		}
		return
	}
	k := s.key()
	keys := w.inKeys[b]
	if keys == nil {
		keys = map[string]bool{}
		w.inKeys[b] = keys
	}
	if keys[k] {
		return
	}
	keys[k] = true
	w.in[b] = append(w.in[b], s)
	if len(w.in[b]) > w.opt.MaxStates {
		// Fall back to joined (path-insensitive) semantics for this block.
		joined := w.in[b][0].clone()
		for _, o := range w.in[b][1:] {
			joined.join(o)
		}
		w.in[b] = []*state{joined}
		w.collapsed[b] = true
	}
	w.enqueue(b)
}

func (w *walker) enqueue(b mir.BlockID) {
	if !w.queued[b] {
		w.queued[b] = true
		w.work = append(w.work, b)
	}
}

func (w *walker) verdict(k SiteKey) *Verdict {
	v, ok := w.res.Sites[k]
	if !ok {
		v = &Verdict{}
		w.res.Sites[k] = v
	}
	return v
}

// walkBlock interprets one block under one path state and pushes the
// resulting states to the successors.
func (w *walker) walkBlock(b mir.BlockID, s *state) {
	blk := w.body.Blocks[b]
	for i, st := range blk.Stmts {
		w.stmt(s, b, i, st)
	}
	w.terminator(s, b, blk.Term)
}

func (w *walker) stmt(s *state, b mir.BlockID, i int, st mir.Statement) {
	switch st := st.(type) {
	case mir.StorageLive:
		delete(s.dead, st.Local)
		delete(s.moved, st.Local)
	case mir.StorageDead:
		if !s.moved[st.Local] {
			s.dead[st.Local] = true
		}
	case mir.Assign:
		// Reads first: any deref on the rvalue side is a site. Reading a
		// discriminant counts; borrowing or taking an address does not.
		read := func(pl mir.Place) {
			if pl.HasDeref() {
				w.derefSite(s, SiteKey{Block: b, Stmt: i, Local: pl.Local})
			}
		}
		mir.ForEachOperandPlace(st.Rvalue, read)
		if d, ok := st.Rvalue.(mir.Discriminant); ok {
			read(d.Place)
		}
		if st.Place.IsLocal() {
			w.assignLocal(s, st.Place.Local, st.Rvalue)
			return
		}
		if st.Place.HasDeref() {
			// Write through a pointer: a site (dangling write / invalid
			// free of a garbage previous value), then the pointee class
			// becomes initialized.
			w.derefSite(s, SiteKey{Block: b, Stmt: i, Local: st.Place.Local})
			if roots, ok := s.pts[st.Place.Local]; ok {
				for _, r := range roots {
					delete(s.uninit, r)
				}
			}
		}
		// Projection writes (x.f = ...) are weak updates: no class facts
		// change.
	}
}

// derefSite evaluates one pointer access under the current state and
// accumulates the verdict. checkUninit is false for accesses that
// initialize rather than read the pointee (ptr::write).
func (w *walker) derefSite(s *state, k SiteKey) { w.derefSiteOpts(s, k, true) }

func (w *walker) derefSiteOpts(s *state, k SiteKey, checkUninit bool) {
	v := w.verdict(k)
	roots, known := s.pts[k.Local]
	if !known {
		v.MayUseDead = true
		if checkUninit {
			v.MayUninit = true
		}
		w.noteParamDeref(s, k.Local)
		return
	}
	for _, r := range roots {
		if r == k.Local {
			continue
		}
		if s.dead[r] {
			v.MayUseDead = true
		}
		if checkUninit && s.uninit[r] {
			v.MayUninit = true
		}
	}
	w.noteParamDeref(s, k.Local)
}

// noteParamDeref records "this function may dereference parameter i" in
// the summary, guarded by the parameter-value facts of the current path.
func (w *walker) noteParamDeref(s *state, l mir.LocalID) {
	params := map[int]bool{}
	if idx, ok := w.paramIndex(l); ok {
		params[idx] = true
	}
	roots, known := s.pts[l]
	for _, r := range roots {
		if idx, ok := w.paramIndex(r); ok {
			params[idx] = true
		}
	}
	if !known && len(params) == 0 {
		// Unknown points-to: the pointer may alias any parameter. Keep
		// the whole summary conservative.
		w.res.Summary.Opaque = true
		return
	}
	if len(params) == 0 {
		return
	}
	conds := w.pathConds(s)
	for idx := range params {
		w.res.Summary.addSite(idx, conds)
	}
}

// pathConds extracts the parameter-value assumptions of the current path.
func (w *walker) pathConds(s *state) CondSet {
	vals := map[int]string{}
	for l, v := range s.env {
		if idx, ok := w.valueParamIndex(s, l); ok {
			if prev, seen := vals[idx]; seen && prev != v {
				continue // contradictory facts: drop the weaker one
			}
			vals[idx] = v
		}
	}
	conds := make(CondSet, 0, len(vals))
	for idx, v := range vals {
		conds = append(conds, Cond{Param: idx, Value: v})
	}
	sort.Slice(conds, func(i, j int) bool { return conds[i].Param < conds[j].Param })
	return conds
}

// paramIndex maps a pointer-typed parameter local to its index.
func (w *walker) paramIndex(l mir.LocalID) (int, bool) {
	if l >= 1 && int(l) <= w.body.ArgCount {
		return int(l) - 1, true
	}
	return 0, false
}

// valueParamIndex maps a local carrying an unmodified parameter value to
// that parameter's index.
func (w *walker) valueParamIndex(s *state, l mir.LocalID) (int, bool) {
	if idx, ok := w.paramIndex(l); ok {
		return idx, true
	}
	if idx, ok := s.orig[l]; ok {
		return idx, true
	}
	return 0, false
}

// assignLocal is the strong-update transfer for `dest = rvalue`.
func (w *walker) assignLocal(s *state, dest mir.LocalID, rv mir.Rvalue) {
	delete(s.env, dest)
	delete(s.orig, dest)
	delete(s.negOf, dest)
	delete(s.dead, dest)
	delete(s.moved, dest)
	delete(s.owns, dest)
	delete(s.pts, dest)
	switch rv := rv.(type) {
	case mir.Use:
		switch op := rv.X.(type) {
		case mir.Const:
			s.env[dest] = op.Text
			s.pts[dest] = []mir.LocalID{}
		case mir.Copy:
			w.copyLocal(s, dest, op.Place, false)
		case mir.Move:
			w.copyLocal(s, dest, op.Place, true)
		}
	case mir.Ref:
		s.pts[dest] = w.rootsOfPlace(s, rv.Place)
	case mir.AddrOf:
		s.pts[dest] = w.rootsOfPlace(s, rv.Place)
	case mir.Cast:
		if pl, ok := mir.OperandPlace(rv.X); ok && pl.IsLocal() {
			w.copyLocal(s, dest, pl, mir.IsMove(rv.X))
		}
	case mir.UnaryOp:
		if rv.Op == "Not" {
			if pl, ok := mir.OperandPlace(rv.X); ok && pl.IsLocal() {
				if v, known := s.env[pl.Local]; known {
					s.env[dest] = negBool(v)
				} else {
					s.negOf[dest] = pl.Local
				}
			}
		}
		s.pts[dest] = []mir.LocalID{}
	case mir.BinaryOp:
		s.pts[dest] = []mir.LocalID{}
	case mir.Aggregate:
		// Fresh value; owns defaults to {dest}.
	}
}

// copyLocal transfers facts for `dest = copy/move src` (whole places
// only; projections lose tracking).
func (w *walker) copyLocal(s *state, dest mir.LocalID, src mir.Place, isMove bool) {
	if !src.IsLocal() {
		return // projection or deref read: dest value untracked
	}
	l := src.Local
	if v, ok := s.env[l]; ok {
		s.env[dest] = v
	}
	if idx, ok := w.valueParamIndex(s, l); ok {
		s.orig[dest] = idx
	}
	if n, ok := s.negOf[l]; ok {
		s.negOf[dest] = n
	}
	if roots, ok := s.pts[l]; ok {
		s.pts[dest] = append([]mir.LocalID(nil), roots...)
	}
	if isMove && types.OwnsHeap(w.body.Local(l).Ty) {
		// Moving an owner transfers its drop class; the destination also
		// becomes a root (pointers derived from it must die with it), and
		// the source's scope-end StorageDead no longer frees the heap —
		// a move transfers ownership, it never frees.
		s.owns[dest] = unionIDs(w.ownsOf(s, l), []mir.LocalID{dest})
		s.moved[l] = true
	}
	if site, ok := s.dup[l]; ok && isMove {
		s.dup[dest] = site
	}
}

func (w *walker) rootsOfPlace(s *state, p mir.Place) []mir.LocalID {
	if !p.HasDeref() {
		return []mir.LocalID{p.Local}
	}
	if roots, ok := s.pts[p.Local]; ok {
		return append([]mir.LocalID(nil), roots...)
	}
	return nil // unknown stays unknown: delete below
}

// ownsOf returns the drop class of an owner local, defaulting to {self}.
func (w *walker) ownsOf(s *state, l mir.LocalID) []mir.LocalID {
	if roots, ok := s.owns[l]; ok {
		return roots
	}
	return []mir.LocalID{l}
}

func negBool(v string) string {
	switch v {
	case "true":
		return "false"
	case "false":
		return "true"
	}
	return ""
}

func (w *walker) terminator(s *state, b mir.BlockID, term mir.Terminator) {
	switch term := term.(type) {
	case nil:
		return
	case mir.Goto:
		w.push(term.Target, s)
	case mir.Drop:
		w.dropPlace(s, b, term.Place)
		w.push(term.Target, s)
	case mir.Call:
		w.call(s, b, term)
		w.push(term.Target, s)
	case mir.SwitchInt:
		w.switchInt(s, b, term)
	case mir.Return, mir.Unreachable:
		return
	default:
		for _, t := range term.Successors() {
			w.push(t, s.clone())
		}
	}
}

// dropPlace models running a place's destructor: every root of the
// owner's drop class dies; a re-kill through a ptr::read duplicate is a
// double free charged to the duplicating site.
func (w *walker) dropPlace(s *state, b mir.BlockID, p mir.Place) {
	if !p.IsLocal() {
		return
	}
	l := p.Local
	if s.moved[l] {
		return // ownership escaped via into_raw/forget: drop frees nothing
	}
	if !types.OwnsHeap(w.body.Local(l).Ty) {
		return
	}
	for _, r := range w.ownsOf(s, l) {
		if s.dead[r] {
			if site, ok := s.dup[r]; ok {
				w.verdict(site).MayDoubleFree = true
			}
		}
		s.dead[r] = true
	}
}

// call models a call terminator: argument sites, intrinsic effects, and
// context-sensitive callee-summary evaluation.
func (w *walker) call(s *state, b mir.BlockID, c mir.Call) {
	// Explicit derefs in argument position are always sites.
	for _, a := range c.Args {
		if pl, ok := mir.OperandPlace(a); ok && pl.HasDeref() {
			w.derefSite(s, SiteKey{Block: b, Stmt: -1, Local: pl.Local})
		}
	}
	switch c.Intrinsic {
	case mir.IntrinsicDrop:
		if len(c.Args) > 0 {
			if pl, ok := mir.OperandPlace(c.Args[0]); ok {
				w.dropPlace(s, b, pl)
			}
		}
	case mir.IntrinsicForget:
		if len(c.Args) > 0 {
			if pl, ok := mir.OperandPlace(c.Args[0]); ok && pl.IsLocal() {
				s.moved[pl.Local] = true
			}
		}
	case mir.IntrinsicIntoRaw:
		// into_raw(owner) releases ownership as a raw pointer: the owner's
		// scope-end drop/StorageDead no longer frees the class, and the
		// result aliases the class roots — the round-trip survives.
		if len(c.Args) > 0 {
			if pl, ok := mir.OperandPlace(c.Args[0]); ok && pl.IsLocal() {
				class := w.ownsOf(s, pl.Local)
				// The whole class escapes: lowering may have move-chained
				// the owner through temporaries, each of which gets a
				// scope-end StorageDead that must no longer kill the heap.
				s.moved[pl.Local] = true
				for _, r := range class {
					s.moved[r] = true
				}
				if c.Dest.IsLocal() {
					w.freshDest(s, c.Dest.Local)
					s.pts[c.Dest.Local] = append([]mir.LocalID(nil), class...)
				}
				return
			}
		}
		w.opaqueDest(s, c.Dest)
	case mir.IntrinsicFromRaw:
		// from_raw(ptr) re-adopts the class: dropping the new owner frees
		// the original roots.
		if len(c.Args) > 0 {
			if pl, ok := mir.OperandPlace(c.Args[0]); ok && pl.IsLocal() && c.Dest.IsLocal() {
				w.freshDest(s, c.Dest.Local)
				if roots, ok := s.pts[pl.Local]; ok {
					s.owns[c.Dest.Local] = unionIDs(roots, []mir.LocalID{c.Dest.Local})
				}
				return
			}
		}
		w.opaqueDest(s, c.Dest)
	case mir.IntrinsicAlloc:
		if c.Dest.IsLocal() {
			w.freshDest(s, c.Dest.Local)
			s.pts[c.Dest.Local] = []mir.LocalID{c.Dest.Local}
			s.uninit[c.Dest.Local] = true
		}
	case mir.IntrinsicPtrWrite:
		if len(c.Args) > 0 {
			if pl, ok := mir.OperandPlace(c.Args[0]); ok && pl.IsLocal() {
				// The write is the initializer: only a dead pointee is a
				// bug here, uninitness is what it cures.
				w.derefSiteOpts(s, SiteKey{Block: b, Stmt: -1, Local: pl.Local}, false)
				if roots, ok := s.pts[pl.Local]; ok {
					for _, r := range roots {
						delete(s.uninit, r)
					}
				}
			}
		}
		w.opaqueDest(s, c.Dest)
	case mir.IntrinsicPtrRead:
		if len(c.Args) > 0 {
			if pl, ok := mir.OperandPlace(c.Args[0]); ok && pl.IsLocal() {
				site := SiteKey{Block: b, Stmt: -1, Local: pl.Local}
				w.derefSite(s, site)
				roots, known := s.pts[pl.Local]
				if !known {
					w.verdict(site).MayDoubleFree = true
				} else if c.Dest.IsLocal() {
					// The result duplicates ownership of the pointee:
					// dropping both copies double-frees the class.
					w.freshDest(s, c.Dest.Local)
					owned := []mir.LocalID{c.Dest.Local}
					for _, r := range roots {
						if r == pl.Local {
							continue
						}
						s.dup[r] = site
						owned = unionIDs(owned, []mir.LocalID{r})
					}
					s.owns[c.Dest.Local] = owned
					return
				}
			}
		}
		w.opaqueDest(s, c.Dest)
	case mir.IntrinsicDealloc:
		if len(c.Args) > 0 {
			if pl, ok := mir.OperandPlace(c.Args[0]); ok && pl.IsLocal() {
				if roots, ok := s.pts[pl.Local]; ok {
					for _, r := range roots {
						if r != pl.Local {
							s.dead[r] = true
						}
					}
				}
			}
		}
		w.opaqueDest(s, c.Dest)
	default:
		w.externalCall(s, b, c)
	}
}

// externalCall models a non-intrinsic call: evaluate the callee's
// parameter-dereference summary (context-sensitively, against this call's
// constant arguments) or fall back to the paper's conservative rule for
// unknown callees.
func (w *walker) externalCall(s *state, b mir.BlockID, c mir.Call) {
	name := calleeName(c)
	var sum *FnSummary
	if w.opt.Lookup != nil && name != "" {
		if got, ok := w.opt.Lookup(name); ok {
			sum = got
		}
	}
	for i, a := range c.Args {
		pl, ok := mir.OperandPlace(a)
		if !ok || !pl.IsLocal() {
			continue
		}
		ty := w.body.Local(pl.Local).Ty
		if !types.IsPointerLike(ty) {
			continue
		}
		derefs := false
		switch {
		case sum == nil:
			// Unknown callee: conservatively assume raw pointers are
			// dereferenced (the paper-faithful default rule).
			_, isRaw := ty.(*types.RawPtr)
			derefs = isRaw
		case sum.Opaque:
			derefs = true
		default:
			derefs = sum.derefsParam(i, func(cond Cond) condTruth {
				return w.argTruth(s, c, cond)
			})
		}
		if derefs {
			w.derefSite(s, SiteKey{Block: b, Stmt: -1, Local: pl.Local})
		} else {
			// Record a proven-safe site so the detector's default
			// call-site finding has something to be refuted by.
			w.verdict(SiteKey{Block: b, Stmt: -1, Local: pl.Local})
			w.notePassThrough(s, c, i, pl.Local, sum)
		}
	}
	w.opaqueDest(s, c.Dest)
}

// notePassThrough propagates callee guards into this function's summary
// when a parameter is forwarded to a callee that may dereference it under
// conditions this caller cannot decide.
func (w *walker) notePassThrough(s *state, c mir.Call, argIdx int, l mir.LocalID, sum *FnSummary) {
	if sum == nil || sum.Opaque {
		return
	}
	params := map[int]bool{}
	if idx, ok := w.paramIndex(l); ok {
		params[idx] = true
	}
	if roots, ok := s.pts[l]; ok {
		for _, r := range roots {
			if idx, ok := w.paramIndex(r); ok {
				params[idx] = true
			}
		}
	}
	if len(params) == 0 {
		return
	}
	guard, ok := sum.Params[argIdx]
	if !ok {
		return
	}
	for _, site := range guard {
		translated, ok := w.translateConds(s, c, site)
		if !ok {
			continue // guard refuted at this call site
		}
		merged := unionConds(translated, w.pathConds(s))
		for idx := range params {
			w.res.Summary.addSite(idx, merged)
		}
	}
}

// translateConds rewrites a callee guard into caller terms: conditions on
// constant arguments evaluate away, conditions on forwarded parameters
// translate, anything else drops (stays satisfiable).
func (w *walker) translateConds(s *state, c mir.Call, conds CondSet) (CondSet, bool) {
	out := CondSet{}
	for _, cond := range conds {
		switch w.argTruth(s, c, cond) {
		case condFalse:
			return nil, false
		case condTrue:
			continue
		}
		if cond.Param < len(c.Args) {
			if pl, ok := mir.OperandPlace(c.Args[cond.Param]); ok && pl.IsLocal() {
				if idx, ok := w.valueParamIndex(s, pl.Local); ok {
					out = append(out, Cond{Param: idx, Value: cond.Value})
					continue
				}
			}
		}
		// Undecidable: drop the condition (widens toward "may deref").
	}
	return out, true
}

type condTruth int

const (
	condUnknown condTruth = iota
	condTrue
	condFalse
)

// argTruth evaluates one callee guard condition against this call's
// arguments under the current path state.
func (w *walker) argTruth(s *state, c mir.Call, cond Cond) condTruth {
	if cond.Param >= len(c.Args) {
		return condUnknown
	}
	switch op := c.Args[cond.Param].(type) {
	case mir.Const:
		if op.Text == cond.Value {
			return condTrue
		}
		return condFalse
	case mir.Copy:
		return w.placeTruth(s, op.Place, cond.Value)
	case mir.Move:
		return w.placeTruth(s, op.Place, cond.Value)
	}
	return condUnknown
}

func (w *walker) placeTruth(s *state, pl mir.Place, want string) condTruth {
	if !pl.IsLocal() {
		return condUnknown
	}
	if v, ok := s.env[pl.Local]; ok && v != "" {
		if v == want {
			return condTrue
		}
		return condFalse
	}
	return condUnknown
}

// freshDest resets a call destination to an untracked fresh value.
func (w *walker) freshDest(s *state, dest mir.LocalID) {
	delete(s.env, dest)
	delete(s.orig, dest)
	delete(s.negOf, dest)
	delete(s.dead, dest)
	delete(s.moved, dest)
	delete(s.owns, dest)
	delete(s.pts, dest)
}

// opaqueDest resets a call destination whose value is unknown.
func (w *walker) opaqueDest(s *state, dest mir.Place) {
	if dest.IsLocal() {
		w.freshDest(s, dest.Local)
	}
}

// switchInt forks per outcome, asserting the discriminant's value on each
// edge and pruning edges the current environment proves infeasible —
// branch-correlated drops and derefs stop bleeding into each other here.
func (w *walker) switchInt(s *state, b mir.BlockID, term mir.SwitchInt) {
	// Constant discriminant: follow the single matching edge.
	if c, ok := term.Disc.(mir.Const); ok {
		for _, t := range term.Targets {
			if t.Value == c.Text {
				w.push(t.Block, s)
				return
			}
		}
		w.push(term.Otherwise, s)
		return
	}
	pl, ok := mir.OperandPlace(term.Disc)
	if !ok || !pl.IsLocal() {
		for _, t := range term.Successors() {
			w.push(t, s.clone())
		}
		return
	}
	l := pl.Local
	if v, known := s.env[l]; known && v != "" {
		for _, t := range term.Targets {
			if t.Value == v {
				w.push(t.Block, s)
				return
			}
		}
		w.push(term.Otherwise, s)
		return
	}
	// Unknown discriminant: fork, asserting the tested value on each
	// target edge and (for booleans) its complement on the otherwise
	// edge.
	for _, t := range term.Targets {
		next := s.clone()
		w.assertValue(next, l, t.Value)
		w.push(t.Block, next)
	}
	other := s.clone()
	if len(term.Targets) == 1 && isBoolLocal(w.body, l) {
		w.assertValue(other, l, negBool(term.Targets[0].Value))
	}
	w.push(term.Otherwise, other)
}

// assertValue records a branch assertion, back-propagating through one
// level of boolean negation.
func (w *walker) assertValue(s *state, l mir.LocalID, v string) {
	if v == "" {
		return
	}
	s.env[l] = v
	if src, ok := s.negOf[l]; ok {
		if nv := negBool(v); nv != "" {
			if _, has := s.env[src]; !has {
				s.env[src] = nv
			}
		}
	}
}

func isBoolLocal(body *mir.Body, l mir.LocalID) bool {
	p, ok := body.Local(l).Ty.(*types.Prim)
	return ok && p.Kind == types.Bool
}

func calleeName(c mir.Call) string {
	if c.Def != nil {
		return c.Def.Qualified
	}
	return c.Callee
}
