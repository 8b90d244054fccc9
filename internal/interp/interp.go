// Package interp is a dynamic checker over MIR in the style of Miri (the
// paper's §2.4/§7 "dynamic detectors" discussion): it executes a function's
// MIR over an abstract memory, tracking storage liveness, ownership and
// lock state, and reports the runtime errors this exposes — use of dead
// storage (use-after-free), double drops, dropping uninitialized memory
// (invalid free), and re-acquiring a held lock (double-lock deadlock).
//
// Branch conditions are usually unknown statically, so the interpreter
// explores both SwitchInt outcomes with a bounded depth-first search: it is
// the "needs an input that triggers the bug" limitation of dynamic tools,
// mechanized. Every error carries the branch trace that reaches it.
package interp

import (
	"fmt"
	"sort"
	"strings"

	"rustprobe/internal/mir"
	"rustprobe/internal/source"
	"rustprobe/internal/types"
)

// ErrorKind classifies dynamic errors.
type ErrorKind string

// Dynamic error kinds.
const (
	ErrUseAfterFree ErrorKind = "use-after-free"
	ErrDoubleDrop   ErrorKind = "double-drop"
	ErrInvalidFree  ErrorKind = "invalid-free"
	ErrUninitRead   ErrorKind = "uninitialized-read"
	ErrDeadlock     ErrorKind = "deadlock"
)

// DynamicError is one error found along some execution path.
type DynamicError struct {
	Kind     ErrorKind
	Function string
	Span     source.Span
	Message  string
	// Trace is the sequence of branch decisions that reached the error,
	// as "bbN->bbM" steps.
	Trace []string
}

func (e DynamicError) String() string {
	return fmt.Sprintf("[%s] %s (in %s; path %s)", e.Kind, e.Message, e.Function, strings.Join(e.Trace, " "))
}

// cellState is the lifecycle state of a local's storage.
type cellState int

const (
	stateDead cellState = iota
	stateUninit
	stateInit
	stateMoved
)

// Config bounds the exploration.
type Config struct {
	MaxSteps     int // per-path statement budget (default 4096)
	MaxPaths     int // total explored paths (default 256)
	MaxCallDepth int // inlining depth for resolved calls (default 2)
}

// Result is the exploration outcome for one function.
type Result struct {
	Function  string
	Errors    []DynamicError
	Paths     int  // paths explored
	Truncated bool // hit a budget
}

// Run explores a body and returns the dynamic errors found.
func Run(body *mir.Body, cfg Config) *Result {
	return RunWith(body, cfg, nil)
}

// RunWith explores a body with access to other bodies for depth-limited
// call inlining: when a call resolves to a known body, the callee is
// explored with the caller's held-lock set translated through the
// receiver path, so caller-holds/callee-locks deadlocks surface
// dynamically too.
func RunWith(body *mir.Body, cfg Config, bodies map[string]*mir.Body) *Result {
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 4096
	}
	if cfg.MaxPaths == 0 {
		cfg.MaxPaths = 256
	}
	if cfg.MaxCallDepth == 0 {
		cfg.MaxCallDepth = 2
	}
	name := "?"
	if body.Func != nil {
		name = body.Func.Qualified
	}
	r := &Result{Function: name}
	ex := &explorer{body: body, cfg: cfg, res: r, bodies: bodies}

	init := newState(body)
	ex.explore(init, 0, nil, 0)
	dedupe(r)
	return r
}

type machineState struct {
	cells []cellState
	// pointees[l] = storage roots local l points into (dynamic points-to).
	// Roots at indices >= len(body.Locals) are pseudo heap roots created
	// by alloc(): heap memory has its own lifecycle (uninit until written,
	// dead after dealloc) independent of any stack temporary's storage.
	pointees []map[mir.LocalID]bool
	// guards[l] = lock identity held by local l (empty when none).
	guards []string
	// valueOf[l] = the local whose value l owns. Identity except for
	// ptr::read duplicates, which share their original's value root so
	// dropping both surfaces as a double drop (the §5.1 double free).
	valueOf []mir.LocalID
	// heldLocks is the multiset of lock identities currently held.
	heldLocks map[string]int
	steps     int
}

// newHeapRoot appends a fresh uninitialized pseudo root modeling one
// alloc() result and returns its id.
func (s *machineState) newHeapRoot() mir.LocalID {
	id := mir.LocalID(len(s.cells))
	s.cells = append(s.cells, stateUninit)
	s.pointees = append(s.pointees, nil)
	s.guards = append(s.guards, "")
	s.valueOf = append(s.valueOf, id)
	return id
}

func newState(body *mir.Body) *machineState {
	s := &machineState{
		cells:     make([]cellState, len(body.Locals)),
		pointees:  make([]map[mir.LocalID]bool, len(body.Locals)),
		guards:    make([]string, len(body.Locals)),
		valueOf:   make([]mir.LocalID, len(body.Locals)),
		heldLocks: map[string]int{},
	}
	for i := range s.valueOf {
		s.valueOf[i] = mir.LocalID(i)
	}
	// Return place and arguments start live and initialized.
	s.cells[mir.ReturnLocal] = stateUninit
	for i := 0; i < body.ArgCount; i++ {
		s.cells[i+1] = stateInit
	}
	// Statics (allocated as extra locals) are always live.
	for _, l := range body.Locals {
		if strings.HasPrefix(l.Name, "static ") {
			s.cells[l.ID] = stateInit
		}
	}
	return s
}

func (s *machineState) clone() *machineState {
	out := &machineState{
		cells:     append([]cellState(nil), s.cells...),
		pointees:  make([]map[mir.LocalID]bool, len(s.pointees)),
		guards:    append([]string(nil), s.guards...),
		valueOf:   append([]mir.LocalID(nil), s.valueOf...),
		heldLocks: map[string]int{},
		steps:     s.steps,
	}
	for i, m := range s.pointees {
		if m != nil {
			out.pointees[i] = make(map[mir.LocalID]bool, len(m))
			for k, v := range m {
				out.pointees[i][k] = v
			}
		}
	}
	for k, v := range s.heldLocks {
		out.heldLocks[k] = v
	}
	return out
}

type explorer struct {
	body   *mir.Body
	cfg    Config
	res    *Result
	bodies map[string]*mir.Body
	// callDepth tracks inlining depth; inheritedLocks are the caller's
	// held lock ids translated into this frame's namespace.
	callDepth      int
	inheritedLocks map[string]bool
}

func (ex *explorer) emit(kind ErrorKind, sp source.Span, trace []string, format string, args ...any) {
	ex.res.Errors = append(ex.res.Errors, DynamicError{
		Kind:     kind,
		Function: ex.res.Function,
		Span:     sp,
		Message:  fmt.Sprintf(format, args...),
		Trace:    append([]string(nil), trace...),
	})
}

// explore runs one path from the given block; at SwitchInt it forks.
func (ex *explorer) explore(s *machineState, blk mir.BlockID, trace []string, depth int) {
	if ex.res.Paths >= ex.cfg.MaxPaths {
		ex.res.Truncated = true
		return
	}
	body := ex.body
	for {
		if s.steps += 1; s.steps > ex.cfg.MaxSteps {
			ex.res.Truncated = true
			return
		}
		if int(blk) >= len(body.Blocks) {
			return
		}
		b := body.Blocks[blk]
		for _, st := range b.Stmts {
			ex.step(s, st, trace)
		}
		term := b.Term
		if term == nil {
			ex.res.Paths++
			return
		}
		switch term := term.(type) {
		case mir.Goto:
			blk = term.Target
		case mir.Return, mir.Unreachable:
			ex.res.Paths++
			return
		case mir.Drop:
			ex.dynDrop(s, term.Place, term.Span, trace)
			blk = term.Target
		case mir.Call:
			ex.dynCall(s, term, trace)
			blk = term.Target
		case mir.SwitchInt:
			// Fork on every successor (deduplicated), bounded by depth.
			succs := term.Successors()
			uniq := succs[:0]
			seen := map[mir.BlockID]bool{}
			for _, t := range succs {
				if !seen[t] {
					seen[t] = true
					uniq = append(uniq, t)
				}
			}
			if depth > 24 || len(uniq) == 1 {
				// Too deep (likely a loop): follow the last successor,
				// which for loop headers is the exit edge.
				blk = uniq[len(uniq)-1]
				continue
			}
			for _, t := range uniq {
				ex.explore(s.clone(), t, append(trace, fmt.Sprintf("bb%d->bb%d", blk, t)), depth+1)
			}
			return
		default:
			ex.res.Paths++
			return
		}
	}
}

func (ex *explorer) step(s *machineState, st mir.Statement, trace []string) {
	switch st := st.(type) {
	case mir.StorageLive:
		s.cells[st.Local] = stateUninit
	case mir.StorageDead:
		s.cells[st.Local] = stateDead
		ex.releaseGuard(s, st.Local)
	case mir.Assign:
		ex.readRvalue(s, st.Rvalue, st.Span, trace)
		ex.writePlace(s, st.Place, st.Span, trace, types.NeedsDrop(mir.AssignedType(ex.body, st)))
		ex.flowAssign(s, st)
	}
}

// localName renders a local or pseudo heap root for messages.
func (ex *explorer) localName(l mir.LocalID) string {
	if int(l) < len(ex.body.Locals) {
		return ex.body.Local(l).String()
	}
	return fmt.Sprintf("heap allocation #%d", int(l)-len(ex.body.Locals))
}

// readRvalue checks every read the rvalue performs.
func (ex *explorer) readRvalue(s *machineState, rv mir.Rvalue, sp source.Span, trace []string) {
	read := func(op mir.Operand) {
		pl, ok := mir.OperandPlace(op)
		if !ok {
			return
		}
		ex.readPlace(s, pl, sp, trace)
		if mv, isMove := op.(mir.Move); isMove && mv.Place.IsLocal() {
			s.cells[mv.Place.Local] = stateMoved
			// Guard transfer (if any) is flowAssign's job: the guard
			// moves with the value rather than being released.
		}
	}
	switch rv := rv.(type) {
	case mir.Use:
		read(rv.X)
	case mir.Cast:
		read(rv.X)
	case mir.BinaryOp:
		read(rv.L)
		read(rv.R)
	case mir.UnaryOp:
		read(rv.X)
	case mir.Aggregate:
		for _, op := range rv.Ops {
			read(op)
		}
	case mir.Discriminant:
		ex.readPlace(s, rv.Place, sp, trace)
	case mir.Ref, mir.AddrOf:
		// Taking an address reads nothing.
	}
}

// readPlace validates a read access path.
func (ex *explorer) readPlace(s *machineState, p mir.Place, sp source.Span, trace []string) {
	if !p.HasDeref() {
		if p.IsLocal() && s.cells[p.Local] == stateDead {
			// Reading a dead local directly: lowering artifacts make this
			// noisy; only pointer-mediated accesses are reported.
			return
		}
		return
	}
	// A deref: every pointee must be live.
	for root := range s.pointees[p.Local] {
		if root == p.Local {
			continue
		}
		switch s.cells[root] {
		case stateDead, stateMoved:
			ex.emit(ErrUseAfterFree, sp, trace,
				"pointer %s dereferences storage of %s after its lifetime ended",
				ex.body.Local(p.Local), ex.localName(root))
		case stateUninit:
			ex.emit(ErrUninitRead, sp, trace,
				"pointer %s reads uninitialized storage of %s",
				ex.body.Local(p.Local), ex.localName(root))
		}
	}
}

// writePlace validates a write access path and updates init state.
// dropsGlue reports whether the assigned value's type has drop glue (so
// overwriting uninitialized memory frees garbage — the Figure 6 shape).
func (ex *explorer) writePlace(s *machineState, p mir.Place, sp source.Span, trace []string, dropsGlue bool) {
	if p.IsLocal() {
		if s.cells[p.Local] == stateDead {
			s.cells[p.Local] = stateInit // defensive: lowering artifact
			return
		}
		s.cells[p.Local] = stateInit
		return
	}
	if p.HasDeref() {
		for root := range s.pointees[p.Local] {
			if root == p.Local {
				continue
			}
			if s.cells[root] == stateDead || s.cells[root] == stateMoved {
				ex.emit(ErrUseAfterFree, sp, trace,
					"pointer %s writes storage of %s after its lifetime ended",
					ex.body.Local(p.Local), ex.localName(root))
			}
			// Writing through a pointer to uninitialized memory with a
			// plain assignment drops the previous (garbage) value when the
			// written type has drop glue: the Figure 6 invalid free.
			if s.cells[root] == stateUninit && rootIsRawAlloc(ex.body, p.Local) {
				if dropsGlue {
					ex.emit(ErrInvalidFree, sp, trace,
						"assignment through %s drops an uninitialized previous value",
						ex.body.Local(p.Local))
				}
				s.cells[root] = stateInit
			}
		}
	}
}

func rootIsRawAlloc(body *mir.Body, l mir.LocalID) bool {
	_, isRaw := body.Local(l).Ty.(*types.RawPtr)
	return isRaw
}

// flowAssign updates dynamic points-to and guard transfer.
func (ex *explorer) flowAssign(s *machineState, st mir.Assign) {
	if !st.Place.IsLocal() {
		return
	}
	dest := st.Place.Local
	s.valueOf[dest] = dest // fresh value unless a move transfers an alias below
	setPointees := func(roots map[mir.LocalID]bool) {
		s.pointees[dest] = roots
	}
	switch rv := st.Rvalue.(type) {
	case mir.Ref:
		setPointees(ex.rootsOf(s, rv.Place))
	case mir.AddrOf:
		setPointees(ex.rootsOf(s, rv.Place))
	case mir.Use:
		if pl, ok := mir.OperandPlace(rv.X); ok && pl.IsLocal() {
			setPointees(copySet(s.pointees[pl.Local]))
			if g := s.guards[pl.Local]; g != "" {
				s.guards[dest] = g
				s.guards[pl.Local] = ""
			}
			// A move of a ptr::read duplicate carries the shared value
			// root along; plain moves keep identity (drop elaboration
			// already elides the source's drop).
			if mir.IsMove(rv.X) && s.valueOf[pl.Local] != pl.Local {
				s.valueOf[dest] = s.valueOf[pl.Local]
			}
			return
		}
		setPointees(nil)
	case mir.Cast:
		if pl, ok := mir.OperandPlace(rv.X); ok && pl.IsLocal() {
			setPointees(copySet(s.pointees[pl.Local]))
			return
		}
		setPointees(nil)
	default:
		setPointees(nil)
	}
}

func (ex *explorer) rootsOf(s *machineState, p mir.Place) map[mir.LocalID]bool {
	if !p.HasDeref() {
		return map[mir.LocalID]bool{p.Local: true}
	}
	return copySet(s.pointees[p.Local])
}

func copySet(m map[mir.LocalID]bool) map[mir.LocalID]bool {
	if m == nil {
		return nil
	}
	out := make(map[mir.LocalID]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// dynDrop executes a Drop terminator.
func (ex *explorer) dynDrop(s *machineState, p mir.Place, sp source.Span, trace []string) {
	if !p.IsLocal() {
		return
	}
	l := p.Local
	if root := s.valueOf[l]; root != l {
		// l holds a ptr::read duplicate: dropping it frees the shared
		// value, so the double-drop check runs against the value root.
		switch s.cells[root] {
		case stateMoved, stateDead:
			ex.emit(ErrDoubleDrop, sp, trace,
				"%s, a ptr::read duplicate of %s, dropped after that value was already freed (double drop)",
				ex.body.Local(l), ex.localName(root))
		default:
			s.cells[root] = stateMoved
		}
		if s.cells[l] == stateInit {
			s.cells[l] = stateMoved
		}
		ex.releaseGuard(s, l)
		return
	}
	switch s.cells[l] {
	case stateDead:
		ex.emit(ErrDoubleDrop, sp, trace, "%s dropped after its storage already ended", ex.body.Local(l))
	case stateMoved:
		ex.emit(ErrDoubleDrop, sp, trace, "%s dropped after being moved out (double drop)", ex.body.Local(l))
	case stateUninit:
		// Dropping never-initialized storage: invalid free when the type
		// has drop glue. Arguments start initialized so this is rare.
		ex.emit(ErrInvalidFree, sp, trace, "%s dropped while uninitialized", ex.body.Local(l))
	case stateInit:
		s.cells[l] = stateMoved // value gone; storage stays until StorageDead
	}
	ex.releaseGuard(s, l)
}

// dynCall models intrinsic calls.
func (ex *explorer) dynCall(s *machineState, c mir.Call, trace []string) {
	forwarding := c.Intrinsic == mir.IntrinsicUnwrap ||
		c.Intrinsic == mir.IntrinsicTryLock ||
		c.Intrinsic == mir.IntrinsicCondvarWait
	// Reads of arguments. A guard moved into an opaque callee is dropped
	// there (released); forwarding intrinsics transfer it to the dest
	// below instead.
	for _, a := range c.Args {
		if pl, ok := mir.OperandPlace(a); ok {
			ex.readPlace(s, pl, c.Span, trace)
			if mir.IsMove(a) && pl.IsLocal() {
				s.cells[pl.Local] = stateMoved
				if !forwarding {
					ex.transferGuardOut(s, pl.Local)
				}
			}
		}
	}
	if c.Dest.IsLocal() {
		s.cells[c.Dest.Local] = stateInit
		s.pointees[c.Dest.Local] = nil
		s.valueOf[c.Dest.Local] = c.Dest.Local
	}
	switch c.Intrinsic {
	case mir.IntrinsicLock, mir.IntrinsicRead, mir.IntrinsicWrite:
		if c.RecvPath == "" {
			return
		}
		if s.heldLocks[c.RecvPath] > 0 || ex.inheritedLocks[c.RecvPath] {
			ex.emit(ErrDeadlock, c.Span, trace,
				"acquiring %q while already held on this thread (double lock)", c.RecvPath)
			return
		}
		s.heldLocks[c.RecvPath]++
		if c.Dest.IsLocal() {
			s.guards[c.Dest.Local] = c.RecvPath
		}
	case mir.IntrinsicUnwrap, mir.IntrinsicTryLock:
		// Transfer the guard from arg0 to dest.
		if len(c.Args) > 0 {
			if pl, ok := mir.OperandPlace(c.Args[0]); ok && pl.IsLocal() {
				if g := s.guards[pl.Local]; g != "" {
					s.guards[pl.Local] = ""
					if c.Dest.IsLocal() {
						s.guards[c.Dest.Local] = g
					}
				}
				// Unwrap forwards aliases too.
				if c.Dest.IsLocal() {
					s.pointees[c.Dest.Local] = copySet(s.pointees[pl.Local])
				}
			}
		}
	case mir.IntrinsicCondvarWait:
		// Releases and reacquires: net effect transfers the guard.
		if len(c.Args) > 1 {
			if pl, ok := mir.OperandPlace(c.Args[1]); ok && pl.IsLocal() {
				if g := s.guards[pl.Local]; g != "" {
					s.guards[pl.Local] = ""
					if c.Dest.IsLocal() {
						s.guards[c.Dest.Local] = g
					}
				}
			}
		}
	case mir.IntrinsicAlloc:
		// Fresh uninitialized memory: a pseudo heap root with its own
		// lifecycle — uninit until an initializing write, unaffected by
		// the StorageDead of whatever stack temporary held the pointer.
		if c.Dest.IsLocal() {
			root := s.newHeapRoot()
			s.pointees[c.Dest.Local] = map[mir.LocalID]bool{root: true}
			s.cells[c.Dest.Local] = stateInit
		}
	case mir.IntrinsicPtrWrite:
		// ptr::write(p, v) initializes p's pointee without dropping the
		// previous value: every pointee root becomes initialized.
		if len(c.Args) > 0 {
			if pl, ok := mir.OperandPlace(c.Args[0]); ok && pl.IsLocal() {
				for root := range s.pointees[pl.Local] {
					if root == pl.Local {
						continue
					}
					if s.cells[root] == stateUninit || s.cells[root] == stateMoved {
						s.cells[root] = stateInit
					}
				}
			}
		}
	case mir.IntrinsicPtrRead:
		// ptr::read(p) reads through the pointer: uninitialized or dead
		// pointees surface here like any other dereference.
		if len(c.Args) > 0 {
			if pl, ok := mir.OperandPlace(c.Args[0]); ok && pl.IsLocal() {
				for root := range s.pointees[pl.Local] {
					if root == pl.Local {
						continue
					}
					switch s.cells[root] {
					case stateUninit:
						ex.emit(ErrUninitRead, c.Span, trace,
							"ptr::read through %s of uninitialized storage of %s",
							ex.localName(pl.Local), ex.localName(root))
					case stateDead:
						ex.emit(ErrUseAfterFree, c.Span, trace,
							"ptr::read through %s of storage of %s after its lifetime ended",
							ex.localName(pl.Local), ex.localName(root))
					}
				}
				// The result duplicates ownership of the pointee: record a
				// shared value root so dropping both copies is a double
				// drop. Only stack values participate — heap pseudo roots
				// are plain buffers here — and only an unambiguous single
				// root keeps the model deterministic.
				if c.Dest.IsLocal() {
					dup := mir.LocalID(-1)
					n := 0
					for root := range s.pointees[pl.Local] {
						if root != pl.Local && int(root) < len(ex.body.Locals) {
							n++
							if dup < 0 || root < dup {
								dup = root
							}
						}
					}
					if n == 1 {
						s.valueOf[c.Dest.Local] = s.valueOf[dup]
					}
				}
			}
		}
	case mir.IntrinsicDealloc:
		// dealloc/free ends the heap allocation's lifetime; later reads
		// through any alias are use-after-free. Only pseudo heap roots
		// die — freeing a stack pointer is a different bug class.
		if len(c.Args) > 0 {
			if pl, ok := mir.OperandPlace(c.Args[0]); ok && pl.IsLocal() {
				for root := range s.pointees[pl.Local] {
					if int(root) >= len(ex.body.Locals) {
						s.cells[root] = stateDead
					}
				}
			}
		}
	case mir.IntrinsicForget:
		// Already handled by the move of the argument.
	case mir.IntrinsicNone:
		ex.inlineCall(s, c, trace)
	}
}

// inlineCall explores a resolved callee body with the caller's held locks
// translated through the call's receiver path, surfacing
// caller-holds/callee-locks deadlocks dynamically.
func (ex *explorer) inlineCall(s *machineState, c mir.Call, trace []string) {
	if ex.bodies == nil || ex.callDepth >= ex.cfg.MaxCallDepth {
		return
	}
	calleeName := ""
	if c.Def != nil {
		calleeName = c.Def.Qualified
	} else {
		calleeName = c.Callee
	}
	callee, ok := ex.bodies[calleeName]
	if !ok || callee == ex.body {
		return
	}
	// Translate held lock identities into the callee's namespace.
	inherited := map[string]bool{}
	addTranslated := func(h string) {
		switch {
		case strings.HasPrefix(h, "static "):
			inherited[h] = true
		case c.RecvPath != "" && h == c.RecvPath:
			inherited["self"] = true
		case c.RecvPath != "" && strings.HasPrefix(h, c.RecvPath+"."):
			inherited["self."+h[len(c.RecvPath)+1:]] = true
		}
	}
	for h, n := range s.heldLocks {
		if n > 0 {
			addTranslated(h)
		}
	}
	for h := range ex.inheritedLocks {
		// Already in this frame's namespace: re-translate relative to the
		// receiver of the nested call.
		addTranslated(h)
	}
	if len(inherited) == 0 {
		return // no lock context to propagate: the callee is covered by its own root exploration
	}
	sub := &explorer{
		body:           callee,
		cfg:            ex.cfg,
		res:            ex.res, // findings accumulate on the root result
		bodies:         ex.bodies,
		callDepth:      ex.callDepth + 1,
		inheritedLocks: inherited,
	}
	sub.explore(newState(callee), 0, append(trace, "call "+calleeName), 0)
}

// releaseGuard releases the lock a local's guard holds, if any.
func (ex *explorer) releaseGuard(s *machineState, l mir.LocalID) {
	if g := s.guards[l]; g != "" {
		if s.heldLocks[g] > 0 {
			s.heldLocks[g]--
		}
		s.guards[l] = ""
	}
}

// transferGuardOut drops guard tracking when the holder is consumed by a
// move into an opaque sink (the value's new owner releases it eventually;
// we conservatively release now to avoid false deadlocks).
func (ex *explorer) transferGuardOut(s *machineState, l mir.LocalID) {
	ex.releaseGuard(s, l)
}

// dedupe removes duplicate errors (same kind+span) found on different
// paths, keeping the shortest trace.
func dedupe(r *Result) {
	best := map[string]DynamicError{}
	for _, e := range r.Errors {
		key := string(e.Kind) + "@" + fmt.Sprint(e.Span.Start)
		if prev, ok := best[key]; !ok || len(e.Trace) < len(prev.Trace) {
			best[key] = e
		}
	}
	out := make([]DynamicError, 0, len(best))
	for _, e := range best {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Span.Start != out[j].Span.Start {
			return out[i].Span.Start < out[j].Span.Start
		}
		return out[i].Kind < out[j].Kind
	})
	r.Errors = out
}

// RunAll explores every body (with cross-body call inlining) and merges
// the results.
func RunAll(bodies map[string]*mir.Body, cfg Config) []*Result {
	names := make([]string, 0, len(bodies))
	for n := range bodies {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []*Result
	for _, n := range names {
		out = append(out, RunWith(bodies[n], cfg, bodies))
	}
	return out
}
