// Package lower translates resolved AST function bodies into MIR. The
// translation performs drop elaboration (every owned local gets a Drop and
// StorageDead at the end of its scope, in reverse declaration order),
// tracks ownership moves so moved-out locals are not double-dropped, and
// implements rustc's temporary-lifetime rule for match scrutinees and if
// conditions — the rule whose misunderstanding causes the double-lock bugs
// of §6.1.
package lower

import (
	"fmt"

	"rustprobe/internal/hir"
	"rustprobe/internal/mir"
	"rustprobe/internal/source"
	"rustprobe/internal/types"
)

// Program lowers every function with a body and returns bodies keyed by
// qualified name. Closures become extra bodies named "<owner>::closure#N".
func Program(prog *hir.Program, diags *source.Diagnostics) map[string]*mir.Body {
	out := make(map[string]*mir.Body, len(prog.Funcs))
	for _, fd := range prog.SortedFuncs() {
		if fd.Syntax == nil || fd.Syntax.Body == nil {
			continue
		}
		lowerInto(prog, diags, fd, out)
	}
	return out
}

// Funcs lowers the named functions, in the order given, skipping names
// without a body (closures ride with their owner). Incremental sessions
// use it to re-lower just the functions whose source changed, merging
// the result with bodies reused from the previous round.
func Funcs(prog *hir.Program, diags *source.Diagnostics, names []string) map[string]*mir.Body {
	out := map[string]*mir.Body{}
	for _, q := range names {
		if fd := prog.Funcs[q]; fd != nil && fd.Syntax != nil && fd.Syntax.Body != nil {
			lowerInto(prog, diags, fd, out)
		}
	}
	return out
}

// Func lowers a single function (plus its closures) and returns its body.
func Func(prog *hir.Program, diags *source.Diagnostics, fd *hir.FuncDef) *mir.Body {
	out := map[string]*mir.Body{}
	lowerInto(prog, diags, fd, out)
	return out[fd.Qualified]
}

func lowerInto(prog *hir.Program, diags *source.Diagnostics, fd *hir.FuncDef, out map[string]*mir.Body) {
	b := newBuilder(prog, diags, fd, out)
	body := b.lowerFn()
	out[fd.Qualified] = body
}

// scopeKind classifies drop scopes.
type scopeKind int

const (
	scopeFn scopeKind = iota
	scopeBlock
	scopeStmt // temporaries of one statement
	scopeTail // match-scrutinee / if-condition temporaries (live to join)
	scopeLoop // loop body boundary for break/continue unwinding
	scopeArm  // match arm / if branch
)

type scope struct {
	kind   scopeKind
	locals []mir.LocalID // declaration order; dropped in reverse
}

type loopCtx struct {
	label      string
	breakBlock mir.BlockID
	contBlock  mir.BlockID
	result     mir.LocalID // destination of `break value` for loop exprs
	scopeDepth int         // scopes above (and including) the loop scope
}

type builder struct {
	prog  *hir.Program
	diags *source.Diagnostics
	fd    *hir.FuncDef
	body  *mir.Body
	out   map[string]*mir.Body

	cur       *mir.Block
	scopes    []*scope
	vars      []map[string]mir.LocalID // lexical frames for name lookup
	loops     []*loopCtx
	moved     map[mir.LocalID]bool // locals whose value has been moved out
	statics   map[string]mir.LocalID
	exitBlock *mir.Block
	nclosures int

	// terminated is set after return/break/continue so trailing lowering
	// in the same block appends to a fresh unreachable block.
	terminated bool
}

func newBuilder(prog *hir.Program, diags *source.Diagnostics, fd *hir.FuncDef, out map[string]*mir.Body) *builder {
	return &builder{
		prog:    prog,
		diags:   diags,
		fd:      fd,
		out:     out,
		moved:   map[mir.LocalID]bool{},
		statics: map[string]mir.LocalID{},
	}
}

func (b *builder) lowerFn() *mir.Body {
	b.body = &mir.Body{Func: b.fd, Span: b.fd.Span}
	// Local 0: return place.
	b.body.NewLocal("", b.fd.Ret, false, b.fd.Span)
	b.cur = b.body.NewBlock()
	b.exitBlock = b.body.NewBlock()
	b.exitBlock.Term = mir.Return{Span: b.fd.Span}

	b.pushVarFrame()
	b.pushScope(scopeFn)

	// Arguments. By-value parameters are owned by the function and drop
	// at its end like any other local.
	fnScope := b.scopes[len(b.scopes)-1]
	for _, p := range b.fd.Params {
		l := b.body.NewLocal(p.Name, p.Ty, false, b.fd.Span)
		l.IsArg = true
		b.body.ArgCount++
		fnScope.locals = append(fnScope.locals, l.ID)
		if p.Name != "" {
			b.defineVar(p.Name, l.ID)
		}
		if p.Pat != nil {
			// Destructuring parameter pattern: bind sub-names to
			// projections of the argument.
			b.bindPattern(p.Pat, mir.PlaceOf(l.ID), p.Ty, false)
		}
	}

	astBody := b.fd.Syntax.Body
	op, ty := b.lowerBlock(astBody, astBody.Unsafety)
	if !b.terminated {
		if op != nil && !isUnit(ty) {
			b.emit(mir.Assign{Place: mir.PlaceOf(mir.ReturnLocal), Rvalue: mir.Use{X: op}, Span: astBody.Sp})
		}
		b.popScopeEmit(astBody.Sp)
		b.setTerm(mir.Goto{Target: b.exitBlock.ID, Span: astBody.Sp})
	} else {
		b.scopes = b.scopes[:len(b.scopes)-1]
	}
	b.popVarFrame()
	return b.body
}

func isUnit(t types.Type) bool {
	p, ok := t.(*types.Prim)
	return ok && p.Kind == types.Unit
}

// --- scope and variable plumbing -------------------------------------------

func (b *builder) pushScope(k scopeKind) *scope {
	s := &scope{kind: k}
	b.scopes = append(b.scopes, s)
	return s
}

// popScopeEmit pops the innermost scope, emitting Drop+StorageDead for its
// locals in reverse declaration order.
func (b *builder) popScopeEmit(sp source.Span) {
	s := b.scopes[len(b.scopes)-1]
	b.scopes = b.scopes[:len(b.scopes)-1]
	if !b.terminated {
		b.emitScopeExit(s, sp)
	}
}

func (b *builder) emitScopeExit(s *scope, sp source.Span) {
	for i := len(s.locals) - 1; i >= 0; i-- {
		id := s.locals[i]
		l := b.body.Local(id)
		if types.NeedsDrop(l.Ty) && !b.moved[id] {
			next := b.body.NewBlock()
			b.setTerm(mir.Drop{Place: mir.PlaceOf(id), Target: next.ID, Span: sp})
			b.cur = next
		}
		b.emit(mir.StorageDead{Local: id, Span: sp})
	}
}

// unwindTo emits scope exits for every scope deeper than depth without
// popping them (used by return/break/continue which jump out of scopes).
func (b *builder) unwindTo(depth int, sp source.Span) {
	for i := len(b.scopes) - 1; i >= depth; i-- {
		b.emitScopeExit(b.scopes[i], sp)
	}
}

func (b *builder) pushVarFrame() { b.vars = append(b.vars, map[string]mir.LocalID{}) }
func (b *builder) popVarFrame()  { b.vars = b.vars[:len(b.vars)-1] }

func (b *builder) defineVar(name string, id mir.LocalID) {
	b.vars[len(b.vars)-1][name] = id
}

func (b *builder) lookupVar(name string) (mir.LocalID, bool) {
	for i := len(b.vars) - 1; i >= 0; i-- {
		if id, ok := b.vars[i][name]; ok {
			return id, true
		}
	}
	return 0, false
}

// newNamed allocates a user variable local, registered in the innermost
// non-stmt scope (so let-bound variables outlive the statement).
func (b *builder) newNamed(name string, ty types.Type, sp source.Span) mir.LocalID {
	l := b.body.NewLocal(name, ty, false, sp)
	b.emit(mir.StorageLive{Local: l.ID, Span: sp})
	for i := len(b.scopes) - 1; i >= 0; i-- {
		k := b.scopes[i].kind
		if k != scopeStmt && k != scopeTail {
			b.scopes[i].locals = append(b.scopes[i].locals, l.ID)
			break
		}
	}
	b.defineVar(name, l.ID)
	return l.ID
}

// newTemp allocates a compiler temporary in the innermost scope.
func (b *builder) newTemp(ty types.Type, sp source.Span) mir.LocalID {
	l := b.body.NewLocal("", ty, true, sp)
	b.emit(mir.StorageLive{Local: l.ID, Span: sp})
	s := b.scopes[len(b.scopes)-1]
	s.locals = append(s.locals, l.ID)
	return l.ID
}

func (b *builder) emit(st mir.Statement) {
	if b.terminated {
		return
	}
	b.cur.Stmts = append(b.cur.Stmts, st)
}

func (b *builder) setTerm(t mir.Terminator) {
	if b.terminated {
		return
	}
	if b.cur.Term != nil {
		return
	}
	b.cur.Term = t
}

// startBlock begins lowering into blk, clearing the terminated flag.
func (b *builder) startBlock(blk *mir.Block) {
	b.cur = blk
	b.terminated = false
}

// markMoved records that a whole local's value moved out, suppressing its
// scope-end drop. Projections (moving a field) keep the parent's drop: our
// corpus never partially moves droppable structs.
func (b *builder) markMoved(p mir.Place) {
	if p.IsLocal() {
		b.moved[p.Local] = true
	}
}

// operandFor wraps a place read as Move or Copy according to its type, and
// records moves.
func (b *builder) operandFor(p mir.Place, ty types.Type) mir.Operand {
	if types.IsCopy(ty) {
		return mir.Copy{Place: p}
	}
	b.markMoved(p)
	return mir.Move{Place: p}
}

// staticLocal returns (allocating on first use) the pseudo-local standing
// for a static item; statics are never storage-dead.
func (b *builder) staticLocal(name string, ty types.Type) mir.LocalID {
	if id, ok := b.statics[name]; ok {
		return id
	}
	l := b.body.NewLocal("static "+name, ty, false, source.Span{})
	b.statics[name] = l.ID
	return l.ID
}

func (b *builder) closureName() string {
	b.nclosures++
	return fmt.Sprintf("%s::closure#%d", b.fd.Qualified, b.nclosures-1)
}
