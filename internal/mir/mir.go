// Package mir defines rustprobe's mid-level intermediate representation,
// modeled on rustc's MIR: a control-flow graph of basic blocks over a flat
// list of locals, with explicit StorageLive/StorageDead statements and Drop
// terminators. The paper's detectors (§7) are lifetime/ownership analyses
// over exactly these facts.
package mir

import (
	"fmt"
	"strings"

	"rustprobe/internal/hir"
	"rustprobe/internal/source"
	"rustprobe/internal/types"
)

// LocalID indexes Body.Locals. Local 0 is always the return place.
type LocalID int

// ReturnLocal is the LocalID of the return place.
const ReturnLocal LocalID = 0

// BlockID indexes Body.Blocks.
type BlockID int

// InvalidBlock marks a missing block target.
const InvalidBlock BlockID = -1

// Local is one MIR local: an argument, user variable, or temporary.
type Local struct {
	ID     LocalID
	Name   string // user-visible name; "" for temporaries
	Ty     types.Type
	IsArg  bool
	IsTemp bool
	// IsCapture marks the pseudo-arguments of a closure body that stand
	// for its captured variables; they share the captured local's name.
	IsCapture bool
	Span      source.Span
}

func (l *Local) String() string {
	if l.Name != "" {
		return fmt.Sprintf("_%d(%s)", l.ID, l.Name)
	}
	return fmt.Sprintf("_%d", l.ID)
}

// Body is the MIR of one function.
type Body struct {
	Func     *hir.FuncDef
	Locals   []*Local
	Blocks   []*Block
	ArgCount int
	// Captures lists, for closure bodies, the names of the enclosing-
	// function variables the closure captures (in first-use order). The
	// same names appear as trailing IsCapture arguments so capture-rooted
	// paths translate across the spawn boundary like ordinary parameters.
	Captures []string
	Span     source.Span
}

// Local returns the local with the given id.
func (b *Body) Local(id LocalID) *Local { return b.Locals[id] }

// Block returns the block with the given id.
func (b *Body) Block(id BlockID) *Block { return b.Blocks[id] }

// NewLocal appends a local and returns it.
func (b *Body) NewLocal(name string, ty types.Type, isTemp bool, sp source.Span) *Local {
	l := &Local{ID: LocalID(len(b.Locals)), Name: name, Ty: ty, IsTemp: isTemp, Span: sp}
	b.Locals = append(b.Locals, l)
	return l
}

// NewBlock appends an empty block and returns it.
func (b *Body) NewBlock() *Block {
	blk := &Block{ID: BlockID(len(b.Blocks))}
	b.Blocks = append(b.Blocks, blk)
	return blk
}

// Block is one basic block: straight-line statements plus a terminator.
type Block struct {
	ID    BlockID
	Stmts []Statement
	Term  Terminator
}

// ---------------------------------------------------------------------------
// Places

// Projection is one step of a place path.
type Projection interface {
	projString() string
}

// DerefProj dereferences a reference or raw pointer.
type DerefProj struct{}

func (DerefProj) projString() string { return ".*" }

// FieldProj projects a named (or numbered, for tuples) field.
type FieldProj struct {
	Name string
	Ty   types.Type
}

func (f FieldProj) projString() string { return "." + f.Name }

// IndexProj projects an element of a slice/array/Vec; the index operand is
// deliberately not tracked (all elements alias for analysis purposes).
type IndexProj struct{}

func (IndexProj) projString() string { return "[_]" }

// Place names a memory location: a local plus a projection path.
type Place struct {
	Local LocalID
	Proj  []Projection
}

// PlaceOf builds a projection-free place.
func PlaceOf(l LocalID) Place { return Place{Local: l} }

// WithProj returns a copy of p with one more projection appended.
func (p Place) WithProj(pr Projection) Place {
	proj := make([]Projection, len(p.Proj)+1)
	copy(proj, p.Proj)
	proj[len(p.Proj)] = pr
	return Place{Local: p.Local, Proj: proj}
}

// IsLocal reports whether the place is a bare local.
func (p Place) IsLocal() bool { return len(p.Proj) == 0 }

// HasDeref reports whether the place path goes through a dereference.
func (p Place) HasDeref() bool {
	for _, pr := range p.Proj {
		if _, ok := pr.(DerefProj); ok {
			return true
		}
	}
	return false
}

// String renders the place in rustc-like notation (e.g. `(_1.value).*`).
func (p Place) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "_%d", p.Local)
	for _, pr := range p.Proj {
		b.WriteString(pr.projString())
	}
	return b.String()
}

// Key renders a stable identity string for alias bookkeeping; two places
// with equal keys name the same path.
func (p Place) Key() string { return p.String() }

// Base returns the place stripped of trailing projections after the last
// deref, i.e. the shallowest prefix that still determines the storage.
func (p Place) Base() Place { return Place{Local: p.Local} }

// ---------------------------------------------------------------------------
// Operands and rvalues

// Operand is a value consumed by an rvalue or call.
type Operand interface {
	operandString() string
}

// Copy reads a place without invalidating it.
type Copy struct{ Place Place }

func (c Copy) operandString() string { return "copy " + c.Place.String() }

// Move reads a place and transfers ownership out of it.
type Move struct{ Place Place }

func (m Move) operandString() string { return "move " + m.Place.String() }

// Const is a literal or path constant.
type Const struct {
	Text string
	Ty   types.Type
}

func (c Const) operandString() string { return "const " + c.Text }

// OperandPlace extracts the place read by an operand, if any.
func OperandPlace(op Operand) (Place, bool) {
	switch op := op.(type) {
	case Copy:
		return op.Place, true
	case Move:
		return op.Place, true
	default:
		return Place{}, false
	}
}

// IsMove reports whether the operand is a move.
func IsMove(op Operand) bool {
	_, ok := op.(Move)
	return ok
}

// ClosureLocals maps locals holding a closure value to the closure body
// name, propagated through moves so `let cl = || ...; spawn(cl)` resolves.
func ClosureLocals(body *Body) map[LocalID]string {
	out := map[LocalID]string{}
	changed := true
	for changed {
		changed = false
		for _, blk := range body.Blocks {
			for _, st := range blk.Stmts {
				as, ok := st.(Assign)
				if !ok || !as.Place.IsLocal() {
					continue
				}
				if _, done := out[as.Place.Local]; done {
					continue
				}
				switch rv := as.Rvalue.(type) {
				case Aggregate:
					if rv.Kind == AggClosure {
						out[as.Place.Local] = rv.Name
						changed = true
					}
				case Use:
					if pl, ok := OperandPlace(rv.X); ok && pl.IsLocal() {
						if cn, has := out[pl.Local]; has {
							out[as.Place.Local] = cn
							changed = true
						}
					}
				}
			}
		}
	}
	return out
}

// ParamNames returns the names of body's parameter locals in order; nil
// for a nil body.
func ParamNames(body *Body) []string {
	if body == nil {
		return nil
	}
	out := make([]string, 0, body.ArgCount)
	for i := 1; i <= body.ArgCount && i < len(body.Locals); i++ {
		out = append(out, body.Locals[i].Name)
	}
	return out
}

// MethodName returns the last path segment of a callee name
// ("Vec::push" → "push").
func MethodName(callee string) string {
	if i := strings.LastIndex(callee, "::"); i >= 0 {
		return callee[i+2:]
	}
	return callee
}

// Rvalue is the right-hand side of an assignment.
type Rvalue interface {
	rvalueString() string
}

// Use forwards an operand.
type Use struct{ X Operand }

func (u Use) rvalueString() string { return u.X.operandString() }

// Ref takes a reference to a place (`&p` / `&mut p`).
type Ref struct {
	Mut   bool
	Place Place
}

func (r Ref) rvalueString() string {
	if r.Mut {
		return "&mut " + r.Place.String()
	}
	return "&" + r.Place.String()
}

// AddrOf takes a raw pointer to a place (`&p as *const T` chains and
// `ptr::addr_of!`).
type AddrOf struct {
	Mut   bool
	Place Place
}

func (a AddrOf) rvalueString() string {
	if a.Mut {
		return "&raw mut " + a.Place.String()
	}
	return "&raw const " + a.Place.String()
}

// Cast converts an operand to another type. Pointer-to-pointer casts
// preserve points-to facts.
type Cast struct {
	X  Operand
	To types.Type
}

func (c Cast) rvalueString() string { return c.X.operandString() + " as " + c.To.String() }

// BinaryOp applies a binary operation.
type BinaryOp struct {
	Op   string
	L, R Operand
}

func (b BinaryOp) rvalueString() string {
	return fmt.Sprintf("%s(%s, %s)", b.Op, b.L.operandString(), b.R.operandString())
}

// UnaryOp applies a unary operation.
type UnaryOp struct {
	Op string
	X  Operand
}

func (u UnaryOp) rvalueString() string { return fmt.Sprintf("%s(%s)", u.Op, u.X.operandString()) }

// AggregateKind classifies an aggregate construction.
type AggregateKind int

// Aggregate kinds.
const (
	AggStruct AggregateKind = iota
	AggTuple
	AggArray
	AggVariant
	AggClosure
)

// Aggregate builds a struct, tuple, array, enum variant, or closure.
type Aggregate struct {
	Kind   AggregateKind
	Name   string // struct or "Enum::Variant" name
	Fields []string
	Ops    []Operand
}

func (a Aggregate) rvalueString() string {
	parts := make([]string, len(a.Ops))
	for i, op := range a.Ops {
		if i < len(a.Fields) && a.Fields[i] != "" {
			parts[i] = a.Fields[i] + ": " + op.operandString()
		} else {
			parts[i] = op.operandString()
		}
	}
	name := a.Name
	if name == "" {
		name = "tuple"
	}
	return name + " { " + strings.Join(parts, ", ") + " }"
}

// Discriminant reads an enum discriminant for switching.
type Discriminant struct{ Place Place }

func (d Discriminant) rvalueString() string { return "discriminant(" + d.Place.String() + ")" }

// ForEachOperandPlace calls f with the place of each Copy or Move operand
// rv reads, in operand order. Ref, AddrOf and Discriminant name a place
// without an operand; each caller decides whether those count as reads.
func ForEachOperandPlace(rv Rvalue, f func(Place)) {
	visit := func(op Operand) {
		if pl, ok := OperandPlace(op); ok {
			f(pl)
		}
	}
	switch rv := rv.(type) {
	case Use:
		visit(rv.X)
	case Cast:
		visit(rv.X)
	case BinaryOp:
		visit(rv.L)
		visit(rv.R)
	case UnaryOp:
		visit(rv.X)
	case Aggregate:
		for _, op := range rv.Ops {
			visit(op)
		}
	}
}

// ---------------------------------------------------------------------------
// Statements

// Statement is a non-terminator MIR statement.
type Statement interface {
	stmtString() string
	StmtSpan() source.Span
}

// StorageLive marks the start of a local's live storage range.
type StorageLive struct {
	Local LocalID
	Span  source.Span
}

func (s StorageLive) stmtString() string { return fmt.Sprintf("StorageLive(_%d)", s.Local) }

// StmtSpan implements Statement.
func (s StorageLive) StmtSpan() source.Span { return s.Span }

// StorageDead marks the end of a local's live storage range; reading memory
// owned by the local (directly or through pointers) after this point is a
// use-after-free.
type StorageDead struct {
	Local LocalID
	Span  source.Span
}

func (s StorageDead) stmtString() string { return fmt.Sprintf("StorageDead(_%d)", s.Local) }

// StmtSpan implements Statement.
func (s StorageDead) StmtSpan() source.Span { return s.Span }

// Assign writes an rvalue to a place.
type Assign struct {
	Place  Place
	Rvalue Rvalue
	Span   source.Span
}

func (a Assign) stmtString() string { return a.Place.String() + " = " + a.Rvalue.rvalueString() }

// StmtSpan implements Statement.
func (a Assign) StmtSpan() source.Span { return a.Span }

// AssignedType returns the type of the value an assignment stores: the
// declared type of a used place's base local, a constant's type, or the
// named type an aggregate builds. Other rvalues yield types.UnknownType.
func AssignedType(b *Body, as Assign) types.Type {
	switch rv := as.Rvalue.(type) {
	case Use:
		switch op := rv.X.(type) {
		case Copy:
			return b.Local(op.Place.Local).Ty
		case Move:
			return b.Local(op.Place.Local).Ty
		case Const:
			return op.Ty
		}
	case Aggregate:
		return types.NamedOf(rv.Name)
	}
	return types.UnknownType
}

// Nop is an erased statement.
type Nop struct{ Span source.Span }

func (n Nop) stmtString() string { return "nop" }

// StmtSpan implements Statement.
func (n Nop) StmtSpan() source.Span { return n.Span }

// ---------------------------------------------------------------------------
// Terminators

// Terminator ends a basic block.
type Terminator interface {
	termString() string
	Successors() []BlockID
	TermSpan() source.Span
}

// Goto jumps unconditionally.
type Goto struct {
	Target BlockID
	Span   source.Span
}

func (g Goto) termString() string { return fmt.Sprintf("goto -> bb%d", g.Target) }

// Successors implements Terminator.
func (g Goto) Successors() []BlockID { return []BlockID{g.Target} }

// TermSpan implements Terminator.
func (g Goto) TermSpan() source.Span { return g.Span }

// SwitchTarget is one value arm of a SwitchInt.
type SwitchTarget struct {
	Value string // matched constant / variant name; "" unused
	Block BlockID
}

// SwitchInt branches on an operand.
type SwitchInt struct {
	Disc      Operand
	Targets   []SwitchTarget
	Otherwise BlockID
	Span      source.Span
}

func (s SwitchInt) termString() string {
	parts := make([]string, 0, len(s.Targets)+1)
	for _, t := range s.Targets {
		parts = append(parts, fmt.Sprintf("%s: bb%d", t.Value, t.Block))
	}
	if s.Otherwise != InvalidBlock {
		parts = append(parts, fmt.Sprintf("otherwise: bb%d", s.Otherwise))
	}
	return fmt.Sprintf("switchInt(%s) -> [%s]", s.Disc.operandString(), strings.Join(parts, ", "))
}

// Successors implements Terminator.
func (s SwitchInt) Successors() []BlockID {
	var out []BlockID
	for _, t := range s.Targets {
		out = append(out, t.Block)
	}
	if s.Otherwise != InvalidBlock {
		out = append(out, s.Otherwise)
	}
	return out
}

// TermSpan implements Terminator.
func (s SwitchInt) TermSpan() source.Span { return s.Span }

// Intrinsic identifies a modeled std function with special semantics.
type Intrinsic int

// Modeled intrinsics; see lower/intrinsics.go for the name table.
const (
	IntrinsicNone        Intrinsic = iota
	IntrinsicLock                  // Mutex::lock -> MutexGuard
	IntrinsicRead                  // RwLock::read -> RwLockReadGuard
	IntrinsicWrite                 // RwLock::write -> RwLockWriteGuard
	IntrinsicTryLock               // try_lock/try_read/try_write (non-blocking)
	IntrinsicDrop                  // mem::drop / drop
	IntrinsicForget                // mem::forget
	IntrinsicBoxNew                // Box::new and friends: heap-owning ctor
	IntrinsicArcClone              // Arc::clone / Rc::clone: alias, not move
	IntrinsicPtrRead               // ptr::read: duplicates ownership
	IntrinsicPtrWrite              // ptr::write: writes without dropping dest
	IntrinsicAlloc                 // alloc(): fresh uninitialized memory
	IntrinsicDealloc               // dealloc/free
	IntrinsicAsPtr                 // as_ptr/as_mut_ptr: pointer derived from recv
	IntrinsicUnwrap                // Result/Option unwrap/expect: forwards inner
	IntrinsicClone                 // .clone(): fresh value, no alias
	IntrinsicCondvarWait           // Condvar::wait(guard): releases+reacquires
	IntrinsicChanSend
	IntrinsicChanRecv
	IntrinsicSpawn        // thread::spawn
	IntrinsicGetUnchecked // slice::get_unchecked
	IntrinsicTransmute
	IntrinsicFromRaw // Box/Arc/CString::from_raw: adopts ownership of ptr
	IntrinsicIntoRaw // into_raw: releases ownership as pointer
)

// channelCtors are the std channel constructors. Lowering gives their
// calls a (Sender, Receiver) tuple result, and the blocking detector takes
// a call to one as the provenance of a channel's two halves.
var channelCtors = map[string]bool{
	"channel::unbounded": true,
	"mpsc::channel":      true,
	"mpsc::sync_channel": true,
}

// IsChannelCtor reports whether callee names a std channel constructor.
func IsChannelCtor(callee string) bool { return channelCtors[callee] }

// Call invokes a function and, when it returns, stores the result to Dest
// and continues at Target.
type Call struct {
	Callee    string       // display/qualified name
	Def       *hir.FuncDef // resolved callee, if known
	Intrinsic Intrinsic
	Args      []Operand
	Dest      Place
	Target    BlockID
	Span      source.Span
	// RecvPath is the source-level path of the receiver for lock
	// intrinsics ("self.client", "queue"), used as the lock identity.
	RecvPath string
}

func (c Call) termString() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.operandString()
	}
	return fmt.Sprintf("%s = %s(%s) -> bb%d", c.Dest.String(), c.Callee, strings.Join(parts, ", "), c.Target)
}

// Successors implements Terminator.
func (c Call) Successors() []BlockID { return []BlockID{c.Target} }

// TermSpan implements Terminator.
func (c Call) TermSpan() source.Span { return c.Span }

// Drop runs a place's destructor; for lock guards this is the unlock point,
// for owning containers the free point.
type Drop struct {
	Place  Place
	Target BlockID
	Span   source.Span
}

func (d Drop) termString() string { return fmt.Sprintf("drop(%s) -> bb%d", d.Place.String(), d.Target) }

// Successors implements Terminator.
func (d Drop) Successors() []BlockID { return []BlockID{d.Target} }

// TermSpan implements Terminator.
func (d Drop) TermSpan() source.Span { return d.Span }

// Return ends the function.
type Return struct{ Span source.Span }

func (r Return) termString() string { return "return" }

// Successors implements Terminator.
func (r Return) Successors() []BlockID { return nil }

// TermSpan implements Terminator.
func (r Return) TermSpan() source.Span { return r.Span }

// Unreachable marks dead control flow.
type Unreachable struct{ Span source.Span }

func (u Unreachable) termString() string { return "unreachable" }

// Successors implements Terminator.
func (u Unreachable) Successors() []BlockID { return nil }

// TermSpan implements Terminator.
func (u Unreachable) TermSpan() source.Span { return u.Span }

// ---------------------------------------------------------------------------
// Printing

// String renders the body in rustc's MIR dump style; tests snapshot this.
func (b *Body) String() string {
	var sb strings.Builder
	name := "?"
	if b.Func != nil {
		name = b.Func.Qualified
	}
	fmt.Fprintf(&sb, "fn %s {\n", name)
	for _, l := range b.Locals {
		role := ""
		switch {
		case l.ID == ReturnLocal:
			role = " // return place"
		case l.IsArg:
			role = " // arg"
		case l.IsTemp:
			role = " // temp"
		}
		name := ""
		if l.Name != "" {
			name = " " + l.Name
		}
		fmt.Fprintf(&sb, "    let _%d: %s;%s%s\n", l.ID, l.Ty, role, name)
	}
	for _, blk := range b.Blocks {
		fmt.Fprintf(&sb, "  bb%d:\n", blk.ID)
		for _, st := range blk.Stmts {
			fmt.Fprintf(&sb, "    %s\n", st.stmtString())
		}
		if blk.Term != nil {
			fmt.Fprintf(&sb, "    %s\n", blk.Term.termString())
		} else {
			sb.WriteString("    <no terminator>\n")
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
