// Package types defines the semantic type representation used by lowering
// and the MIR analyses. It is deliberately simpler than rustc's: generic
// parameters erase to Unknown unless instantiated syntactically, which is
// sufficient for the ownership/lifetime facts the paper's detectors need.
package types

import (
	"fmt"
	"strings"
)

// Type is the interface implemented by all semantic types.
type Type interface {
	String() string
	isType()
}

// PrimKind enumerates primitive types.
type PrimKind int

// Primitive kinds.
const (
	Unit PrimKind = iota
	Bool
	Char
	Str // the unsized str type; &str is Ref{Elem: Prim(Str)}
	I8
	I16
	I32
	I64
	I128
	ISize
	U8
	U16
	U32
	U64
	U128
	USize
	F32
	F64
)

var primNames = map[PrimKind]string{
	Unit: "()", Bool: "bool", Char: "char", Str: "str",
	I8: "i8", I16: "i16", I32: "i32", I64: "i64", I128: "i128", ISize: "isize",
	U8: "u8", U16: "u16", U32: "u32", U64: "u64", U128: "u128", USize: "usize",
	F32: "f32", F64: "f64",
}

// PrimByName maps a source-level name to its primitive kind.
var PrimByName = func() map[string]PrimKind {
	m := make(map[string]PrimKind, len(primNames))
	for k, v := range primNames {
		m[v] = k
	}
	return m
}()

// Prim is a primitive type.
type Prim struct{ Kind PrimKind }

func (p *Prim) isType() {}

func (p *Prim) String() string { return primNames[p.Kind] }

// IsInteger reports whether the primitive is an integer type.
func (p *Prim) IsInteger() bool { return p.Kind >= I8 && p.Kind <= USize }

// Named is a nominal type: a user struct/enum or a known library type
// (Vec, Box, Arc, Rc, Mutex, RwLock, Option, Result, ...), possibly with
// type arguments.
type Named struct {
	Name string
	Args []Type
}

func (n *Named) isType() {}

func (n *Named) String() string {
	if len(n.Args) == 0 {
		return n.Name
	}
	parts := make([]string, len(n.Args))
	for i, a := range n.Args {
		parts[i] = a.String()
	}
	return n.Name + "<" + strings.Join(parts, ", ") + ">"
}

// Arg returns the i'th type argument or Unknown.
func (n *Named) Arg(i int) Type {
	if i < len(n.Args) {
		return n.Args[i]
	}
	return UnknownType
}

// Ref is `&T` / `&mut T`.
type Ref struct {
	Mut  bool
	Elem Type
}

func (r *Ref) isType() {}

func (r *Ref) String() string {
	if r.Mut {
		return "&mut " + r.Elem.String()
	}
	return "&" + r.Elem.String()
}

// RawPtr is `*const T` / `*mut T`.
type RawPtr struct {
	Mut  bool
	Elem Type
}

func (r *RawPtr) isType() {}

func (r *RawPtr) String() string {
	if r.Mut {
		return "*mut " + r.Elem.String()
	}
	return "*const " + r.Elem.String()
}

// Tuple is `(A, B, ...)`.
type Tuple struct{ Elems []Type }

func (t *Tuple) isType() {}

func (t *Tuple) String() string {
	parts := make([]string, len(t.Elems))
	for i, e := range t.Elems {
		parts[i] = e.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Slice is `[T]`.
type Slice struct{ Elem Type }

func (s *Slice) isType() {}

func (s *Slice) String() string { return "[" + s.Elem.String() + "]" }

// Array is `[T; N]`; N is kept only when syntactically constant.
type Array struct {
	Elem Type
	Len  int // -1 when unknown
}

func (a *Array) isType() {}

func (a *Array) String() string {
	if a.Len >= 0 {
		return fmt.Sprintf("[%s; %d]", a.Elem, a.Len)
	}
	return "[" + a.Elem.String() + "; _]"
}

// Fn is a function type (used for closures and fn pointers).
type Fn struct {
	Params []Type
	Ret    Type
}

func (f *Fn) isType() {}

func (f *Fn) String() string {
	parts := make([]string, len(f.Params))
	for i, p := range f.Params {
		parts[i] = p.String()
	}
	return "fn(" + strings.Join(parts, ", ") + ") -> " + f.Ret.String()
}

// Unknown is the bottom of our lattice: a type we could not determine
// (unresolved generic, inference failure). Analyses treat it conservatively.
type Unknown struct{}

func (u *Unknown) isType() {}

func (u *Unknown) String() string { return "?" }

// Never is `!`.
type Never struct{}

func (n *Never) isType() {}

func (n *Never) String() string { return "!" }

// Shared singletons for common types.
var (
	UnitType    Type = &Prim{Kind: Unit}
	BoolType    Type = &Prim{Kind: Bool}
	I32Type     Type = &Prim{Kind: I32}
	USizeType   Type = &Prim{Kind: USize}
	U8Type      Type = &Prim{Kind: U8}
	F64Type     Type = &Prim{Kind: F64}
	StrType     Type = &Prim{Kind: Str}
	CharType    Type = &Prim{Kind: Char}
	UnknownType Type = &Unknown{}
	NeverType   Type = &Never{}
)

// NamedOf builds a Named type.
func NamedOf(name string, args ...Type) *Named { return &Named{Name: name, Args: args} }

// RefTo builds a shared reference type.
func RefTo(elem Type) *Ref { return &Ref{Elem: elem} }

// MutRefTo builds a mutable reference type.
func MutRefTo(elem Type) *Ref { return &Ref{Mut: true, Elem: elem} }

// Peel removes one layer of reference or raw pointer, returning the element
// type; it returns its input unchanged for other types.
func Peel(t Type) Type {
	switch t := t.(type) {
	case *Ref:
		return t.Elem
	case *RawPtr:
		return t.Elem
	default:
		return t
	}
}

// PeelAll removes every layer of references and raw pointers.
func PeelAll(t Type) Type {
	for {
		switch tt := t.(type) {
		case *Ref:
			t = tt.Elem
		case *RawPtr:
			t = tt.Elem
		default:
			return t
		}
	}
}

// IsPointerLike reports whether t is a reference or raw pointer.
func IsPointerLike(t Type) bool {
	switch t.(type) {
	case *Ref, *RawPtr:
		return true
	}
	return false
}

// smartPointers are std container types whose value owns a heap allocation
// reachable through it; dropping the container frees the pointee.
var smartPointers = map[string]bool{
	"Box": true, "Vec": true, "String": true, "VecDeque": true,
	"Rc": true, "Arc": true, "BTreeMap": true, "HashMap": true,
	"HashSet": true, "BTreeSet": true, "CString": true,
}

// IsOwningContainer reports whether a Named type owns heap memory that is
// freed on drop.
func IsOwningContainer(t Type) bool {
	n, ok := t.(*Named)
	return ok && smartPointers[n.Name]
}

// guardTypes are the lock-guard types returned by locking operations; their
// drop releases the lock.
var guardTypes = map[string]string{
	"MutexGuard":       "Mutex",
	"RwLockReadGuard":  "RwLock",
	"RwLockWriteGuard": "RwLock",
}

// IsLockGuard reports whether t is a lock guard and, if so, which lock type
// produced it.
func IsLockGuard(t Type) (lockType string, ok bool) {
	n, isNamed := t.(*Named)
	if !isNamed {
		return "", false
	}
	lt, ok := guardTypes[n.Name]
	return lt, ok
}

// OwnsHeap reports whether dropping a value of t frees heap memory that
// pointers may still reference: owning containers and user types that may
// own heap through fields, but not lock guards, whose drop releases a lock
// instead. The use-after-free detector and the dropflow refuter share this
// rule, so the refuter's dead set over-approximates the detector's.
func OwnsHeap(t Type) bool {
	if _, guard := IsLockGuard(t); guard {
		return false
	}
	_, named := t.(*Named)
	return named
}

// NeedsDrop reports whether a value of t has drop glue. Lowering emits a
// Drop terminator exactly for the locals whose type needs drop, so every
// other drop-glue question (an overwrite through a pointer dropping the
// previous value) asks this one rule too.
func NeedsDrop(t Type) bool {
	switch t := t.(type) {
	case *Named:
		switch t.Name {
		case "PhantomData", "Ordering", "NonNull", "Duration", "Instant":
			return false
		}
		return true
	case *Tuple:
		for _, e := range t.Elems {
			if NeedsDrop(e) {
				return true
			}
		}
		return false
	case *Array:
		return NeedsDrop(t.Elem)
	default:
		return false
	}
}

// IsLock reports whether t is a lock (Mutex or RwLock).
func IsLock(t Type) bool {
	n, ok := t.(*Named)
	return ok && (n.Name == "Mutex" || n.Name == "RwLock")
}

// copyPrims: all primitives are Copy.
//
// IsCopy reports whether values of t are copied rather than moved on
// assignment. Shared references and raw pointers are Copy; mutable
// references are treated as move (a reborrow-free approximation).
func IsCopy(t Type) bool {
	switch t := t.(type) {
	case *Prim:
		return t.Kind != Str // str is unsized, only behind refs anyway
	case *Ref:
		return !t.Mut
	case *RawPtr:
		return true
	case *Tuple:
		for _, e := range t.Elems {
			if !IsCopy(e) {
				return false
			}
		}
		return true
	case *Array:
		return IsCopy(t.Elem)
	case *Named:
		switch t.Name {
		// Std types that are Copy or behave as Copy for our analyses.
		case "Ordering", "Duration", "Instant", "NonNull", "PhantomData":
			return true
		}
		return false
	case *Never:
		return true
	default:
		return false
	}
}

// Equal reports structural type equality, with Unknown equal only to
// Unknown.
func Equal(a, b Type) bool {
	switch a := a.(type) {
	case *Prim:
		b, ok := b.(*Prim)
		return ok && a.Kind == b.Kind
	case *Named:
		bn, ok := b.(*Named)
		if !ok || a.Name != bn.Name || len(a.Args) != len(bn.Args) {
			return false
		}
		for i := range a.Args {
			if !Equal(a.Args[i], bn.Args[i]) {
				return false
			}
		}
		return true
	case *Ref:
		br, ok := b.(*Ref)
		return ok && a.Mut == br.Mut && Equal(a.Elem, br.Elem)
	case *RawPtr:
		bp, ok := b.(*RawPtr)
		return ok && a.Mut == bp.Mut && Equal(a.Elem, bp.Elem)
	case *Tuple:
		bt, ok := b.(*Tuple)
		if !ok || len(a.Elems) != len(bt.Elems) {
			return false
		}
		for i := range a.Elems {
			if !Equal(a.Elems[i], bt.Elems[i]) {
				return false
			}
		}
		return true
	case *Slice:
		bs, ok := b.(*Slice)
		return ok && Equal(a.Elem, bs.Elem)
	case *Array:
		ba, ok := b.(*Array)
		return ok && a.Len == ba.Len && Equal(a.Elem, ba.Elem)
	case *Fn:
		bf, ok := b.(*Fn)
		if !ok || len(a.Params) != len(bf.Params) {
			return false
		}
		for i := range a.Params {
			if !Equal(a.Params[i], bf.Params[i]) {
				return false
			}
		}
		return Equal(a.Ret, bf.Ret)
	case *Unknown:
		_, ok := b.(*Unknown)
		return ok
	case *Never:
		_, ok := b.(*Never)
		return ok
	default:
		return false
	}
}
