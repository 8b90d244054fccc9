// Package hir defines the resolved program representation sitting between
// the AST and MIR: a registry of structs, enums, traits, impls, statics and
// functions with semantic types attached. Function bodies remain AST; the
// lower package consumes them together with this registry.
package hir

import (
	"sort"

	"rustprobe/internal/ast"
	"rustprobe/internal/source"
	"rustprobe/internal/types"
)

// Program is a fully resolved crate set.
type Program struct {
	Fset *source.FileSet

	Structs map[string]*StructDef
	Enums   map[string]*EnumDef
	Traits  map[string]*TraitDef
	Statics map[string]*StaticDef

	// Funcs holds every function with a body, keyed by qualified name:
	// free functions by "name", methods by "Type::name".
	Funcs map[string]*FuncDef

	// VariantOwner maps an enum variant name (e.g. "Some") to its enum.
	VariantOwner map[string]*EnumDef

	// Impls records which named types implement which traits, including
	// whether the impl was declared unsafe (e.g. `unsafe impl Sync`).
	Impls []*ImplDef

	// Redefined lists, in declaration order, every struct declaration
	// that replaced an earlier one of the same name in Structs.
	// Resolution reports each as a warning.
	Redefined []Redefinition

	// Crates retains the parsed sources for AST-level passes (the §4
	// unsafety scanner walks these).
	Crates []*ast.Crate
}

// NewProgram allocates an empty program.
func NewProgram(fset *source.FileSet) *Program {
	return &Program{
		Fset:         fset,
		Structs:      map[string]*StructDef{},
		Enums:        map[string]*EnumDef{},
		Traits:       map[string]*TraitDef{},
		Statics:      map[string]*StaticDef{},
		Funcs:        map[string]*FuncDef{},
		VariantOwner: map[string]*EnumDef{},
	}
}

// StructDef is a resolved struct.
type StructDef struct {
	Name    string
	Fields  map[string]types.Type
	Order   []string // declaration order of fields
	IsTuple bool
	Span    source.Span
	Syntax  *ast.StructItem
}

// FieldType returns the type of the named field, or Unknown.
func (s *StructDef) FieldType(name string) types.Type {
	if t, ok := s.Fields[name]; ok {
		return t
	}
	return types.UnknownType
}

// EnumDef is a resolved enum.
type EnumDef struct {
	Name     string
	Variants map[string][]types.Type // variant name -> payload field types
	Order    []string
	Span     source.Span
	Syntax   *ast.EnumItem
}

// TraitDef is a resolved trait.
type TraitDef struct {
	Name     string
	Unsafety bool
	Methods  []string
	Span     source.Span
	Syntax   *ast.TraitItem
}

// StaticDef is a `static`/`const` item.
type StaticDef struct {
	Name    string
	Mut     bool
	IsConst bool
	Ty      types.Type
	Span    source.Span
	Syntax  *ast.StaticItem
}

// ImplDef records one `impl` block.
type ImplDef struct {
	TypeName  string // name of the self type
	TraitName string // "" for inherent impls
	Unsafety  bool
	Span      source.Span
	Syntax    *ast.ImplItem
}

// Redefinition is a struct declared again under a name Prev already
// declared: Def replaced Prev in Structs.
type Redefinition struct {
	Prev, Def *ast.StructItem
}

// FuncDef is a function or method with resolved signature.
type FuncDef struct {
	Name      string // unqualified name
	Qualified string // "Type::name" for methods, "name" otherwise
	SelfType  string // "" for free functions
	SelfKind  ast.SelfKind
	Unsafety  bool
	Params    []ParamDef
	Ret       types.Type
	Span      source.Span
	Syntax    *ast.FnItem
	TraitName string // trait this method implements, if any
}

// ParamDef is one resolved parameter.
type ParamDef struct {
	Name string
	Ty   types.Type
	Pat  ast.Pat // non-nil when the parameter pattern is not a plain name
}

// IsMethod reports whether the function has a self receiver.
func (f *FuncDef) IsMethod() bool { return f.SelfKind != ast.SelfNone }

// ImplementsTrait reports whether typeName has an impl of traitName.
func (p *Program) ImplementsTrait(typeName, traitName string) bool {
	for _, im := range p.Impls {
		if im.TypeName == typeName && im.TraitName == traitName {
			return true
		}
	}
	return false
}

// UnsafeImpl returns the unsafe impl of traitName for typeName, or nil.
func (p *Program) UnsafeImpl(typeName, traitName string) *ImplDef {
	for _, im := range p.Impls {
		if im.TypeName == typeName && im.TraitName == traitName && im.Unsafety {
			return im
		}
	}
	return nil
}

// LookupMethod finds "Type::name", falling back to a trait default.
func (p *Program) LookupMethod(typeName, method string) *FuncDef {
	if f, ok := p.Funcs[typeName+"::"+method]; ok {
		return f
	}
	// Fall back: find any trait the type implements that defines the
	// method as a provided (default) method.
	for _, im := range p.Impls {
		if im.TypeName != typeName || im.TraitName == "" {
			continue
		}
		if f, ok := p.Funcs[im.TraitName+"::"+method]; ok {
			return f
		}
	}
	return nil
}

// SortedFuncs returns the functions in deterministic (qualified-name) order.
func (p *Program) SortedFuncs() []*FuncDef {
	out := make([]*FuncDef, 0, len(p.Funcs))
	for _, f := range p.Funcs {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Qualified < out[j].Qualified })
	return out
}
