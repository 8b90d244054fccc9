// Package resolve builds the hir.Program registry from parsed crates: it
// collects structs, enums, traits, impls, statics and functions, and
// converts syntactic types to semantic types. Local-variable scoping is the
// lower package's job.
package resolve

import (
	"strconv"

	"rustprobe/internal/ast"
	"rustprobe/internal/hir"
	"rustprobe/internal/source"
	"rustprobe/internal/types"
)

// Resolver converts crates into a Program.
type Resolver struct {
	prog *hir.Program
}

// Crates resolves the given crates into a Program, reporting duplicate
// definitions through diags.
func Crates(fset *source.FileSet, diags *source.Diagnostics, crates ...*ast.Crate) *hir.Program {
	prog := collect(fset, crates)
	reportRedefinitions(prog, diags)
	return prog
}

// collect registers the crates' declarations into a fresh Program. When
// a name is declared more than once, the last declaration wins, except
// that a function without a body never replaces one with a body, and an
// enum variant belongs to the first enum that declares it.
func collect(fset *source.FileSet, crates []*ast.Crate) *hir.Program {
	r := &Resolver{prog: hir.NewProgram(fset)}
	r.prog.Crates = crates
	// Pass 1: collect nominal types so signatures can reference them.
	for _, c := range crates {
		r.collectTypes(c.Items)
	}
	// Pass 2: collect functions, impls, statics.
	for _, c := range crates {
		r.collectValues(c.Items, "", "", false)
	}
	return r.prog
}

// reportRedefinitions warns once per entry of prog.Redefined, in order.
func reportRedefinitions(prog *hir.Program, diags *source.Diagnostics) {
	for _, rd := range prog.Redefined {
		diags.Warningf(rd.Def.Sp, "struct %s redefined (previous at %s)", rd.Def.Name, prog.Fset.Position(rd.Prev.Sp.Start))
	}
}

func (r *Resolver) collectTypes(items []ast.Item) {
	for _, it := range items {
		switch it := it.(type) {
		case *ast.StructItem:
			sd := &hir.StructDef{
				Name:    it.Name,
				Fields:  map[string]types.Type{},
				IsTuple: it.IsTuple,
				Span:    it.Sp,
				Syntax:  it,
			}
			for _, f := range it.Fields {
				sd.Fields[f.Name] = ConvertType(f.Ty)
				sd.Order = append(sd.Order, f.Name)
			}
			if prev, dup := r.prog.Structs[it.Name]; dup {
				r.prog.Redefined = append(r.prog.Redefined, hir.Redefinition{Prev: prev.Syntax, Def: it})
			}
			r.prog.Structs[it.Name] = sd
		case *ast.EnumItem:
			ed := &hir.EnumDef{
				Name:     it.Name,
				Variants: map[string][]types.Type{},
				Span:     it.Sp,
				Syntax:   it,
			}
			for _, v := range it.Variants {
				var tys []types.Type
				for _, f := range v.Fields {
					tys = append(tys, ConvertType(f.Ty))
				}
				ed.Variants[v.Name] = tys
				ed.Order = append(ed.Order, v.Name)
				if _, taken := r.prog.VariantOwner[v.Name]; !taken {
					r.prog.VariantOwner[v.Name] = ed
				}
			}
			r.prog.Enums[it.Name] = ed
		case *ast.TraitItem:
			td := &hir.TraitDef{Name: it.Name, Unsafety: it.Unsafety, Span: it.Sp, Syntax: it}
			for _, sub := range it.Items {
				if f, ok := sub.(*ast.FnItem); ok {
					td.Methods = append(td.Methods, f.Name)
				}
			}
			r.prog.Traits[it.Name] = td
		case *ast.ModItem:
			r.collectTypes(it.Items)
		}
	}
}

// collectValues registers functions (free, inherent methods, trait methods
// with bodies) and impls. selfTy/traitName describe the enclosing impl or
// trait; inTrait marks trait bodies (default methods).
func (r *Resolver) collectValues(items []ast.Item, selfTy, traitName string, inTrait bool) {
	for _, it := range items {
		switch it := it.(type) {
		case *ast.FnItem:
			r.registerFn(it, selfTy, traitName)
		case *ast.ImplItem:
			name := typeName(it.SelfTy)
			im := &hir.ImplDef{TypeName: name, TraitName: it.TraitName, Unsafety: it.Unsafety, Span: it.Sp, Syntax: it}
			r.prog.Impls = append(r.prog.Impls, im)
			r.collectValues(it.Items, name, it.TraitName, false)
		case *ast.TraitItem:
			// Default methods get registered under "Trait::name".
			r.collectValues(it.Items, it.Name, "", true)
		case *ast.StaticItem:
			var ty types.Type = types.UnknownType
			if it.Ty != nil {
				ty = ConvertType(it.Ty)
			}
			r.prog.Statics[it.Name] = &hir.StaticDef{
				Name: it.Name, Mut: it.Mut, IsConst: it.IsConst, Ty: ty, Span: it.Sp, Syntax: it,
			}
		case *ast.ModItem:
			r.collectValues(it.Items, "", "", false)
		}
	}
}

func (r *Resolver) registerFn(it *ast.FnItem, selfTy, traitName string) {
	fd := &hir.FuncDef{
		Name:      it.Name,
		SelfType:  selfTy,
		Unsafety:  it.Unsafety,
		Ret:       types.UnitType,
		Span:      it.Sp,
		Syntax:    it,
		TraitName: traitName,
	}
	if selfTy != "" {
		fd.Qualified = selfTy + "::" + it.Name
	} else {
		fd.Qualified = it.Name
	}
	selfSem := types.Type(types.UnknownType)
	if selfTy != "" {
		selfSem = types.NamedOf(selfTy)
	}
	for _, p := range it.Decl.Params {
		pd := hir.ParamDef{Name: p.Name}
		switch p.SelfKind {
		case ast.SelfValue:
			fd.SelfKind = ast.SelfValue
			pd.Ty = selfSem
		case ast.SelfRef:
			fd.SelfKind = ast.SelfRef
			pd.Ty = types.RefTo(selfSem)
		case ast.SelfRefMut:
			fd.SelfKind = ast.SelfRefMut
			pd.Ty = types.MutRefTo(selfSem)
		default:
			if p.Ty != nil {
				pd.Ty = ConvertType(p.Ty)
			} else {
				pd.Ty = types.UnknownType
			}
			if p.Name == "" && p.Pat != nil {
				pd.Pat = p.Pat
			}
		}
		fd.Params = append(fd.Params, pd)
	}
	if it.Decl.Ret != nil {
		fd.Ret = ConvertType(it.Decl.Ret)
	}
	// Replace `Self` in the return type with the impl's self type.
	if selfTy != "" {
		fd.Ret = substSelf(fd.Ret, selfTy)
		for i := range fd.Params {
			fd.Params[i].Ty = substSelf(fd.Params[i].Ty, selfTy)
		}
	}
	if it.Body == nil && traitName == "" && selfTy != "" {
		// A signature-only method in an impl (shouldn't happen); still
		// register for signature lookups.
	}
	if prev, dup := r.prog.Funcs[fd.Qualified]; dup && prev.Syntax.Body != nil && it.Body == nil {
		return // keep the definition with a body
	}
	r.prog.Funcs[fd.Qualified] = fd
}

func substSelf(t types.Type, selfTy string) types.Type {
	switch t := t.(type) {
	case *types.Named:
		if t.Name == "Self" {
			return types.NamedOf(selfTy)
		}
		args := make([]types.Type, len(t.Args))
		changed := false
		for i, a := range t.Args {
			args[i] = substSelf(a, selfTy)
			if args[i] != a {
				changed = true
			}
		}
		if changed {
			return &types.Named{Name: t.Name, Args: args}
		}
		return t
	case *types.Ref:
		e := substSelf(t.Elem, selfTy)
		if e != t.Elem {
			return &types.Ref{Mut: t.Mut, Elem: e}
		}
		return t
	case *types.RawPtr:
		e := substSelf(t.Elem, selfTy)
		if e != t.Elem {
			return &types.RawPtr{Mut: t.Mut, Elem: e}
		}
		return t
	default:
		return t
	}
}

func typeName(t ast.Type) string {
	switch t := t.(type) {
	case *ast.PathType:
		return t.Name()
	case *ast.RefType:
		return typeName(t.Elem)
	case *ast.RawPtrType:
		return typeName(t.Elem)
	default:
		return ""
	}
}

// ConvertType converts a syntactic type to a semantic type.
func ConvertType(t ast.Type) types.Type {
	switch t := t.(type) {
	case nil:
		return types.UnknownType
	case *ast.PathType:
		name := t.Name()
		if name == "!" {
			return types.NeverType
		}
		if pk, ok := types.PrimByName[name]; ok {
			return &types.Prim{Kind: pk}
		}
		var args []types.Type
		for _, a := range t.Args {
			args = append(args, ConvertType(a))
		}
		return &types.Named{Name: name, Args: args}
	case *ast.RefType:
		return &types.Ref{Mut: t.Mut, Elem: ConvertType(t.Elem)}
	case *ast.RawPtrType:
		return &types.RawPtr{Mut: t.Mut, Elem: ConvertType(t.Elem)}
	case *ast.TupleType:
		if len(t.Elems) == 0 {
			return types.UnitType
		}
		var elems []types.Type
		for _, e := range t.Elems {
			elems = append(elems, ConvertType(e))
		}
		return &types.Tuple{Elems: elems}
	case *ast.SliceType:
		return &types.Slice{Elem: ConvertType(t.Elem)}
	case *ast.ArrayType:
		ln := -1
		if lit, ok := t.Len.(*ast.LitExpr); ok && lit.Kind == ast.LitInt {
			if v, err := strconv.Atoi(lit.Text); err == nil {
				ln = v
			}
		}
		return &types.Array{Elem: ConvertType(t.Elem), Len: ln}
	case *ast.FnPtrType:
		var params []types.Type
		for _, p := range t.Params {
			params = append(params, ConvertType(p))
		}
		ret := types.Type(types.UnitType)
		if t.Ret != nil {
			ret = ConvertType(t.Ret)
		}
		return &types.Fn{Params: params, Ret: ret}
	case *ast.InferType:
		return types.UnknownType
	case *ast.DynType:
		return types.NamedOf("dyn " + t.TraitName)
	default:
		return types.UnknownType
	}
}
