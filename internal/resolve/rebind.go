package resolve

import (
	"fmt"
	"maps"
	"reflect"
	"slices"

	"rustprobe/internal/ast"
	"rustprobe/internal/hir"
	"rustprobe/internal/source"
)

// Revision is a crate re-parsed from a new revision of its file: Old is
// the crate the previous program was resolved from, New the new one.
type Revision struct {
	Old, New *ast.Crate
}

// Rebind returns the program Crates would resolve from prev's crates
// with each revision's New crate in place of its Old one, reporting the
// same diagnostics, on the precondition that every revision changed
// only function bodies: Old and New declare the same items, in the
// same order, with the same signatures.
//
// It resolves only the New crates and, in copies of prev's tables,
// replaces each entry, Impls slot and VariantOwner value that prev
// registered from an Old crate with the one its New crate registers.
// Equal declarations mean the registration rules — last declaration
// wins, a function without a body never replaces one with a body, a
// variant belongs to the first enum declaring it — pick the same file
// as they did for prev, and within that file the same declaration as
// they pick for the file alone. prev is not modified.
func Rebind(prev *hir.Program, diags *source.Diagnostics, revs []Revision) *hir.Program {
	p := *prev
	p.Structs = maps.Clone(prev.Structs)
	p.Enums = maps.Clone(prev.Enums)
	p.Traits = maps.Clone(prev.Traits)
	p.Statics = maps.Clone(prev.Statics)
	p.Funcs = maps.Clone(prev.Funcs)
	p.VariantOwner = maps.Clone(prev.VariantOwner)
	p.Impls = slices.Clone(prev.Impls)
	p.Redefined = slices.Clone(prev.Redefined)
	p.Crates = slices.Clone(prev.Crates)
	for _, rv := range revs {
		fresh := collect(prev.Fset, []*ast.Crate{rv.New})
		old := rv.Old.Sp
		rebindTable(p.Structs, fresh.Structs, old, func(d *hir.StructDef) source.Span { return d.Span })
		rebindTable(p.Enums, fresh.Enums, old, func(d *hir.EnumDef) source.Span { return d.Span })
		rebindTable(p.VariantOwner, fresh.VariantOwner, old, func(d *hir.EnumDef) source.Span { return d.Span })
		rebindTable(p.Traits, fresh.Traits, old, func(d *hir.TraitDef) source.Span { return d.Span })
		rebindTable(p.Statics, fresh.Statics, old, func(d *hir.StaticDef) source.Span { return d.Span })
		rebindTable(p.Funcs, fresh.Funcs, old, func(d *hir.FuncDef) source.Span { return d.Span })
		// A crate's impls are one run of Impls, in declaration order.
		if i := slices.IndexFunc(p.Impls, func(im *hir.ImplDef) bool { return old.Contains(im.Span.Start) }); i >= 0 {
			copy(p.Impls[i:], fresh.Impls)
		}
		if len(p.Redefined) > 0 {
			renamed := map[*ast.StructItem]*ast.StructItem{}
			olds, news := structItems(rv.Old.Items, nil), structItems(rv.New.Items, nil)
			for i := range min(len(olds), len(news)) {
				renamed[olds[i]] = news[i]
			}
			for i, rd := range p.Redefined {
				if n, ok := renamed[rd.Prev]; ok {
					p.Redefined[i].Prev = n
				}
				if n, ok := renamed[rd.Def]; ok {
					p.Redefined[i].Def = n
				}
			}
		}
		if i := slices.Index(p.Crates, rv.Old); i >= 0 {
			p.Crates[i] = rv.New
		}
	}
	reportRedefinitions(&p, diags)
	return &p
}

// rebindTable replaces each entry of table registered from the old
// crate spanning old with the entry fresh, the new crate's own
// resolution, holds under the same name.
func rebindTable[D any](table, fresh map[string]*D, old source.Span, span func(*D) source.Span) {
	for name, d := range fresh {
		if cur, ok := table[name]; ok && old.Contains(span(cur).Start) {
			table[name] = d
		}
	}
}

// structItems appends the struct declarations of items, inline modules
// included, in the order pass 1 of collect visits them.
func structItems(items []ast.Item, out []*ast.StructItem) []*ast.StructItem {
	for _, it := range items {
		switch it := it.(type) {
		case *ast.StructItem:
			out = append(out, it)
		case *ast.ModItem:
			out = structItems(it.Items, out)
		}
	}
	return out
}

// Diff describes the first difference between two programs — an entry
// of any table registered from a different declaration or resolved
// differently, the Impls order, VariantOwner, the redefinitions, the
// crate list — or returns "" when they are equal. It is the oracle that
// compares a Rebind with Crates over the same crates.
func Diff(got, want *hir.Program) string {
	switch {
	case got.Fset != want.Fset:
		return "Fset differs"
	case !slices.Equal(got.Crates, want.Crates):
		return "Crates differ"
	}
	for _, d := range []string{
		diffTable("Structs", got.Structs, want.Structs, func(d *hir.StructDef) any { return d.Syntax }),
		diffTable("Enums", got.Enums, want.Enums, func(d *hir.EnumDef) any { return d.Syntax }),
		diffTable("VariantOwner", got.VariantOwner, want.VariantOwner, func(d *hir.EnumDef) any { return d.Syntax }),
		diffTable("Traits", got.Traits, want.Traits, func(d *hir.TraitDef) any { return d.Syntax }),
		diffTable("Statics", got.Statics, want.Statics, func(d *hir.StaticDef) any { return d.Syntax }),
		diffTable("Funcs", got.Funcs, want.Funcs, func(d *hir.FuncDef) any { return d.Syntax }),
	} {
		if d != "" {
			return d
		}
	}
	if (got.Impls == nil) != (want.Impls == nil) || len(got.Impls) != len(want.Impls) {
		return fmt.Sprintf("Impls: %d entries (nil %t), want %d (nil %t)", len(got.Impls), got.Impls == nil, len(want.Impls), want.Impls == nil)
	}
	for i, w := range want.Impls {
		if g := got.Impls[i]; g.Syntax != w.Syntax || !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("Impls[%d] differs", i)
		}
	}
	if !slices.Equal(got.Redefined, want.Redefined) {
		return "Redefined differs"
	}
	return ""
}

// diffTable compares one name-keyed table: the same names, each
// registered from the identical declaration and resolved alike.
func diffTable[D any](table string, got, want map[string]*D, syntax func(*D) any) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%s: %d entries, want %d", table, len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		switch {
		case !ok:
			return fmt.Sprintf("%s[%s] missing", table, name)
		case syntax(g) != syntax(w):
			return fmt.Sprintf("%s[%s] registered from another declaration", table, name)
		case !reflect.DeepEqual(g, w):
			return fmt.Sprintf("%s[%s] resolved differently", table, name)
		}
	}
	return ""
}
