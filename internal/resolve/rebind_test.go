package resolve

import (
	"sort"
	"strings"
	"testing"

	"rustprobe/internal/ast"
	"rustprobe/internal/hir"
	"rustprobe/internal/parser"
	"rustprobe/internal/source"
)

// rebindPrograms are multi-file programs whose registration rules pick
// among several declarations of a name. Every function body holds a
// /*b*/ marker that bodyEdit grows into newlines, a body-only edit that
// moves every later declaration of the file to another line.
var rebindPrograms = map[string]map[string]string{
	"name in several files": {
		"a.rs": "trait T {\n    fn m(&self);\n    fn d(&self) { /*b*/ }\n}\nfn dup() { /*b*/ }\nfn only_a() { /*b*/ dup(); }\n",
		"b.rs": "struct T { v: i32 }\nimpl T {\n    fn m(&self) { /*b*/ }\n}\nfn dup() { /*b*/ }\n",
		"c.rs": "trait T {\n    fn m(&self);\n}\nstatic LIMIT: i32 = 1;\nstatic LIMIT: u8 = 2;\nfn last() { /*b*/ }\n",
	},
	"shared variant names": {
		"a.rs": "enum E1 { A, B(i32) }\nfn f() { /*b*/ }\nenum E1 { A, Z }\n",
		"b.rs": "enum E2 { B(u8), C }\nfn g() { /*b*/ }\n",
		"c.rs": "enum E2 { C, D }\nenum E3 { Z, A(i64) }\n",
	},
	"inline modules": {
		"a.rs": "mod m {\n    struct S { x: i32 }\n    impl S {\n        fn get(&self) -> i32 { /*b*/ self.x }\n    }\n    fn inner() { /*b*/ }\n}\nfn outer() { /*b*/ }\n",
		"b.rs": "mod n {\n    unsafe impl Sync for S {}\n    fn inner() { /*b*/ }\n}\nimpl S {\n    fn put(&mut self) { /*b*/ }\n}\n",
	},
	"no impls": {
		"a.rs": "struct P { x: i32 }\nfn f() { /*b*/ }\n",
		"b.rs": "static N: i32 = 3;\nfn g() { /*b*/ f(); }\n",
	},
	"struct redefinitions": {
		"a.rs": "fn f() { /*b*/ }\nstruct P { x: i32 }\n",
		"b.rs": "fn g() { /*b*/ }\nstruct P { y: i32 }\nfn h() { /*b*/ }\nstruct P { z: i32 }\n",
		"c.rs": "struct Q;\nfn k() { /*b*/ }\nstruct P(u8);\nstruct Q;\n",
	},
}

func bodyEdit(src string) string { return strings.ReplaceAll(src, "/*b*/", "\n\n/*b*/") }

// rebindFixture parses files into one FileSet in sorted name order, as
// a full build does.
func rebindFixture(t *testing.T, files map[string]string) (*source.FileSet, []string, []*source.File, []*ast.Crate) {
	t.Helper()
	fset := source.NewFileSet()
	diags := source.NewDiagnostics(fset)
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	var srcs []*source.File
	var crates []*ast.Crate
	for _, n := range names {
		f := fset.Add(n, files[n])
		srcs = append(srcs, f)
		crates = append(crates, parser.ParseFile(f, diags))
	}
	if diags.HasErrors() {
		t.Fatalf("parse errors:\n%s", diags.String())
	}
	return fset, names, srcs, crates
}

// TestRebindMatchesCrates: rebinding any one file of a program, or all
// of them at once, after a body-only edit equals resolving the revised
// crate set from scratch — every table, the Impls order, VariantOwner,
// the redefinitions and the rendered diagnostics — and leaves the
// previous program untouched.
func TestRebindMatchesCrates(t *testing.T) {
	for name, files := range rebindPrograms {
		t.Run(name, func(t *testing.T) {
			fset, names, srcs, crates := rebindFixture(t, files)
			prevDiags := source.NewDiagnostics(fset)
			prev := Crates(fset, prevDiags, crates...)
			prevRendered := prevDiags.String()

			subsets := [][]int{}
			for i := range names {
				subsets = append(subsets, []int{i})
			}
			all := make([]int, len(names))
			for i := range all {
				all[i] = i
			}
			subsets = append(subsets, all)
			for _, subset := range subsets {
				revised := append([]*ast.Crate(nil), crates...)
				var revs []Revision
				parseDiags := source.NewDiagnostics(fset)
				for _, i := range subset {
					f := fset.Revise(srcs[i], bodyEdit(files[names[i]]))
					revised[i] = parser.ParseFile(f, parseDiags)
					revs = append(revs, Revision{Old: crates[i], New: revised[i]})
				}
				if parseDiags.HasErrors() {
					t.Fatalf("parse errors:\n%s", parseDiags.String())
				}
				gotDiags, wantDiags := source.NewDiagnostics(fset), source.NewDiagnostics(fset)
				got := Rebind(prev, gotDiags, revs)
				want := Crates(fset, wantDiags, revised...)
				if d := Diff(got, want); d != "" {
					t.Fatalf("rebinding %v: %s", subset, d)
				}
				if g, w := gotDiags.String(), wantDiags.String(); g != w {
					t.Fatalf("rebinding %v: diagnostics\n%s\nwant\n%s", subset, g, w)
				}
				if d := Diff(prev, Crates(fset, source.NewDiagnostics(fset), crates...)); d != "" {
					t.Fatalf("rebinding %v modified the previous program: %s", subset, d)
				}
				// Entries of files that were not revised are kept, not
				// rebuilt.
				for q, fd := range got.Funcs {
					if !inCrates(fd.Span, revs) && prev.Funcs[q] != fd {
						t.Fatalf("rebinding %v rebuilt %s, declared in an unrevised file", subset, q)
					}
				}
			}
			if prevDiags.String() != prevRendered {
				t.Fatal("rebinding wrote the previous program's diagnostics")
			}
		})
	}
}

func inCrates(sp source.Span, revs []Revision) bool {
	for _, rv := range revs {
		if rv.New.Sp.Contains(sp.Start) {
			return true
		}
	}
	return false
}

// TestRebindFixtures pins the registration rules the fixtures
// exercise, so a fixture edit cannot quietly drop one from
// TestRebindMatchesCrates.
func TestRebindFixtures(t *testing.T) {
	resolved := func(name string) (*hir.Program, string) {
		fset, _, _, crates := rebindFixture(t, rebindPrograms[name])
		diags := source.NewDiagnostics(fset)
		return Crates(fset, diags, crates...), diags.String()
	}
	fileOf := func(p *hir.Program, q string) string {
		if fd := p.Funcs[q]; fd != nil {
			return p.Fset.Position(fd.Span.Start).File
		}
		return ""
	}

	p, _ := resolved("name in several files")
	if fileOf(p, "T::m") != "b.rs" || fileOf(p, "dup") != "b.rs" || p.Statics["LIMIT"].Ty.String() != "u8" {
		t.Errorf("name in several files: T::m from %q, dup from %q, LIMIT %s; want the bodied b.rs method, the last dup, the last static",
			fileOf(p, "T::m"), fileOf(p, "dup"), p.Statics["LIMIT"].Ty)
	}
	p, _ = resolved("shared variant names")
	for v, want := range map[string]string{"A": "E1", "B": "E1", "C": "E2", "Z": "E1"} {
		if got := p.VariantOwner[v]; got == nil || got.Name != want {
			t.Errorf("shared variant names: VariantOwner[%s] = %+v, want %s", v, got, want)
		}
	}
	if p.VariantOwner["A"] == p.Enums["E1"] {
		t.Error("shared variant names: A's first owner should be the redefined E1, not the registered one")
	}
	p, _ = resolved("inline modules")
	if len(p.Impls) != 3 || p.Funcs["S::get"] == nil || p.Funcs["inner"] == nil {
		t.Errorf("inline modules: %d impls, S::get %v, inner %v", len(p.Impls), p.Funcs["S::get"], p.Funcs["inner"])
	}
	if p, _ = resolved("no impls"); p.Impls != nil {
		t.Errorf("no impls: Impls = %#v, want nil", p.Impls)
	}
	p, diags := resolved("struct redefinitions")
	if len(p.Redefined) != 4 || strings.Count(diags, "redefined") != 4 {
		t.Errorf("struct redefinitions: %d redefinitions, diagnostics %q", len(p.Redefined), diags)
	}
}
