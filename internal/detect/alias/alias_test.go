package alias

import (
	"testing"

	"rustprobe/internal/detect"
	"rustprobe/internal/lower"
	"rustprobe/internal/mir"
	"rustprobe/internal/parser"
	"rustprobe/internal/resolve"
	"rustprobe/internal/source"
)

const aliasSrc = `
use std::sync::{Arc, Mutex};
use std::sync::mpsc::{Sender, SyncSender};

struct Service { client: Mutex<i32>, jobs: Vec<i32> }

fn handles(service: Arc<Service>, tx: Sender<i32>, stx: SyncSender<i32>, v: Vec<i32>, m: Mutex<i32>) {
    let svc = Arc::clone(&service);
    let tx2 = tx.clone();
    let stx2 = stx.clone();
    let v2 = v.clone();
    let r = &service;
    let g = m.lock().unwrap();
}
`

// resolverFor lowers src and builds the resolver for function fn.
func resolverFor(t *testing.T, src, fn string) (*Resolver, *mir.Body) {
	t.Helper()
	fset := source.NewFileSet()
	f := fset.Add("alias.rs", src)
	diags := source.NewDiagnostics(fset)
	crate := parser.ParseFile(f, diags)
	prog := resolve.Crates(fset, diags, crate)
	bodies := lower.Program(prog, diags)
	if diags.HasErrors() {
		t.Fatalf("frontend errors:\n%s", diags.String())
	}
	body := bodies[fn]
	if body == nil {
		t.Fatalf("no body for %s", fn)
	}
	ctx := detect.NewContext(prog, bodies)
	return For(ctx, fn), body
}

func TestCanonNameFollowsHandles(t *testing.T) {
	r, _ := resolverFor(t, aliasSrc, "handles")
	for name, want := range map[string]string{
		"service": "service",
		"svc":     "service", // Arc::clone aliases the same storage
		"tx2":     "tx",      // a cloned Sender is the same channel
		"stx2":    "stx",     // so is a cloned SyncSender
		"v2":      "v2",      // a deep clone of owned data is fresh
		"r":       "service", // a reference names its referent
		"g":       "m",       // a guard names its lock
		"nope":    "",        // unknown names resolve to nothing
	} {
		if got := r.CanonName(name); got != want {
			t.Errorf("CanonName(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestCanonPathRewritesRoot(t *testing.T) {
	r, _ := resolverFor(t, aliasSrc, "handles")
	for path, want := range map[string]string{
		"svc.client":     "service.client",
		"svc.jobs[_]":    "service.jobs[_]",
		"service.client": "service.client",
		"static COUNTER": "static COUNTER",
		"unknown.field":  "unknown.field",
		"tx2":            "tx",
	} {
		if got := r.CanonPath(path); got != want {
			t.Errorf("CanonPath(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestPlacePathThroughDerefsAndFields(t *testing.T) {
	r, _ := resolverFor(t, aliasSrc, "handles")
	svc, ok := r.Local("svc")
	if !ok {
		t.Fatal("no local svc")
	}
	place := mir.Place{Local: svc, Proj: []mir.Projection{
		mir.DerefProj{}, mir.FieldProj{Name: "jobs"}, mir.IndexProj{}, mir.DerefProj{},
	}}
	if got, want := r.PlacePath(place), "service.jobs[_]"; got != want {
		t.Errorf("PlacePath = %q, want %q (derefs elided)", got, want)
	}
	if got, want := r.ValuePath(mir.Place{Local: svc}), "service"; got != want {
		t.Errorf("ValuePath = %q, want %q", got, want)
	}
	// A temporary with no alias information has no path.
	for _, l := range r.body.Locals {
		if l.Name == "" && r.rootPath(l.ID) == "" {
			if got := r.PlacePath(mir.Place{Local: l.ID, Proj: []mir.Projection{mir.FieldProj{Name: "x"}}}); got != "" {
				t.Errorf("PlacePath of an unknown temp = %q, want empty", got)
			}
			break
		}
	}
}

func TestPathHelpers(t *testing.T) {
	for p, want := range map[string]string{
		"self.a.b":       "self",
		"jobs[_]":        "jobs",
		"queue":          "queue",
		"static C":       "static C",
		"static C.field": "static C",
		"static C[_].x":  "static C",
	} {
		if got := Root(p); got != want {
			t.Errorf("Root(%q) = %q, want %q", p, got, want)
		}
	}
	if got := RewriteRoot("svc", "svc", "service"); got != "service" {
		t.Errorf("RewriteRoot whole path = %q", got)
	}
	if got := RewriteRoot("svc.client[_]", "svc", "service"); got != "service.client[_]" {
		t.Errorf("RewriteRoot prefix = %q", got)
	}
}
