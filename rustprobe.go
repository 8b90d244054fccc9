// Package rustprobe is a static-analysis toolkit for a Rust subset,
// reproducing the systems of "Understanding Memory and Thread Safety
// Practices and Issues in Real-World Rust Programs" (PLDI 2020): a
// from-scratch Rust frontend (lexer, parser, resolver), a rustc-style MIR
// with StorageLive/StorageDead and drop elaboration, lifetime/ownership
// dataflow analyses, and the paper's bug detectors — use-after-free and
// double-lock, plus the extensions its §7 recommendations call for
// (conflicting lock orders, invalid/double free, uninitialized reads,
// unsynchronized interior mutability, and §6.2 data races via
// thread-escape plus inter-procedural locksets) — together with the
// paper's
// empirical-study pipeline (bug taxonomy, unsafe-usage scanner, and every
// table and figure as a regenerable report).
//
// Quick start:
//
//	res, err := rustprobe.AnalyzeSource("lib.rs", src)
//	if err != nil { ... }
//	for _, f := range res.Detect() {
//	    fmt.Println(f.Format(res.Fset))
//	}
package rustprobe

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"rustprobe/internal/ast"
	"rustprobe/internal/callgraph"
	"rustprobe/internal/corpus"
	"rustprobe/internal/detect"
	"rustprobe/internal/detect/blocking"
	"rustprobe/internal/detect/dfree"
	"rustprobe/internal/detect/doublelock"
	"rustprobe/internal/detect/dynamic"
	"rustprobe/internal/detect/interiormut"
	"rustprobe/internal/detect/lockorder"
	"rustprobe/internal/detect/race"
	"rustprobe/internal/detect/uaf"
	"rustprobe/internal/detect/uninit"
	"rustprobe/internal/hir"
	"rustprobe/internal/incrstate"
	"rustprobe/internal/lower"
	"rustprobe/internal/mir"
	"rustprobe/internal/parser"
	"rustprobe/internal/resolve"
	"rustprobe/internal/source"
	"rustprobe/internal/unsafety"
)

// AnalyzerVersion names the analysis-semantics revision. Bump it
// whenever detector behavior, the MIR lowering, or the serialized result
// shape changes in a way that makes previously persisted results stale:
// the engine folds it (with the detector registry) into the persistent
// store's entry version, so old entries self-invalidate instead of being
// served.
const AnalyzerVersion = "13"

// StateVersion ties persisted incremental-analysis state
// (incrstate.State) to the analyzer + detector set that produced it and
// to the codec's layout. The CLI's .rustprobe-state.json and the
// daemon's store-backed session snapshots both carry this string;
// replaying findings across a version change would resurrect results
// the current detectors might not produce, so loaders discard
// mismatching state and run full.
func StateVersion() string {
	return AnalyzerVersion + ":" + strings.Join(DetectorNames(), ",") + ":" + incrstate.Layout
}

// SyntaxError reports that submitted sources failed to lex, parse, or
// resolve. AnalyzeFiles and Session rounds return it (instead of an
// untyped error) so serving layers can map it to a client-error status
// with the rendered diagnostics attached.
type SyntaxError struct {
	Diags string
}

func (e *SyntaxError) Error() string { return "rustprobe: syntax errors:\n" + e.Diags }

// Finding re-exports the detector finding type.
type Finding = detect.Finding

// ResolveFindings materializes findings' span starts to file:line:col in
// the resolved, serializable form (incrstate.Finding) that the CLI's
// -json output, the state file, the engine's cache tiers and the daemon's
// responses all share. Each finding gets its own copy of Notes.
func ResolveFindings(fset *source.FileSet, fs []Finding) []incrstate.Finding {
	out := make([]incrstate.Finding, 0, len(fs))
	for _, f := range fs {
		pos := fset.Position(f.Span.Start)
		out = append(out, incrstate.Finding{
			Kind:     string(f.Kind),
			Severity: f.Severity.String(),
			Function: f.Function,
			File:     pos.File,
			Line:     pos.Line,
			Column:   pos.Column,
			Message:  f.Message,
			Notes:    append([]string(nil), f.Notes...),
		})
	}
	return out
}

// Detector re-exports the detector interface.
type Detector = detect.Detector

// Result is a fully analyzed program: parsed crates, the resolved
// registry, lowered MIR bodies, and accumulated diagnostics.
type Result struct {
	Program *hir.Program
	Bodies  map[string]*mir.Body
	Fset    *source.FileSet
	Diags   *source.Diagnostics

	// Precise selects the SafeDrop-style path-sensitive detector variants
	// for Detect/DetectCtx: default candidate findings that the
	// shared dropflow analysis refutes are dropped. Off by default so the
	// paper's §7 results stay reproducible.
	Precise bool

	// ctx, when set before the first Context() call, is the session's
	// Context around its patched call graph, holding the facts it
	// inherited from the previous round; otherwise Context builds one.
	ctxOnce sync.Once
	ctx     *detect.Context
}

// AnalyzeSource parses and lowers a single source string.
func AnalyzeSource(filename, src string) (*Result, error) {
	return AnalyzeFiles(map[string]string{filename: src})
}

// AnalyzeFiles parses and lowers a set of named sources. Parse errors are
// reported as a *SyntaxError; the partial Result is still returned for
// inspection.
//
// Internally the pipeline is split into a per-file frontend phase
// (parseArtifact: lex + parse) and a cross-file link phase (link:
// resolve + lower); incremental sessions reuse frontend artifacts for
// unchanged files and re-run only the link work that a change can
// affect.
func AnalyzeFiles(files map[string]string) (*Result, error) {
	fset := source.NewFileSet()
	diags := source.NewDiagnostics(fset)
	res, _, err := analyzeArtifacts(fset, diags, files, false)
	return res, err
}

// analyzeArtifacts is the full frontend+link pipeline, also returning the
// per-file artifacts so Session can seed its reuse state. hashed also
// computes every artifact's reuse hashes (hashArtifact, bindFuncs),
// which only sessions read.
func analyzeArtifacts(fset *source.FileSet, diags *source.Diagnostics, files map[string]string, hashed bool) (*Result, map[string]*fileArtifact, error) {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	arts := make(map[string]*fileArtifact, len(files))
	ordered := make([]*fileArtifact, 0, len(files))
	for _, n := range names {
		a := parseArtifact(fset.Add(n, files[n]), diags)
		if hashed {
			hashArtifact(a)
		}
		arts[n] = a
		ordered = append(ordered, a)
	}
	res, err := link(fset, diags, ordered)
	if err == nil && hashed {
		bindFuncs(res.Program, ordered)
	}
	return res, arts, err
}

// fileArtifact is the per-file frontend product: the parsed AST plus the
// hashes incremental reuse decisions key on and a session persists.
// Each is computed once, when the file is parsed, so a round pays only
// for the files it re-parses.
//
// contentHash digests the source (incrstate.ContentHash).
// interfaceHash digests the source with every function body blanked
// out, so it is stable across body-only edits.
//
// rec is set by bindFuncs (or rebindFuncs) after link: the file's
// record in incrstate.State — both hashes plus, for every function the
// resolved program registered from this file, keyed by qualified name,
// its body hash and its declaration-position fingerprint — sealed, so
// its JSON is encoded once. It is never written again once set.
type fileArtifact struct {
	name          string
	file          *source.File
	crate         *ast.Crate
	contentHash   string
	interfaceHash string
	rec           *incrstate.Sealed[incrstate.File]
}

// parseArtifact runs the per-file frontend over a registered file.
func parseArtifact(f *source.File, diags *source.Diagnostics) *fileArtifact {
	return &fileArtifact{name: f.Name, file: f, crate: parser.ParseFile(f, diags)}
}

// hashArtifact computes a's content and interface hashes.
func hashArtifact(a *fileArtifact) {
	a.contentHash = incrstate.ContentHash(a.file.Content)
	a.interfaceHash = interfaceHash(a.file, collectFnItems(a.crate))
}

// bindFuncs sets rec of each of arts from the functions prog registered
// from its file. Only the registered definition of a qualified name
// counts, so every name lands in exactly one file.
func bindFuncs(prog *hir.Program, arts []*fileArtifact) {
	recs := make(map[*source.File]*incrstate.File, len(arts))
	for _, a := range arts {
		recs[a.file] = newFileRecord(a, 0)
	}
	for q, fd := range prog.Funcs {
		if fd.Syntax == nil {
			continue
		}
		if r := recs[prog.Fset.FileFor(fd.Syntax.Span().Start)]; r != nil {
			bindFunc(prog.Fset, r, q, fd)
		}
		// else: registered from a file this round did not parse
	}
	for _, a := range arts {
		a.rec = incrstate.Seal(*recs[a.file])
	}
}

// rebindFuncs sets a.rec for a body-only revision of old's file: prog
// registers the same names from it as it did from old, each now from
// a's declaration. A name prog no longer registers from a's file is
// left out, which the caller's key-set comparison reports as a
// structural change.
func rebindFuncs(prog *hir.Program, a, old *fileArtifact) {
	r := newFileRecord(a, len(old.rec.V.FnPos))
	for q := range old.rec.V.FnPos {
		if fd := prog.Funcs[q]; fd != nil && fd.Syntax != nil && prog.Fset.FileFor(fd.Syntax.Span().Start) == a.file {
			bindFunc(prog.Fset, r, q, fd)
		}
	}
	a.rec = incrstate.Seal(*r)
}

func newFileRecord(a *fileArtifact, fns int) *incrstate.File {
	return &incrstate.File{
		Content:   a.contentHash,
		Interface: a.interfaceHash,
		FnBodies:  make(map[string]string, fns),
		FnPos:     make(map[string]string, fns),
	}
}

// bindFunc records fd, registered as q, in r: its declaration-position
// fingerprint and, when it has a body, its body hash.
//
// The position fingerprint is the file, byte offset, line and column of
// the declaration start. Between two rounds with equal interface hashes,
// a function whose body hash and fingerprint are both unchanged
// resolves every span inside its body to identical positions — the
// precondition for replaying its cached findings verbatim. The offset
// alone would not be enough: a same-length edit above the function can
// move newlines without moving bytes, shifting its line numbers.
func bindFunc(fset *source.FileSet, r *incrstate.File, q string, fd *hir.FuncDef) {
	pos := fset.Position(fd.Syntax.Span().Start)
	r.FnPos[q] = fmt.Sprintf("%s:%d:%d:%d", pos.File, pos.Offset, pos.Line, pos.Column)
	if fd.Syntax.Body != nil {
		r.FnBodies[q] = hashBytes([]byte(fset.SpanText(fd.Syntax.Body.Span())))
	}
}

// interfaceHash digests a file's interface: the source with every
// function body excised, each replaced by a fixed marker, so the digest
// is invariant under body-only edits of any length. Body spans of
// distinct functions never overlap (closures are not separate FnItems),
// so a sort-and-splice walk suffices.
func interfaceHash(f *source.File, fnItems []*ast.FnItem) string {
	type srcRange struct{ lo, hi int }
	var bodies []srcRange
	for _, fn := range fnItems {
		if fn.Body == nil {
			continue
		}
		sp := fn.Body.Span()
		lo, hi := sp.Start-f.Base, sp.End-f.Base
		if lo < 0 || hi > len(f.Content) || lo > hi {
			continue // a malformed span stays interface text
		}
		bodies = append(bodies, srcRange{lo, hi})
	}
	sort.Slice(bodies, func(i, j int) bool { return bodies[i].lo < bodies[j].lo })
	var iface []byte
	prev := 0
	for _, r := range bodies {
		if r.lo < prev {
			continue // defensive: overlapping spans from a malformed parse
		}
		iface = append(iface, f.Content[prev:r.lo]...)
		iface = append(iface, 0)
		prev = r.hi
	}
	iface = append(iface, f.Content[prev:]...)
	return hashBytes(iface)
}

// collectFnItems gathers every function item (top-level, impl methods,
// trait methods, and those inside inline mod blocks) in declaration
// order.
func collectFnItems(crate *ast.Crate) []*ast.FnItem {
	var out []*ast.FnItem
	var walk func(items []ast.Item)
	walk = func(items []ast.Item) {
		for _, it := range items {
			switch it := it.(type) {
			case *ast.FnItem:
				out = append(out, it)
			case *ast.ImplItem:
				walk(it.Items)
			case *ast.TraitItem:
				walk(it.Items)
			case *ast.ModItem:
				walk(it.Items)
			}
		}
	}
	walk(crate.Items)
	return out
}

// link runs the cross-file phase over frontend artifacts: resolve the
// crate set into a program registry and lower every function to MIR.
func link(fset *source.FileSet, diags *source.Diagnostics, arts []*fileArtifact) (*Result, error) {
	crates := make([]*ast.Crate, len(arts))
	for i, a := range arts {
		crates[i] = a.crate
	}
	prog := resolve.Crates(fset, diags, crates...)
	bodies := lower.Program(prog, diags)
	res := &Result{Program: prog, Bodies: bodies, Fset: fset, Diags: diags}
	if diags.HasErrors() {
		return res, &SyntaxError{Diags: diags.String()}
	}
	return res, nil
}

func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// skipDirInWalk reports directories AnalyzeDir's walk must not descend
// into: VCS metadata, cargo build output, and hidden directories — real
// checkouts keep generated and vendored .rs files there, and analyzing
// them both slows the walk and pollutes findings.
func skipDirInWalk(name string) bool {
	return name == "target" || strings.HasPrefix(name, ".")
}

// LoadDir reads every .rs file under dir (recursively) into a map keyed
// by slash-separated path relative to dir, so findings, diagnostics and
// content-hash cache keys for identical trees are identical regardless of
// where the tree lives on the host. The walk skips .git, target/ (cargo
// build output), and other hidden directories.
func LoadDir(dir string) (map[string]string, error) {
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != dir && skipDirInWalk(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".rs") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			rel = path
		}
		files[filepath.ToSlash(rel)] = string(data)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("rustprobe: %w", err)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("rustprobe: no .rs files under %s", dir)
	}
	return files, nil
}

// AnalyzeDir loads every .rs file under dir (see LoadDir for the walk
// rules) and analyzes them as one crate set.
func AnalyzeDir(dir string) (*Result, error) {
	files, err := LoadDir(dir)
	if err != nil {
		return nil, err
	}
	return AnalyzeFiles(files)
}

// AnalyzeCorpus loads one of the embedded corpus groups
// ("detector-eval", "patterns", "unsafe", "all").
func AnalyzeCorpus(group string) (*Result, error) {
	prog, diags, err := corpus.Load(corpus.Group(group))
	if err != nil {
		return nil, err
	}
	bodies := lower.Program(prog, diags)
	return &Result{Program: prog, Bodies: bodies, Fset: prog.Fset, Diags: diags}, nil
}

// Context returns (building lazily) the shared detector context. The
// context is built exactly once and is safe to hand to concurrent
// detector runs. A session round's prebuilt Context is used when
// present; otherwise the call graph is built from scratch.
func (r *Result) Context() *detect.Context {
	r.ctxOnce.Do(func() {
		if r.ctx == nil {
			r.ctx = detect.NewContext(r.Program, r.Bodies)
		}
	})
	return r.ctx
}

// Detectors returns the built-in static detector registry in a stable
// order. The opt-in "dynamic" detector (the bounded Miri-style explorer)
// is not part of the default suite; select it by name in Detect.
func Detectors() []Detector { return detectorRegistry(false) }

// globalDetectors names the registry's global detectors. A global
// detector pairs facts across possibly unrelated functions (lock orders
// across function pairs, blocking across spawn sites and channel ends,
// races across spawn sites, one type's methods), so a change anywhere
// can flip its findings: a session round always runs it over the whole
// program, on facts the round's Context inherited for every unchanged
// function. Every other detector is local: its findings are attributed
// to the analyzed root and depend only on that root, its transitive
// callees and the resolved program, so a session round re-runs it only
// over the dirty callgraph closure and replays cached findings for every
// other root.
var globalDetectors = map[string]bool{
	lockorder.New().Name():   true,
	blocking.New().Name():    true,
	interiormut.New().Name(): true,
	race.New().Name():        true,
}

// detectorRegistry builds the static suite; precise selects the
// path-sensitive (dropflow-refuting) variants of the memory detectors.
// The lock and concurrency detectors have no precise variant.
func detectorRegistry(precise bool) []Detector {
	return []Detector{
		&uaf.Detector{Precise: precise},
		doublelock.New(),
		lockorder.New(),
		blocking.New(),
		&dfree.Detector{Precise: precise},
		&uninit.Detector{Precise: precise},
		interiormut.New(),
		race.New(),
	}
}

// DetectorNames lists the registry names, including the opt-in dynamic
// explorer.
func DetectorNames() []string {
	var out []string
	for _, d := range Detectors() {
		out = append(out, d.Name())
	}
	return append(out, dynamic.New().Name())
}

// Detect runs the named detectors (the full static suite when none are
// named) and returns the merged, position-sorted findings. The "dynamic"
// detector only runs when named explicitly. A detector panic re-panics
// on the caller's goroutine; callers that want panics as values, or
// cancellation, use DetectCtx.
func (r *Result) Detect(names ...string) []Finding {
	out, _, err := r.DetectCtx(context.Background(), names...)
	var pe *PanicError
	if errors.As(err, &pe) {
		panic(fmt.Sprintf("%v\n%s", pe, pe.Stack))
	}
	return out
}

// DetectCtx runs the same selection as Detect, one detector after
// another in registry order on the caller's goroutine over the shared
// Context, and also returns a per-detector wall-time breakdown keyed by
// detector name.
//
// ctx is checked before each detector: once it is cancelled the
// remaining detectors are skipped and the context error is returned
// (individual passes are not interruptible, so cancellation takes
// effect at the next detector boundary). If any pass panics, the rest
// still run, and a *PanicError for the first panicking detector in
// registry order is returned instead of findings. The timing breakdown
// is valid in every case.
func (r *Result) DetectCtx(ctx context.Context, names ...string) ([]Finding, map[string]time.Duration, error) {
	out, err := r.detect(ctx, detectRound{names: names, full: true})
	if err != nil {
		return nil, out.times, err
	}
	detect.SortFindings(out.findings)
	return out.findings, out.times, nil
}

// PanicError reports that a detector pass panicked during a detector
// round. The recovered value and the panicking pass's stack are preserved
// so servers can isolate the failure and log it instead of losing the
// process (or a pool worker) to one bad input.
type PanicError struct {
	Detector string
	Value    any
	Stack    []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("rustprobe: detector %s panicked: %v", e.Detector, e.Value)
}

// testDetectors is appended to the runner's registry by package tests to
// exercise panic isolation and cancellation without a real detector
// that can panic or cancel.
var testDetectors []Detector

// detectRound is one run of the detector suite over a Result. A full
// round treats every function as dirty; an incremental round names the
// functions whose MIR changed since the previous round.
type detectRound struct {
	names   []string // detector selection; empty means the static suite
	full    bool     // every function is dirty; changed is ignored
	changed []string // incremental rounds: functions whose MIR changed
}

// detectOutcome is what one round computed.
type detectOutcome struct {
	findings []Finding // every selected detector's, in registry order, unsorted
	local    []Finding // the local detectors' share of findings

	// recomputed is, for an incremental round, the dirty callgraph
	// closure: the roots whose local findings were recomputed. Every root
	// outside it keeps its previous local findings.
	recomputed map[string]bool

	times map[string]time.Duration
}

// detect is the one detector runner behind Detect, DetectCtx and every
// Session round. The selected detectors run in registry order on the
// caller's goroutine, each under a recover that turns a panic into a
// *PanicError, and ctx is checked before each one. A fact the detectors
// share is built by the first one that asks for it, so its cost lands in
// that detector's time. Local detectors run over a view of r.Context()
// restricted to the dirty closure when that closure is a strict subset
// of Bodies (otherwise over r.Context() itself); the view shares the
// per-function facts, so each is built once per round. Global detectors
// always see the whole program. The outcome, including its timings, is
// non-nil even when an error is returned.
func (r *Result) detect(ctx context.Context, rd detectRound) (*detectOutcome, error) {
	want := map[string]bool{}
	for _, n := range rd.names {
		want[n] = true
	}
	ds := detectorRegistry(r.Precise)
	if want["dynamic"] {
		ds = append(ds, dynamic.New())
	}
	ds = append(ds, testDetectors...)

	out := &detectOutcome{times: make(map[string]time.Duration, len(ds))}
	rctx := r.Context()
	lctx := rctx
	if !rd.full {
		out.recomputed = r.dirtyClosure(rctx.Graph, rd.changed)
		if len(out.recomputed) < len(r.Bodies) {
			restricted := make(map[string]*mir.Body, len(out.recomputed))
			for n := range out.recomputed {
				if b, ok := r.Bodies[n]; ok {
					restricted[n] = b
				}
			}
			lctx = rctx.View(restricted)
		}
	}

	var firstPanic *PanicError
	for _, d := range ds {
		if len(want) > 0 && !want[d.Name()] {
			continue
		}
		if ctx.Err() != nil {
			break // cancelled: stop at this detector boundary
		}
		global := globalDetectors[d.Name()]
		c := lctx
		if global {
			c = rctx
		}
		t := time.Now()
		fs, pe := runDetector(d, c)
		out.times[d.Name()] = time.Since(t)
		if pe != nil {
			if firstPanic == nil {
				firstPanic = pe
			}
			continue
		}
		out.findings = append(out.findings, fs...)
		if !global {
			out.local = append(out.local, fs...)
		}
	}
	if firstPanic != nil {
		return out, firstPanic
	}
	return out, ctx.Err()
}

// runDetector runs d over c, turning a panic into a *PanicError that
// carries the panicking pass's stack.
func runDetector(d Detector, c *detect.Context) (fs []Finding, pe *PanicError) {
	defer func() {
		if v := recover(); v != nil {
			pe = &PanicError{Detector: d.Name(), Value: v, Stack: debug.Stack()}
		}
	}()
	return d.Run(c), nil
}

// dirtyClosure computes an incremental round's recompute set from the
// functions whose MIR changed: the changed functions' bodies (closures
// included), their transitive callers (whose summaries can observe the
// change), and the transitive callees of all of those (so every summary
// or body lookup a local detector makes stays in-set), closed over
// closure families (a closure body changes exactly when its owner's body
// text does). A family is found in the graph's sorted Names().
func (r *Result) dirtyClosure(g *callgraph.Graph, changedFns []string) map[string]bool {
	names := g.Names()
	var seeds []string
	for _, q := range changedFns {
		seeds = appendFamily(seeds, r.Bodies, names, q)
	}
	closure := g.TransitiveCallers(seeds...)
	for _, bname := range seeds {
		closure[bname] = true
	}
	var work []string
	for n := range closure {
		work = append(work, n)
	}
	add := func(n string) {
		if !closure[n] {
			closure[n] = true
			work = append(work, n)
		}
	}
	var family []string
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		family = appendFamily(family[:0], r.Bodies, names, closureBase(n))
		for _, m := range family {
			add(m)
		}
		for _, e := range g.Callees[n] {
			add(e.Callee)
		}
	}
	return closure
}

// ScanUnsafe runs the §4 unsafe-usage scanner over the parsed crates.
func (r *Result) ScanUnsafe() *unsafety.Report {
	return unsafety.Scan(r.Program)
}

// MIR returns the lowered body of a function by qualified name
// ("free_fn", "Type::method"), or nil.
func (r *Result) MIR(qualified string) *mir.Body {
	return r.Bodies[qualified]
}
