package rustprobe

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"rustprobe/internal/ast"
	"rustprobe/internal/callgraph"
	"rustprobe/internal/detect"
	"rustprobe/internal/incrstate"
	"rustprobe/internal/lower"
	"rustprobe/internal/mir"
	"rustprobe/internal/resolve"
	"rustprobe/internal/source"
)

// Session is an incremental analyzer for a repository analyzed many
// times with small diffs between rounds (the CI-fleet shape). It keeps
// the previous round's frontend artifacts, MIR bodies, and per-function
// findings, and on each Analyze call:
//
//   - re-lexes/parses only files whose content changed (unchanged files
//     reuse their parsed AST; the persistent FileSet keeps spans valid),
//   - re-lowers only functions whose body text changed — plus the
//     functions in edited files that sit at or after the first changed
//     byte, whose body text may be identical but whose source positions
//     shifted: reusing their MIR or cached findings would replay spans
//     that resolve against the old revision's line numbers,
//   - re-runs the local detectors only over the dirty callgraph closure —
//     the changed functions, their transitive callers (whose summaries
//     can observe the change), and the transitive callees of those (so
//     every summary lookup stays in-set) — reusing cached findings for
//     all other roots,
//   - always re-runs the global detectors (lock-order, data-race,
//     interior-mutability), whose findings pair facts across unrelated
//     functions.
//
// Any structural change falls back to a full build: a file added or
// removed, a file's interface hash changing (anything outside function
// bodies: signatures, types, statics, impls, even comments between
// items), or the first call. The fallback is the correctness anchor —
// incremental results are always equal to a from-scratch AnalyzeFiles +
// Detect of the same sources, which the test suite checks directly.
//
// The persistent FileSet is append-only: every reparse of a changed file
// registers a fresh copy while reused artifacts keep the old ones alive.
// When the accumulated span space outgrows the live sources (see
// fsetCompactFactor) a round falls back to a full build, which reseeds a
// fresh FileSet with exactly one registration per file, bounding the
// memory a long-lived session can pin.
//
// A Session is safe for concurrent use; calls serialize internally.
type Session struct {
	mu      sync.Mutex
	precise bool
	fset    *source.FileSet
	arts    map[string]*fileArtifact
	res     *Result
	src     map[string]string // last successfully analyzed content
	local   map[string][]Finding
	last    *Update

	// localRes is local resolved to file:line:col, per root. A round
	// builds a new map, re-resolving only the roots it recomputed, and
	// never writes a map or slice it has installed: ExportState hands
	// them to a State that outlives the round.
	localRes map[string][]incrstate.Finding

	// carries holds each incremental global detector's opaque fact
	// cache (per-function extractions plus summary fixpoints), keyed by
	// detector name. Seeded by every full round, threaded through
	// incremental rounds, and process-local: persisted state (Restore)
	// starts with an empty map whose first round reseeds it.
	carries map[string]detect.Carry

	// prior is persisted state from an earlier process (Restore), armed
	// on an otherwise empty session. The first Analyze round consumes it:
	// the frontend runs in full (a fresh process has no ASTs or MIR to
	// reuse), but if the tree's structure still matches the recorded
	// hashes, detection runs only over the dirty closure and the
	// recorded findings are replayed for every clean root.
	prior *incrstate.State
}

// Update is one Session.Analyze round: the full analysis view, the
// merged findings (equal to a from-scratch Detect of the same sources),
// and what the round actually had to recompute.
type Update struct {
	Result   *Result
	Findings []Finding

	// Resolved is Findings resolved to file:line:col, in the same order
	// (what ResolveFindings returns for them). The round resolves its
	// findings once to sort them and keeps the result here.
	Resolved []incrstate.Finding

	Stats UpdateStats
}

// UpdateStats quantifies one incremental round.
type UpdateStats struct {
	// Full marks a from-scratch build; FullReason says why ("first
	// analysis", "file set changed", "interface changed", ...).
	Full       bool   `json:"full"`
	FullReason string `json:"full_reason,omitempty"`

	// Restored marks a round whose reuse came from persisted state
	// (Session.Restore) rather than a live previous round: the frontend
	// ran in full, but detection covered only the dirty closure.
	Restored bool `json:"restored,omitempty"`

	Files          int `json:"files"`
	FilesReparsed  int `json:"files_reparsed"`
	FuncsLowered   int `json:"funcs_lowered"`
	BodiesReused   int `json:"bodies_reused"`
	RootsDetected  int `json:"roots_detected"`
	FindingsReused int `json:"findings_reused"`
	ChangedFns     int `json:"changed_fns"`
	FuncsTotal     int `json:"funcs_total"`

	// GlobalFactsReused counts per-function fact extractions the global
	// detectors (lock-order, blocking, interior-mutability, data-race)
	// skipped this round by reusing their carried caches, summed across
	// detectors. GraphPatched marks a round whose call graph was patched
	// from the previous round's instead of rebuilt from scratch.
	GlobalFactsReused int  `json:"global_facts_reused,omitempty"`
	GraphPatched      bool `json:"graph_patched,omitempty"`
}

// graphCrossCheckEnabled reports whether the debug byte-equality anchor
// is on: every patched call graph is compared (by fingerprint) against a
// from-scratch rebuild of the same bodies, and a mismatch panics — the
// patch is wrong, and silently continuing would poison every downstream
// detector. Checked per round so tests can flip RUSTPROBE_GRAPH_CHECK in
// the environment; the equivalence sweeps set it so CI exercises the
// anchor on every mutation round.
func graphCrossCheckEnabled() bool { return os.Getenv("RUSTPROBE_GRAPH_CHECK") != "" }

// FileSet compaction thresholds (vars so tests can tighten them): an
// incremental round falls back to a full rebuild once the session's
// append-only FileSet exceeds both fsetCompactMinBytes and
// fsetCompactFactor times the live source bytes.
var (
	fsetCompactFactor   = 8
	fsetCompactMinBytes = 1 << 20
)

// NewSession returns an empty incremental session.
func NewSession() *Session {
	return &Session{}
}

// NewPreciseSession returns a session whose rounds run the path-sensitive
// (dropflow-refuting) variants of the memory detectors.
func NewPreciseSession() *Session {
	return &Session{precise: true}
}

// AnalyzeDir loads dir (see LoadDir for the walk rules) and runs an
// incremental round over its files.
func (s *Session) AnalyzeDir(dir string) (*Update, error) {
	files, err := LoadDir(dir)
	if err != nil {
		return nil, err
	}
	return s.Analyze(files)
}

// Analyze runs one round over the given sources; it is AnalyzeCtx
// without a deadline.
func (s *Session) Analyze(files map[string]string) (*Update, error) {
	return s.AnalyzeCtx(context.Background(), files)
}

// AnalyzeCtx runs one round over the given sources, reusing as much of
// the previous round as the diff allows. Detection runs through the same
// fan-out as Result.DetectCtx, so a detector panic comes back as a
// *PanicError and a cancelled ctx stops the round at detector
// granularity. A round that fails — syntax errors, a detector panic,
// cancellation, or a panic anywhere in the round — leaves the session
// exactly at its last good round: a later call diffs against the last
// successful round, and ExportState is unchanged.
func (s *Session) AnalyzeCtx(ctx context.Context, files map[string]string) (up *Update, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Incremental rounds register changed files in the persistent
	// FileSet. A round that does not commit (error or panic) must not
	// leak entries that belong to no retained artifact.
	if fset := s.fset; fset != nil {
		mark := fset.Mark()
		defer func() {
			if up == nil {
				fset.Rollback(mark)
			}
		}()
	}
	return s.round(ctx, files)
}

// round dispatches one AnalyzeCtx round. Every path builds the next
// state in locals and installs it only once detection has succeeded.
func (s *Session) round(ctx context.Context, files map[string]string) (*Update, error) {
	if s.res == nil {
		if s.prior != nil {
			return s.restoreRound(ctx, files)
		}
		return s.full(ctx, files, "first analysis")
	}
	if len(files) != len(s.src) {
		return s.full(ctx, files, "file set changed")
	}
	var changed []string
	for name, src := range files {
		old, ok := s.src[name]
		if !ok {
			return s.full(ctx, files, "file set changed")
		}
		if old != src {
			changed = append(changed, name)
		}
	}
	if len(changed) == 0 {
		// Nothing to do: replay the last round's view.
		up := &Update{Result: s.last.Result, Findings: s.last.Findings, Resolved: s.last.Resolved}
		up.Stats = UpdateStats{
			Files:          len(files),
			BodiesReused:   len(s.res.Bodies),
			FindingsReused: len(s.last.Findings),
		}
		return snapshotUpdate(up), nil
	}
	sort.Strings(changed)

	// Compact before the FileSet pins another round of re-registrations.
	live := 0
	for _, src := range files {
		live += len(src)
	}
	if s.fset.Size() > fsetCompactMinBytes && s.fset.Size() > fsetCompactFactor*live {
		return s.full(ctx, files, "state compaction")
	}

	// Per-file frontend for the changed files only. The persistent
	// FileSet means spans in reused ASTs and cached findings stay valid;
	// AnalyzeCtx rolls the new registrations back if the round fails.
	diags := source.NewDiagnostics(s.fset)
	newArts := make(map[string]*fileArtifact, len(changed))
	fresh := make([]*fileArtifact, 0, len(changed))
	for _, name := range changed {
		a := parseArtifact(s.fset, diags, name, files[name])
		hashArtifact(a)
		newArts[name] = a
		fresh = append(fresh, a)
	}
	if diags.HasErrors() {
		return nil, &SyntaxError{Diags: diags.String()}
	}

	// Anything outside a function body changed — signatures, items,
	// statics — can shift types and resolution program-wide: rebuild.
	for _, name := range changed {
		if newArts[name].interfaceHash != s.arts[name].interfaceHash ||
			len(newArts[name].fnBodyHashes) != len(s.arts[name].fnBodyHashes) {
			return s.full(ctx, files, "interface changed: "+name)
		}
	}

	// Link phase: resolve over reused + fresh ASTs in the same sorted
	// order a full build uses.
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	arts := make(map[string]*fileArtifact, len(files))
	crates := make([]*ast.Crate, 0, len(files))
	for _, n := range names {
		a, ok := newArts[n]
		if !ok {
			a = s.arts[n]
		}
		arts[n] = a
		crates = append(crates, a.crate)
	}
	prog := resolve.Crates(s.fset, diags, crates...)
	if diags.HasErrors() {
		return nil, &SyntaxError{Diags: diags.String()}
	}
	// Equal interfaces register the same qualified names from the same
	// files, so the reused artifacts' function hashes stay valid.
	bindFuncs(prog, fresh)

	// Diff function bodies at matching declaration indexes (the index
	// correspondence is pinned by the unchanged interface hash), then map
	// the changed items to qualified names through the fresh registry.
	// A function whose body text is unchanged but that is not entirely
	// within the two revisions' common byte prefix is treated as changed
	// too: bytes at or after the first differing byte may have shifted
	// line or column (even under a same-length edit that moves a newline),
	// and replaying its cached findings — or reusing MIR spans bound to
	// the old registration — would report positions from the old revision.
	bySyntax := map[*ast.FnItem]string{}
	for _, fd := range prog.Funcs {
		if fd.Syntax != nil {
			bySyntax[fd.Syntax] = fd.Qualified
		}
	}
	changedFns := map[string]bool{}
	for _, name := range changed {
		oldA, newA := s.arts[name], newArts[name]
		stable := commonPrefixLen(oldA.file.Content, newA.file.Content)
		for i, h := range newA.fnBodyHashes {
			it := newA.fnItems[i]
			if h == oldA.fnBodyHashes[i] && it.Span().End-newA.file.Base <= stable {
				continue
			}
			if q, ok := bySyntax[it]; ok {
				changedFns[q] = true
			}
		}
	}

	// Re-lower exactly the changed functions (closures ride along); every
	// other body is reused from the previous round.
	lowered := lower.ProgramFiltered(prog, diags, func(q string) bool { return changedFns[q] })
	if diags.HasErrors() {
		return nil, &SyntaxError{Diags: diags.String()}
	}
	bodies := make(map[string]*mir.Body, len(s.res.Bodies))
	reused := 0
	for bname, b := range s.res.Bodies {
		if !changedFns[closureBase(bname)] {
			bodies[bname] = b
			reused++
		}
	}
	for bname, b := range lowered {
		bodies[bname] = b
	}

	res := &Result{Program: prog, Bodies: bodies, Fset: s.fset, Diags: diags, Precise: s.precise}

	// Patch the previous round's call graph instead of rebuilding:
	// only re-lowered bodies are rescanned for edges (plus callers whose
	// unresolved callee names could have flipped, which body-only edits
	// cannot cause). The from-scratch rebuild remains the correctness
	// anchor — structural changes take the full() path above, and the
	// debug cross-check compares fingerprints on every patched round.
	relowered := make(map[string]bool, len(lowered))
	for bname := range lowered {
		relowered[bname] = true
	}
	graph := callgraph.Patch(s.res.Context().Graph, bodies, relowered)
	if graphCrossCheckEnabled() {
		if want := callgraph.Build(bodies).Fingerprint(); graph.Fingerprint() != want {
			panic(fmt.Sprintf("rustprobe: patched call graph diverged from rebuild (patched %x, rebuilt %x)",
				graph.Fingerprint(), want))
		}
	}
	res.graph = graph

	// Incremental detection: local detectors over the dirty callgraph
	// closure, cached findings for every root outside it, global
	// detectors incrementally over their carried fact caches.
	changedList := make([]string, 0, len(changedFns))
	for q := range changedFns {
		changedList = append(changedList, q)
	}
	out, err := res.detect(ctx, detectRound{changed: changedList, carries: s.carries})
	if err != nil {
		return nil, err
	}
	merged := out.findings
	reusedFindings := 0
	// Reused roots keep their resolved findings; only roots with fresh
	// findings are resolved again.
	local := make(map[string][]Finding, len(s.local))
	localRes := make(map[string][]incrstate.Finding, len(s.local))
	for fn, fs := range s.local {
		if out.recomputed[fn] {
			continue
		}
		local[fn] = fs
		localRes[fn] = s.localRes[fn]
		merged = append(merged, fs...)
		reusedFindings += len(fs)
	}
	for fn, fs := range groupByFunction(out.local) {
		local[fn] = append(local[fn], fs...)
		localRes[fn] = ResolveFindings(s.fset, local[fn])
	}

	up := &Update{Result: res, Findings: merged, Resolved: sortFindingsByPosition(s.fset, merged)}
	up.Stats = UpdateStats{
		Files:             len(files),
		FilesReparsed:     len(changed),
		FuncsLowered:      len(lowered),
		BodiesReused:      reused,
		RootsDetected:     len(out.recomputed),
		FindingsReused:    reusedFindings,
		ChangedFns:        len(changedFns),
		FuncsTotal:        len(res.Bodies),
		GlobalFactsReused: out.reused,
		GraphPatched:      true,
	}
	s.commit(s.fset, arts, files, local, localRes, out.carries, up)
	return snapshotUpdate(up), nil
}

// commit installs a successful round as the session's reuse state. It is
// the only place rounds write session state.
func (s *Session) commit(fset *source.FileSet, arts map[string]*fileArtifact, files map[string]string, local map[string][]Finding, localRes map[string][]incrstate.Finding, carries map[string]detect.Carry, up *Update) {
	s.fset = fset
	s.arts = arts
	s.src = make(map[string]string, len(files))
	for n, text := range files {
		s.src[n] = text
	}
	s.res = up.Result
	s.local = local
	s.localRes = localRes
	s.carries = carries
	s.prior = nil
	s.last = up
}

// full rebuilds the session from scratch and reseeds the reuse state.
func (s *Session) full(ctx context.Context, files map[string]string, reason string) (*Update, error) {
	fset := source.NewFileSet()
	diags := source.NewDiagnostics(fset)
	res, arts, err := analyzeArtifacts(fset, diags, files, true)
	if err != nil {
		return nil, err
	}
	return s.commitFull(ctx, files, fset, res, arts, reason, false)
}

// commitFull finishes a full round over an already-built frontend: it
// runs every detector from scratch and reseeds the session's reuse
// state. Shared by full() and the restore path's structural fallback
// (which has already paid for the frontend and must not rebuild it).
func (s *Session) commitFull(ctx context.Context, files map[string]string, fset *source.FileSet, res *Result, arts map[string]*fileArtifact, reason string, restored bool) (*Update, error) {
	res.Precise = s.precise
	// A full round runs the global detectors from scratch but still seeds
	// their carries, so the very next incremental round reuses facts.
	out, err := res.detect(ctx, detectRound{full: true, carries: map[string]detect.Carry{}})
	if err != nil {
		return nil, err
	}
	local := groupByFunction(out.local)

	up := &Update{Result: res, Findings: out.findings, Resolved: sortFindingsByPosition(fset, out.findings)}
	up.Stats = UpdateStats{
		Full:          true,
		FullReason:    reason,
		Restored:      restored,
		Files:         len(files),
		FilesReparsed: len(files),
		FuncsLowered:  len(res.Bodies),
		RootsDetected: len(res.Bodies),
		ChangedFns:    len(res.Bodies),
		FuncsTotal:    len(res.Bodies),
	}
	s.commit(fset, arts, files, local, resolveRoots(fset, local), out.carries, up)
	return snapshotUpdate(up), nil
}

// groupByFunction groups findings by root function, keeping their
// order.
func groupByFunction(fs []Finding) map[string][]Finding {
	out := map[string][]Finding{}
	for _, f := range fs {
		out[f.Function] = append(out[f.Function], f)
	}
	return out
}

// resolveRoots resolves every root's local findings.
func resolveRoots(fset *source.FileSet, local map[string][]Finding) map[string][]incrstate.Finding {
	out := make(map[string][]incrstate.Finding, len(local))
	for fn, fs := range local {
		out[fn] = ResolveFindings(fset, fs)
	}
	return out
}

// Restore arms an empty session with state persisted by an earlier
// process (Session.ExportState, saved via the incrstate codec). The next
// Analyze round rebuilds the frontend — ASTs and MIR cannot be persisted
// — but if the tree's structural hashes still match the recorded state,
// detection runs only over the dirty closure of the functions whose body
// hash or declaration position changed, and the recorded findings are
// replayed for every clean root. Callers must validate st against
// StateVersion() (incrstate.Load/Decode do) before restoring.
//
// Restore fails on a session that has already analyzed: live state is
// strictly better than persisted state, and silently replacing it would
// discard valid MIR reuse.
func (s *Session) Restore(st *incrstate.State) error {
	if st == nil {
		return fmt.Errorf("rustprobe: Restore: nil state")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.res != nil {
		return fmt.Errorf("rustprobe: Restore: session has already analyzed")
	}
	if st.FnPos == nil {
		// Legacy pre-fn_pos state cannot prove positions didn't shift.
		return fmt.Errorf("rustprobe: Restore: state has no declaration-position fingerprints")
	}
	s.prior = st
	return nil
}

// ExportState snapshots the session's last successful round in the
// persistable incrstate form: content/interface/body/position hashes
// plus the merged and per-root findings, fully resolved to file:line:col
// so a later process can replay them without this FileSet. Returns nil
// if the session has no successful round to export.
//
// Nothing is hashed or resolved here: each file's hashes were computed
// when it was parsed and each finding when its round resolved it, so a
// snapshot costs map assembly only. The State shares those resolved
// findings with the session, which never writes them again; callers
// must treat it as read-only.
func (s *Session) ExportState() *incrstate.State {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.res == nil || s.last == nil {
		return nil
	}
	st := &incrstate.State{
		Version:  StateVersion(),
		Findings: s.last.Resolved,
		Local:    s.localRes,
	}
	st.Files, st.Interfaces, st.FnBodies, st.FnPos = statePlanes(s.arts)
	// Manifest only: the fact caches hold pointers into live MIR and
	// cannot survive the process; record their sizes for observability.
	for name, c := range s.carries {
		if fc, ok := c.(detect.FactCounter); ok {
			if st.GlobalFacts == nil {
				st.GlobalFacts = map[string]int{}
			}
			st.GlobalFacts[name] = fc.FactCount()
		}
	}
	return st
}

// statePlanes assembles the hash planes of incrstate.State from the
// artifacts' precomputed hashes: content and interface hash per file,
// body hash and declaration-position fingerprint per function.
func statePlanes(arts map[string]*fileArtifact) (files, ifaces, fnBodies, fnPos map[string]string) {
	n := 0
	for _, a := range arts {
		n += len(a.fnPos)
	}
	files = make(map[string]string, len(arts))
	ifaces = make(map[string]string, len(arts))
	fnBodies = make(map[string]string, n)
	fnPos = make(map[string]string, n)
	for name, a := range arts {
		files[name] = a.contentHash
		ifaces[name] = a.interfaceHash
		for q, h := range a.fnBodies {
			fnBodies[q] = h
		}
		for q, p := range a.fnPos {
			fnPos[q] = p
		}
	}
	return files, ifaces, fnBodies, fnPos
}

// restoreRound is the first round after Restore: a full frontend
// (nothing in-memory to reuse) followed by dirty-closure-only detection
// against the persisted hashes. Structural drift from the recorded
// state — different file set, any interface change, a function added or
// removed — falls back to full detection on the same frontend. The
// persisted state is consumed only by a successful round, so a failed
// round keeps it armed for the next push.
func (s *Session) restoreRound(ctx context.Context, files map[string]string) (*Update, error) {
	prior := s.prior
	fset := source.NewFileSet()
	diags := source.NewDiagnostics(fset)
	res, arts, err := analyzeArtifacts(fset, diags, files, true)
	if err != nil {
		return nil, err
	}

	contents, ifaces, fnBodies, fnPos := statePlanes(arts)
	if !sameKeysStr(prior.Files, contents) ||
		!mapsEqualStr(prior.Interfaces, ifaces) ||
		!sameKeysStr(prior.FnBodies, fnBodies) ||
		!sameKeysStr(prior.FnPos, fnPos) {
		return s.commitFull(ctx, files, fset, res, arts, "restored state structure changed", true)
	}
	res.Precise = s.precise

	// A function is dirty if its body text changed or its declaration
	// moved (an edit above it shifted every recorded position in it).
	var changed []string
	for q, h := range fnBodies {
		if prior.FnBodies[q] != h || prior.FnPos[q] != fnPos[q] {
			changed = append(changed, q)
		}
	}
	sort.Strings(changed)

	// Restored carries do not exist — fact caches are process-local — so
	// the first round's global detectors extract from scratch and seed
	// the carries for every later round.
	out, err := res.detect(ctx, detectRound{changed: changed, carries: map[string]detect.Carry{}})
	if err != nil {
		return nil, err
	}
	byName := map[string]*source.File{}
	for _, f := range fset.Files() {
		byName[f.Name] = f
	}
	merged := out.findings
	localMap := groupByFunction(out.local)
	reusedFindings := 0
	roots := make([]string, 0, len(prior.Local))
	for root := range prior.Local {
		roots = append(roots, root)
	}
	sort.Strings(roots)
	for _, root := range roots {
		if out.recomputed[root] {
			continue
		}
		rfs := prior.Local[root]
		fs := make([]Finding, 0, len(rfs))
		for _, rf := range rfs {
			fs = append(fs, findingFromResolved(byName, rf))
		}
		localMap[root] = fs
		merged = append(merged, fs...)
		reusedFindings += len(rfs)
	}

	up := &Update{Result: res, Findings: merged, Resolved: sortFindingsByPosition(fset, merged)}
	up.Stats = UpdateStats{
		Restored:       true,
		Files:          len(files),
		FilesReparsed:  len(files),
		FuncsLowered:   len(res.Bodies),
		RootsDetected:  len(out.recomputed),
		FindingsReused: reusedFindings,
		ChangedFns:     len(changed),
		FuncsTotal:     len(res.Bodies),
	}
	s.commit(fset, arts, files, localMap, resolveRoots(fset, localMap), out.carries, up)
	return snapshotUpdate(up), nil
}

// findingFromResolved rebuilds a detector finding from its persisted
// resolved form, re-anchoring the span into the current registration of
// the same (byte-identical, per the content-hash precondition) file so
// position resolution and sorting work exactly as for fresh findings.
func findingFromResolved(byName map[string]*source.File, rf incrstate.Finding) Finding {
	var span source.Span
	if f := byName[rf.File]; f != nil {
		off := f.Base + f.OffsetOf(rf.Line, rf.Column)
		span = source.Span{Start: off, End: off}
	}
	sev := detect.SeverityWarning
	if rf.Severity == detect.SeverityError.String() {
		sev = detect.SeverityError
	}
	return Finding{
		Kind:     detect.Kind(rf.Kind),
		Severity: sev,
		Function: rf.Function,
		Span:     span,
		Message:  rf.Message,
		Notes:    append([]string(nil), rf.Notes...),
	}
}

// sameKeysStr reports whether two maps have identical key sets.
func sameKeysStr(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// mapsEqualStr reports whether two maps are identical.
func mapsEqualStr(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// snapshotUpdate returns a caller-owned copy of an update. The session
// keeps the original (and the finding slices behind it) as reuse state
// for later rounds, so the copy clones the findings slice and each
// finding's Notes — a caller that sorts, filters, appends to, or
// annotates the returned findings cannot corrupt subsequent rounds'
// merged output (mirroring the engine cache tier's defensive copies).
func snapshotUpdate(up *Update) *Update {
	return &Update{Result: up.Result, Findings: cloneFindings(up.Findings), Resolved: cloneResolved(up.Resolved), Stats: up.Stats}
}

func cloneFindings(fs []Finding) []Finding {
	out := make([]Finding, len(fs))
	copy(out, fs)
	for i := range out {
		out[i].Notes = append([]string(nil), out[i].Notes...)
	}
	return out
}

func cloneResolved(fs []incrstate.Finding) []incrstate.Finding {
	out := make([]incrstate.Finding, len(fs))
	copy(out, fs)
	for i := range out {
		out[i].Notes = append([]string(nil), out[i].Notes...)
	}
	return out
}

// commonPrefixLen reports the length of the longest common byte prefix of
// a and b — positions at offsets strictly below it resolve identically in
// both revisions.
func commonPrefixLen(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// closureBase strips the "::closure#N..." suffix lowering appends, naming
// the source-level function a body belongs to. Closures change exactly
// when their owner's body text changes, so reuse and dirtiness decisions
// work at this granularity.
func closureBase(name string) string {
	if i := strings.Index(name, "::closure#"); i >= 0 {
		return name[:i]
	}
	return name
}

// sortFindingsByPosition orders findings by their resolved position in
// the incrstate.Less order and returns them resolved, in that order. For
// a single FileSet this matches detect.SortFindings' span ordering;
// incremental rounds need the resolved form because cached findings
// carry spans from earlier file-set entries whose raw offsets are not
// comparable with fresh ones.
func sortFindingsByPosition(fset *source.FileSet, fs []Finding) []incrstate.Finding {
	resolved := ResolveFindings(fset, fs)
	order := make([]int, len(fs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return incrstate.Less(&resolved[order[i]], &resolved[order[j]]) })
	sortedFs := make([]Finding, len(fs))
	sortedRes := make([]incrstate.Finding, len(fs))
	for i, k := range order {
		sortedFs[i], sortedRes[i] = fs[k], resolved[k]
	}
	copy(fs, sortedFs)
	return sortedRes
}
