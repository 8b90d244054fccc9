package rustprobe

import (
	"context"
	"fmt"
	"maps"
	"os"
	"sort"
	"strings"
	"sync"

	"rustprobe/internal/ast"
	"rustprobe/internal/callgraph"
	"rustprobe/internal/detect"
	"rustprobe/internal/hir"
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
//   - re-lowers only the functions whose body hash or declaration
//     position (file, byte offset, line, column) changed: a function
//     that moved may have identical body text, but reusing its MIR or
//     cached findings would replay spans that resolve against the old
//     revision's line numbers,
//   - re-runs the local detectors only over the dirty callgraph closure —
//     the changed functions, their transitive callers (whose summaries
//     can observe the change), and the transitive callees of those (so
//     every summary lookup stays in-set) — reusing cached findings for
//     all other roots,
//   - always re-runs the global detectors (lock-order, blocking,
//     data-race, interior-mutability), whose findings pair facts across
//     unrelated functions, on the per-function facts the round's Context
//     inherits from the previous round for every unchanged function.
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
	prev    *prevRound // nil until the first successful round or Restore
}

// prevRound is the round the next one diffs against and reuses from:
// the session's last successful round, or a snapshot installed by
// Restore standing in for one. A round installs a new record and never
// writes one it has installed: ExportState hands its maps and slices to
// a State that outlives the round.
type prevRound struct {
	// restored is the persisted state a Restore'd record stands for; nil
	// on a live record. A restored record has no FileSet, ASTs, MIR or
	// facts, so the round after it runs the frontend in full and diffs
	// the whole tree against the snapshot's hash planes.
	restored *incrstate.State

	// localRes is each root's local findings resolved to file:line:col,
	// sealed for the snapshot. A round re-resolves and re-seals only the
	// roots it recomputed.
	localRes map[string]*incrstate.Sealed[[]incrstate.Finding]

	// The rest is set on a live record only. res's Context holds the
	// round's facts, which the next live round inherits.
	fset  *source.FileSet
	arts  map[string]*fileArtifact // per-file ASTs and hash planes
	src   map[string]string        // the round's sources
	res   *Result
	local map[string][]Finding
	last  *Update
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

	// GlobalFactsReused counts the per-function facts (one per kind and
	// function: CFG, lock facts, the global detectors' extractions, ...)
	// the round's Context took from the previous round's instead of
	// building them. GraphPatched marks a round whose call graph was
	// patched from the previous round's instead of rebuilt from scratch.
	GlobalFactsReused int  `json:"global_facts_reused,omitempty"`
	GraphPatched      bool `json:"graph_patched,omitempty"`
}

// graphCrossCheckEnabled reports whether the debug byte-equality anchor
// is on: every live round compares what it reused against a
// from-scratch build — the rebound program and patched call graph
// (crossCheck) and the global detectors' findings (crossCheckDetection)
// — and a mismatch panics: the reuse is wrong, and silently continuing
// would poison every later round. Checked per round so tests can flip
// RUSTPROBE_GRAPH_CHECK in the environment; the equivalence sweeps set
// it so CI exercises the anchor on every mutation round.
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
// runner as Result.DetectCtx, so a detector panic comes back as a
// *PanicError and a cancelled ctx stops the round at the next detector
// boundary. A round that fails — syntax errors, a detector panic,
// cancellation, or a panic anywhere in the round — leaves the session
// exactly at its last good round: a later call diffs against the last
// successful round, and ExportState is unchanged.
func (s *Session) AnalyzeCtx(ctx context.Context, files map[string]string) (up *Update, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Incremental rounds register changed files in the persistent
	// FileSet. A round that does not commit (error or panic) must not
	// leak entries that belong to no retained artifact.
	if p := s.prev; p != nil && p.fset != nil {
		mark := p.fset.Mark()
		defer func() {
			if up == nil {
				p.fset.Rollback(mark)
			}
		}()
	}
	return s.round(ctx, files)
}

// draft is one round's frontend product, what its detection runs over.
type draft struct {
	fset *source.FileSet
	arts map[string]*fileArtifact
	res  *Result

	// full, when set, names why every function is dirty; otherwise
	// changed lists the functions whose body hash or declaration
	// position differs from the previous round's.
	full    string
	changed []string

	reparsed  int  // files parsed this round
	lowered   int  // bodies lowered this round; every other one was reused
	patched   bool // res's call graph was patched from the previous round's
	inherited int  // per-function facts res's Context took from the previous round
}

// round runs one AnalyzeCtx round: a frontend that reuses what the
// previous round allows, then one detect, merge and commit. It builds
// the next state in locals and installs it only once detection has
// succeeded.
func (s *Session) round(ctx context.Context, files map[string]string) (*Update, error) {
	p := s.prev
	var d *draft
	var err error
	switch {
	case p == nil:
		d, err = fullFrontend(files, "first analysis")
	case p.restored != nil:
		d, err = restoredFrontend(p.restored, files)
	default:
		d, err = liveFrontend(p, files)
		if d == nil && err == nil {
			// Nothing to do: replay the last round's view.
			up := &Update{Result: p.res, Findings: p.last.Findings, Resolved: p.last.Resolved}
			up.Stats = (&draft{res: p.res}).stats(len(files), false, 0, len(p.last.Findings))
			return snapshotUpdate(up), nil
		}
	}
	if err != nil {
		return nil, err
	}
	d.res.Precise = s.precise

	// Local detectors run over the dirty callgraph closure; the global
	// detectors run over the whole program.
	rd := detectRound{full: d.full != "", changed: d.changed}
	out, err := d.res.detect(ctx, rd)
	if err != nil {
		return nil, err
	}
	if d.patched && graphCrossCheckEnabled() {
		crossCheckDetection(d.res)
	}

	// Every root outside the closure keeps its findings, resolved as
	// they were; only roots with fresh findings are resolved again.
	merged := out.findings
	reused := 0
	local := map[string][]Finding{}
	localRes := map[string]*incrstate.Sealed[[]incrstate.Finding]{}
	if !rd.full {
		prevLocal := p.local
		if p.restored != nil {
			prevLocal = findingsFromResolved(d.fset, p.localRes)
		}
		roots := make([]string, 0, len(prevLocal))
		for root := range prevLocal {
			roots = append(roots, root)
		}
		sort.Strings(roots)
		for _, root := range roots {
			if out.recomputed[root] {
				continue
			}
			fs := prevLocal[root]
			local[root] = fs
			localRes[root] = p.localRes[root]
			merged = append(merged, fs...)
			reused += len(fs)
		}
	}
	for fn, fs := range groupByFunction(out.local) {
		local[fn] = append(local[fn], fs...)
		localRes[fn] = incrstate.Seal(ResolveFindings(d.fset, local[fn]))
	}

	up := &Update{Result: d.res, Findings: merged, Resolved: sortFindingsByPosition(d.fset, merged)}
	up.Stats = d.stats(len(files), p != nil && p.restored != nil, len(out.recomputed), reused)
	s.prev = &prevRound{
		localRes: localRes,
		fset:     d.fset,
		arts:     d.arts,
		src:      maps.Clone(files),
		res:      d.res,
		local:    local,
		last:     up,
	}
	return snapshotUpdate(up), nil
}

// stats is the one constructor of a round's UpdateStats.
func (d *draft) stats(files int, restored bool, rootsDetected, findingsReused int) UpdateStats {
	st := UpdateStats{
		Full:              d.full != "",
		FullReason:        d.full,
		Restored:          restored,
		Files:             files,
		FilesReparsed:     d.reparsed,
		FuncsLowered:      d.lowered,
		BodiesReused:      len(d.res.Bodies) - d.lowered,
		RootsDetected:     rootsDetected,
		FindingsReused:    findingsReused,
		ChangedFns:        len(d.changed),
		FuncsTotal:        len(d.res.Bodies),
		GlobalFactsReused: d.inherited,
		GraphPatched:      d.patched,
	}
	if st.Full {
		st.RootsDetected, st.ChangedFns = st.FuncsTotal, st.FuncsTotal
	}
	return st
}

// fullFrontend parses, resolves and lowers every file into a fresh
// FileSet; reason, when set, makes the round a full one.
func fullFrontend(files map[string]string, reason string) (*draft, error) {
	fset := source.NewFileSet()
	res, arts, err := analyzeArtifacts(fset, source.NewDiagnostics(fset), files, true)
	if err != nil {
		return nil, err
	}
	return &draft{fset: fset, arts: arts, res: res, full: reason, reparsed: len(files), lowered: len(res.Bodies)}, nil
}

// restoredFrontend is the frontend of the round after Restore: a full
// one (a fresh process has no ASTs or MIR to reuse), whose functions are
// then diffed against the snapshot's hash planes across the whole tree.
// Structural drift from the snapshot — the file set, any interface, the
// function set — makes the round a full one on the same frontend.
func restoredFrontend(st *incrstate.State, files map[string]string) (*draft, error) {
	d, err := fullFrontend(files, "")
	if err != nil {
		return nil, err
	}
	if !sameKeys(st.Files, d.arts) {
		d.full = "restored state structure changed"
		return d, nil
	}
	for name, a := range d.arts {
		changed, ok := diffFile(&st.Files[name].V, a)
		if !ok {
			d.full = "restored state structure changed"
			return d, nil
		}
		d.changed = append(d.changed, changed...)
	}
	return d, nil
}

// liveFrontend reuses the previous live round: it re-parses only the
// changed files, re-lowers only the changed functions and patches the
// previous call graph. A structural change rebuilds from scratch
// instead. It returns a nil draft when no file changed.
func liveFrontend(p *prevRound, files map[string]string) (*draft, error) {
	if len(files) != len(p.src) {
		return fullFrontend(files, "file set changed")
	}
	var changed []string
	for name, src := range files {
		old, ok := p.src[name]
		if !ok {
			return fullFrontend(files, "file set changed")
		}
		if old != src {
			changed = append(changed, name)
		}
	}
	if len(changed) == 0 {
		return nil, nil
	}
	sort.Strings(changed)

	// Compact before the FileSet pins another round of re-registrations.
	live := 0
	for _, src := range files {
		live += len(src)
	}
	if p.fset.Size() > fsetCompactMinBytes && p.fset.Size() > fsetCompactFactor*live {
		return fullFrontend(files, "state compaction")
	}

	// Per-file frontend for the changed files only. The persistent
	// FileSet means spans in reused ASTs and cached findings stay valid,
	// and a revision sorts in source order where its file always did, so
	// detectors order reused and fresh spans as a full build would.
	// AnalyzeCtx rolls the new registrations back if the round fails.
	diags := source.NewDiagnostics(p.fset)
	fresh := make([]*fileArtifact, len(changed))
	for i, name := range changed {
		fresh[i] = parseArtifact(p.fset.Revise(p.arts[name].file, files[name]), diags)
		hashArtifact(fresh[i])
	}
	if diags.HasErrors() {
		return nil, &SyntaxError{Diags: diags.String()}
	}

	// Anything outside a function body changed — signatures, items,
	// statics — can shift types and resolution program-wide: rebuild.
	for _, a := range fresh {
		if a.interfaceHash != p.arts[a.name].interfaceHash {
			return fullFrontend(files, "interface changed: "+a.name)
		}
	}

	// Link phase: rebind the fresh files' declarations into a copy of
	// the previous round's program. Equal interfaces register the same
	// qualified names from the same files, so the reused artifacts'
	// function hashes stay valid and only the changed files need
	// diffing.
	arts := maps.Clone(p.arts)
	revs := make([]resolve.Revision, len(fresh))
	for i, a := range fresh {
		arts[a.name] = a
		revs[i] = resolve.Revision{Old: p.arts[a.name].crate, New: a.crate}
	}
	prog := resolve.Rebind(p.res.Program, diags, revs)
	changedFns := map[string]bool{}
	for _, a := range fresh {
		old := p.arts[a.name]
		rebindFuncs(prog, a, old)
		fns, ok := diffFile(&old.rec.V, a)
		if !ok {
			return fullFrontend(files, "interface changed: "+a.name)
		}
		for _, q := range fns {
			changedFns[q] = true
		}
	}
	fns := make([]string, 0, len(changedFns))
	for q := range changedFns {
		fns = append(fns, q)
	}
	sort.Strings(fns)

	// Re-lower exactly the changed functions (closures ride along); every
	// other body is reused from the previous round.
	lowered := lower.Funcs(prog, diags, fns)
	if diags.HasErrors() {
		return nil, &SyntaxError{Diags: diags.String()}
	}
	prev := p.res.Context()
	bodies := maps.Clone(p.res.Bodies)
	for _, q := range fns {
		for _, bname := range appendFamily(nil, bodies, prev.Graph.Names(), q) {
			delete(bodies, bname)
		}
	}
	relowered := make(map[string]bool, len(lowered))
	for bname, b := range lowered {
		bodies[bname] = b
		relowered[bname] = true
	}
	res := &Result{Program: prog, Bodies: bodies, Fset: p.fset, Diags: diags}

	// Patch the previous round's call graph instead of rebuilding: only
	// re-lowered bodies are rescanned for edges (plus callers whose
	// unresolved callee names gained a body or whose callees vanished).
	graph := callgraph.Patch(prev.Graph, bodies, relowered)
	if graphCrossCheckEnabled() {
		crossCheck(arts, prog, diags, graph)
	}
	// The interfaces are equal, so every fact of a function whose body
	// object the round kept is still valid: take it rather than rebuild.
	res.ctx = detect.NewContextWithGraph(prog, bodies, graph)
	inherited := res.ctx.Inherit(prev, relowered)

	return &draft{fset: p.fset, arts: arts, res: res, changed: fns, reparsed: len(fresh), lowered: len(lowered), patched: true, inherited: inherited}, nil
}

// crossCheck is the debug oracle of a live round (graphCrossCheckEnabled):
// everything the round reused must equal a from-scratch build over the
// same artifacts. The rebound program must equal resolve.Crates — every
// table, the Syntax pointers, the Impls order — and render the same
// diagnostics, and the patched graph must equal callgraph.Build. A
// mismatch panics: silently continuing would poison every downstream
// detector.
func crossCheck(arts map[string]*fileArtifact, prog *hir.Program, diags *source.Diagnostics, graph *callgraph.Graph) {
	names := make([]string, 0, len(arts))
	for n := range arts {
		names = append(names, n)
	}
	sort.Strings(names)
	crates := make([]*ast.Crate, len(names))
	for i, n := range names {
		crates[i] = arts[n].crate
	}
	wantDiags := source.NewDiagnostics(prog.Fset)
	if d := resolve.Diff(prog, resolve.Crates(prog.Fset, wantDiags, crates...)); d != "" {
		panic("rustprobe: rebound program diverged from a fresh resolve: " + d)
	}
	if got, want := diags.String(), wantDiags.String(); got != want {
		panic(fmt.Sprintf("rustprobe: rebound diagnostics diverged from a fresh resolve:\n%s\nwant\n%s", got, want))
	}
	if d := callgraph.Diff(graph, callgraph.Build(graph.Bodies)); d != "" {
		panic("rustprobe: patched call graph diverged from rebuild: " + d)
	}
}

// crossCheckDetection is the detection half of a live round's debug
// oracle: each global detector, which ran on per-function facts,
// summaries and derived values the round's Context inherited, must
// report on that Context what it reports on a fresh Context over the
// same program and bodies. A mismatch panics.
func crossCheckDetection(res *Result) {
	fresh := detect.NewContext(res.Program, res.Bodies)
	render := func(fs []Finding) string {
		lines := make([]string, len(fs))
		for i, f := range fs {
			lines[i] = f.Format(res.Fset)
		}
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	for _, d := range detectorRegistry(res.Precise) {
		if !globalDetectors[d.Name()] {
			continue
		}
		if got, want := render(d.Run(res.Context())), render(d.Run(fresh)); got != want {
			panic(fmt.Sprintf("rustprobe: %s on the inherited context diverged from a fresh one:\n%s\nwant\n%s", d.Name(), got, want))
		}
	}
}

// diffFile compares a file's new artifact with its previous record: ok
// is false when its interface or the set of functions registered from
// it changed, a structural change; otherwise changed lists the
// functions whose body hash or declaration position differs.
func diffFile(old *incrstate.File, a *fileArtifact) (changed []string, ok bool) {
	if old.Interface != a.interfaceHash {
		return nil, false
	}
	return changedFuncs(old.FnBodies, old.FnPos, a.rec.V.FnBodies, a.rec.V.FnPos)
}

// changedFuncs is the session's one dirty rule, shared by live and
// restored rounds: a function changed when its body hash or its
// declaration-position fingerprint differs from the previous round's.
// Between rounds with equal interface hashes, a function with both
// unchanged resolves every span inside it to the same position, so its
// MIR and cached findings can be reused verbatim. ok is false when the
// two rounds do not declare the same functions, a structural change.
func changedFuncs(oldBodies, oldPos, newBodies, newPos map[string]string) (changed []string, ok bool) {
	if !sameKeys(oldBodies, newBodies) || !sameKeys(oldPos, newPos) {
		return nil, false
	}
	for q, h := range newBodies {
		if oldBodies[q] != h || oldPos[q] != newPos[q] {
			changed = append(changed, q)
		}
	}
	return changed, true
}

// sameKeys reports whether two maps have identical key sets.
func sameKeys[A, B any](a map[string]A, b map[string]B) bool {
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

// groupByFunction groups findings by root function, keeping their
// order.
func groupByFunction(fs []Finding) map[string][]Finding {
	out := map[string][]Finding{}
	for _, f := range fs {
		out[f.Function] = append(out[f.Function], f)
	}
	return out
}

// Restore arms an empty session with state persisted by an earlier
// process (Session.ExportState, saved via the incrstate codec) as its
// previous round. The next Analyze round rebuilds the frontend — ASTs
// and MIR cannot be persisted — and diffs it against the recorded hash
// planes under the same rule as a live round: if the tree's structure
// still matches, detection runs only over the dirty closure of the
// functions whose body hash or declaration position changed, and the
// recorded findings are replayed for every clean root. Callers must
// validate st against StateVersion() (incrstate.Load/Decode do) before
// restoring.
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
	if s.prev != nil && s.prev.restored == nil {
		return fmt.Errorf("rustprobe: Restore: session has already analyzed")
	}
	for _, f := range st.Files {
		if f == nil || f.V.FnPos == nil {
			// Legacy pre-fn_pos state cannot prove positions didn't shift.
			return fmt.Errorf("rustprobe: Restore: state has no declaration-position fingerprints")
		}
	}
	// Seal the findings, which decoding left unsealed, so every later
	// snapshot that replays them appends their encoding.
	localRes := make(map[string]*incrstate.Sealed[[]incrstate.Finding], len(st.Local))
	for root, fs := range st.Local {
		localRes[root] = incrstate.Seal(fs.V)
	}
	s.prev = &prevRound{restored: st, localRes: localRes}
	return nil
}

// ExportState snapshots the session's last successful round in the
// persistable incrstate form: each file's record (content, interface,
// body and position hashes) plus the merged and per-root findings,
// fully resolved to file:line:col so a later process can replay them
// without this FileSet. Returns nil if the session has no successful
// round to export.
//
// Nothing is hashed, resolved or encoded here: each file's record was
// sealed when it was parsed and bound and each root's findings when its
// round resolved them, so a snapshot costs map assembly only and its
// encoding re-encodes only the merged findings. The State shares those
// values with the session, which never writes them again; callers must
// treat it as read-only.
func (s *Session) ExportState() *incrstate.State {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.prev
	if p == nil || p.restored != nil {
		return nil
	}
	st := &incrstate.State{
		Version:  StateVersion(),
		Files:    make(map[string]*incrstate.Sealed[incrstate.File], len(p.arts)),
		Findings: p.last.Resolved,
		Local:    p.localRes,
	}
	for name, a := range p.arts {
		st.Files[name] = a.rec
	}
	return st
}

// findingsFromResolved rebuilds per-root detector findings from their
// persisted resolved form, re-anchoring each span into fset's
// registration of the same (byte-identical, per the content-hash
// precondition) file so position resolution and sorting work exactly as
// for fresh findings.
func findingsFromResolved(fset *source.FileSet, local map[string]*incrstate.Sealed[[]incrstate.Finding]) map[string][]Finding {
	byName := map[string]*source.File{}
	for _, f := range fset.Files() {
		byName[f.Name] = f
	}
	out := make(map[string][]Finding, len(local))
	for root, rfs := range local {
		fs := make([]Finding, 0, len(rfs.V))
		for _, rf := range rfs.V {
			var span source.Span
			if f := byName[rf.File]; f != nil {
				off := f.Base + f.OffsetOf(rf.Line, rf.Column)
				span = source.Span{Start: off, End: off}
			}
			sev := detect.SeverityWarning
			if rf.Severity == detect.SeverityError.String() {
				sev = detect.SeverityError
			}
			fs = append(fs, Finding{
				Kind:     detect.Kind(rf.Kind),
				Severity: sev,
				Function: rf.Function,
				Span:     span,
				Message:  rf.Message,
				Notes:    append([]string(nil), rf.Notes...),
			})
		}
		out[root] = fs
	}
	return out
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

// appendFamily appends the bodies of base's closure family — base's own
// body, if it has one, then its closures' — given names, the sorted
// names of bodies, where the closures are the run under base's closure
// prefix.
func appendFamily(out []string, bodies map[string]*mir.Body, names []string, base string) []string {
	if _, ok := bodies[base]; ok {
		out = append(out, base)
	}
	prefix := base + "::closure#"
	for i := sort.SearchStrings(names, prefix); i < len(names) && strings.HasPrefix(names[i], prefix); i++ {
		out = append(out, names[i])
	}
	return out
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
