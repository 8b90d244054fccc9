// Package race implements a static data-race detector for the paper's
// §6.2 non-blocking bugs: unsynchronized accesses to memory shared across
// a thread::spawn boundary. Three cooperating analyses feed the report:
//
//  1. a thread-escape analysis marks the abstract places reachable from
//     spawn-closure captures (recorded by internal/lower as capture
//     pseudo-arguments), from Arc::clone aliases, and from `static mut`
//     items, layered on the per-function points-to results;
//  2. an inter-procedural lockset computation — which locks are held at
//     each MIR statement — reuses the double-lock detector's
//     guard-lifetime machinery and extends it across calls as the
//     payload of doublelock's lockset-annotated event summary;
//  3. a conflicting-access pairer reports two accesses to the same escaped
//     place, at least one a write, from distinct spawn contexts, whose
//     locksets share no common lock.
//
// Known approximations (documented in DESIGN.md): join() establishing
// happens-before is ignored (a post-spawn access in the spawner is assumed
// concurrent with the thread), RefCell borrows count as locks, and paths
// conflate a reference with its referent exactly like the lock-id scheme.
package race

import (
	"cmp"
	"fmt"
	"sort"
	"strings"

	"rustprobe/internal/cfg"
	"rustprobe/internal/detect"
	"rustprobe/internal/detect/alias"
	"rustprobe/internal/detect/doublelock"
	"rustprobe/internal/mir"
	"rustprobe/internal/source"
	"rustprobe/internal/summary"
)

// Access is one shared-memory access in a function's summary, expressed
// in that function's namespace: a lockset-annotated event whose Path is
// the accessed place.
type Access = doublelock.Event[access]

// access is the race detector's event payload.
type access struct {
	Write    bool
	Interior bool        // mutation via an unknown &self-style method (push, insert, ...)
	At       mir.BlockID // block in the summary owner's body, for post-spawn filtering
}

// accessID is the payload's part of an access's summary key.
type accessID struct {
	write bool
	at    mir.BlockID
}

// accSummary is a function's access set. The lattice is monotone: the key
// set only grows and the per-key locksets only shrink (intersection), so
// the SCC fixpoint terminates.
type accSummary = doublelock.Events[accessID, access]

// mutatingMethods names container methods that mutate their receiver; a
// call through an unknown callee with such a name is an interior write.
// Atomic operations (store, fetch_add, swap, ...) are deliberately absent:
// they synchronize.
var mutatingMethods = map[string]bool{
	"push": true, "push_back": true, "push_front": true, "push_str": true,
	"insert": true, "remove": true, "pop": true, "pop_front": true,
	"clear": true, "truncate": true, "extend": true, "append": true,
	"set": true, "replace": true, "set_len": true, "write_all": true,
	"retain": true, "sort": true, "drain": true,
}

// Detector is the data-race detector.
type Detector struct{}

// New returns the detector with default configuration.
func New() *Detector { return &Detector{} }

// Name implements detect.Detector.
func (*Detector) Name() string { return "race" }

type spawnSite struct {
	at      mir.BlockID
	target  mir.BlockID
	closure string
	span    source.Span
}

// funcInfo is one function's intra-procedural facts, shared through the
// Context (kind race.info) by the summary transfer (which the SCC
// fixpoint re-runs) and the pairing phase.
type funcInfo struct {
	g      *cfg.Graph
	res    *alias.Resolver
	own    []*Access
	calls  []doublelock.CallSite
	spawns []spawnSite
}

// Run implements detect.Detector.
func (d *Detector) Run(ctx *detect.Context) []detect.Finding {
	sums := doublelock.SummarizeEvents(ctx, "race.summary", &doublelock.EventProblem[accessID, access, doublelock.CallSite]{
		Facts: func(fn string) ([]*Access, []doublelock.CallSite) {
			info := infoOf(ctx, fn)
			return info.own, info.calls
		},
		ID: func(a access) accessID { return accessID{write: a.Write, at: a.At} },
		// An inherited access happens at the call, in the caller's body.
		Step: func(a access, cs doublelock.CallSite, _ func(string) string) access {
			a.At = cs.At
			return a
		},
	})

	// Each spawner's pairs are derived once (DerivedAll kind race.pairs);
	// a site pair two spawners both report goes to the first in Names()
	// order.
	var out []detect.Finding
	seen := map[pairKey]bool{}
	for _, ps := range detect.DerivedAll(ctx, "race.pairs", sums, func(fn string) (*spawnerPairs, []string) {
		return pair(ctx, sums.Summaries, fn)
	}) {
		for i, f := range ps.findings {
			if !seen[ps.keys[i]] {
				seen[ps.keys[i]] = true
				out = append(out, f)
			}
		}
	}
	detect.SortFindings(out)
	return out
}

// spawnerPairs is one spawning function's race reports, each site pair
// once, and the site pair of each.
type spawnerPairs struct {
	findings []detect.Finding
	keys     []pairKey
}

// noPairs is the pairs of every function that spawns nothing.
var noPairs = &spawnerPairs{}

// infoOf returns (computing once per Context) the intra-procedural facts
// of one function: its own accesses with locksets, its resolved call
// sites, and its spawn sites.
func infoOf(ctx *detect.Context, name string) *funcInfo {
	return detect.Shared(ctx, "race.info", name, func() *funcInfo { return extract(ctx, name) })
}

func extract(ctx *detect.Context, name string) *funcInfo {
	body := ctx.Bodies[name]
	res := alias.For(ctx, name)
	g := res.Locks().CFG
	info := &funcInfo{g: g, res: res}
	closureOf := mir.ClosureLocals(body)

	record := func(pl mir.Place, write, interior bool, sp source.Span, blk mir.BlockID, held map[string]doublelock.Mode) {
		if len(pl.Proj) == 0 && !isStaticLocal(body, pl.Local) {
			return // a bare binding is not a shared-memory access
		}
		p := res.PlacePath(pl)
		if p == "" || summary.Depth(p) > summary.MaxPathDepth {
			return
		}
		// The accesses recorded at one statement share its held map:
		// summaries never mutate an event's locks.
		info.own = append(info.own, &Access{
			Path: p, Fn: name, Span: sp, Locks: held,
			Data: access{Write: write, Interior: interior, At: blk},
		})
	}

	for _, blk := range body.Blocks {
		if !g.Reachable(blk.ID) {
			continue
		}
		for i, st := range blk.Stmts {
			as, ok := st.(mir.Assign)
			if !ok {
				continue
			}
			held := res.HeldAt(blk.ID, i)
			record(as.Place, true, false, as.Span, blk.ID, held)
			read := func(pl mir.Place) { record(pl, false, false, as.Span, blk.ID, held) }
			mir.ForEachOperandPlace(as.Rvalue, read)
			if rv, ok := as.Rvalue.(mir.Discriminant); ok {
				read(rv.Place)
			}
		}
		c, ok := blk.Term.(mir.Call)
		if !ok {
			continue
		}
		held := res.HeldAt(blk.ID, len(blk.Stmts))
		if c.Intrinsic == mir.IntrinsicSpawn {
			for _, a := range c.Args {
				pl, ok := mir.OperandPlace(a)
				if !ok {
					continue
				}
				if cn, isClosure := closureOf[pl.Local]; isClosure {
					info.spawns = append(info.spawns, spawnSite{
						at: blk.ID, target: c.Target, closure: cn, span: c.Span,
					})
					break
				}
			}
			continue
		}
		switch c.Intrinsic {
		case mir.IntrinsicLock, mir.IntrinsicRead, mir.IntrinsicWrite, mir.IntrinsicTryLock:
			// An acquire does read the mutex/rwlock value, but that read is
			// serialized by the lock's own internal synchronization — and its
			// receiver path is the very lock id the guarded accesses resolve
			// through, so recording it would flag correctly-guarded code.
		default:
			for _, a := range c.Args {
				if pl, ok := mir.OperandPlace(a); ok {
					record(pl, false, false, c.Span, blk.ID, held)
				}
			}
		}
		callee := ctx.Callee(c)
		if callee != "" {
			cs := doublelock.CallSite{Callee: callee, At: blk.ID, Held: held}
			for _, a := range c.Args {
				p := ""
				if pl, ok := mir.OperandPlace(a); ok {
					p = res.ValuePath(pl)
				}
				cs.ArgPaths = append(cs.ArgPaths, p)
			}
			info.calls = append(info.calls, cs)
		} else if c.Intrinsic == mir.IntrinsicNone && c.RecvPath != "" && mutatingMethods[mir.MethodName(c.Callee)] {
			// A mutating container method through an unknown callee is an
			// interior write to the receiver's storage.
			p := res.CanonPath(c.RecvPath)
			if p != "" && summary.Depth(p) <= summary.MaxPathDepth {
				info.own = append(info.own, &Access{
					Path: p, Fn: name, Span: c.Span, Locks: held,
					Data: access{Write: true, Interior: true, At: blk.ID},
				})
			}
		}
	}
	return info
}

// sortedAccs flattens a summary into a deterministic slice: by source
// position (FileSet.Compare, so a session orders reused and re-parsed
// spans as a full build does), then path, writes before reads. The write-first tiebreak matters for
// compound assignments (`x += 1` is a read and a write at one span):
// pairKey ignores the access kind, so the first pair encountered wins,
// and sorting keeps that choice stable across runs.
func sortedAccs(fset *source.FileSet, s accSummary) []*Access {
	out := make([]*Access, 0, len(s))
	for _, a := range s {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		if c := fset.Compare(out[i].Span.Start, out[j].Span.Start); c != 0 {
			return c < 0
		}
		if out[i].Path != out[j].Path {
			return out[i].Path < out[j].Path
		}
		if out[i].Data.Write != out[j].Data.Write {
			return out[i].Data.Write
		}
		if out[i].Fn != out[j].Fn {
			return out[i].Fn < out[j].Fn
		}
		return out[i].Data.At < out[j].Data.At
	})
	return out
}

// spawnCtx is one thread context at the pairing stage: the accesses a
// spawned closure may perform, rewritten into the spawning function's
// namespace, plus the spawn site's continuation block for pairing against
// the spawner's post-spawn accesses.
type spawnCtx struct {
	label  string
	accs   []*Access
	target mir.BlockID
	inLoop bool
}

// pair reports conflicting access pairs for one spawning function and
// returns the spawned closures, whose summaries it reads.
func pair(ctx *detect.Context, sums map[string]accSummary, name string) (*spawnerPairs, []string) {
	info := infoOf(ctx, name)
	if len(info.spawns) == 0 {
		return noPairs, nil
	}
	var deps []string
	for _, sp := range info.spawns {
		deps = append(deps, sp.closure)
	}

	// First pass — thread-escape set: the canonical roots captured by any
	// spawned closure, collected over all spawns before any context is
	// built so the result cannot depend on spawn order. Statics always
	// escape.
	escaped := map[string]bool{}
	for _, sp := range info.spawns {
		cbody := ctx.Bodies[sp.closure]
		if cbody == nil {
			continue
		}
		for _, c := range cbody.Captures {
			if root := info.res.CanonName(c); root != "" {
				escaped[alias.Root(root)] = true
			}
		}
	}

	// Second pass — one context per spawn site, holding the closure's
	// summary accesses rewritten into the spawner's namespace.
	var ctxs []spawnCtx
	for _, sp := range info.spawns {
		cbody := ctx.Bodies[sp.closure]
		if cbody == nil {
			continue
		}
		caps := map[string]bool{}
		for _, c := range cbody.Captures {
			caps[c] = true
		}
		sc := spawnCtx{
			label:  sp.closure,
			target: sp.target,
			inLoop: info.g.ReachableFrom(sp.target)[sp.at],
		}
		for _, a := range sortedAccs(ctx.Fset, sums[sp.closure]) {
			root := alias.Root(a.Path)
			// Each context holds its own copy, so pointer identity
			// never spans two contexts (see conflicts).
			rewritten := *a
			switch {
			case strings.HasPrefix(root, "static "):
			case caps[root]:
				// Capture-rooted: rename into the spawner's namespace
				// through the alias map (svc → service).
				canon := info.res.CanonName(root)
				if canon == "" {
					canon = root
				}
				rewritten.Path = alias.RewriteRoot(a.Path, root, canon)
				newLocks := map[string]doublelock.Mode{}
				for id, m := range rewritten.Locks {
					lr := alias.Root(id)
					if caps[lr] {
						if lc := info.res.CanonName(lr); lc != "" {
							id = alias.RewriteRoot(id, lr, lc)
						}
					}
					newLocks[id] = m
				}
				rewritten.Locks = newLocks
			default:
				// Rooted in closure-local storage: thread-private.
				continue
			}
			sc.accs = append(sc.accs, &rewritten)
		}
		ctxs = append(ctxs, sc)
	}

	// The spawner's post-spawn accesses on escaped roots form its
	// continuation. They are paired per spawn below — never against each
	// other, since they are program-ordered on the spawner thread.
	var spawnerAccs []*Access
	for _, a := range sortedAccs(ctx.Fset, sums[name]) {
		root := alias.Root(a.Path)
		if escaped[root] || strings.HasPrefix(root, "static ") {
			spawnerAccs = append(spawnerAccs, a)
		}
	}

	out := &spawnerPairs{}
	seen := map[pairKey]bool{}
	emit := func(a, b *Access) {
		root := alias.Root(a.Path)
		if !escaped[root] && !strings.HasPrefix(root, "static ") &&
			!escaped[alias.Root(b.Path)] && !strings.HasPrefix(alias.Root(b.Path), "static ") {
			return
		}
		key := newPairKey(a, b)
		if seen[key] {
			return
		}
		seen[key] = true
		primary, other := a, b
		if !primary.Data.Write {
			primary, other = other, primary
		}
		out.keys = append(out.keys, key)
		out.findings = append(out.findings, detect.Finding{
			Kind:     detect.KindDataRace,
			Severity: detect.SeverityError,
			Function: name,
			Span:     primary.Span,
			Message: fmt.Sprintf("data race on %q: %s in %s is concurrent with %s in %s and no common lock protects them",
				primary.Path, verb(primary), primary.Fn, verb(other), other.Fn),
			Notes: []string{
				fmt.Sprintf("first access: %s at %s holding %s", verb(primary), ctx.Fset.Position(primary.Span.Start), doublelock.LocksString(primary.Locks)),
				fmt.Sprintf("second access: %s at %s holding %s", verb(other), ctx.Fset.Position(other.Span.Start), doublelock.LocksString(other.Locks)),
				fmt.Sprintf("the place escapes to another thread via the closure spawned in %s", name),
			},
		})
	}
	// Thread vs thread: distinct spawn sites always run concurrently; a
	// loop-spawned closure additionally races with its own other instances.
	for i := range ctxs {
		for j := i; j < len(ctxs); j++ {
			if i == j && !ctxs[i].inLoop {
				continue
			}
			conflicts(ctxs[i].accs, ctxs[j].accs, i == j, emit)
		}
	}
	// Thread vs spawner continuation: a spawner access races with spawn k's
	// thread only if it sits at a program point reachable after spawn k —
	// accesses before the spawn happen-before the thread starts.
	for i := range ctxs {
		reach := info.g.ReachableFrom(ctxs[i].target)
		var cont []*Access
		for _, a := range spawnerAccs {
			if reach[a.Data.At] {
				cont = append(cont, a)
			}
		}
		conflicts(ctxs[i].accs, cont, false, emit)
	}
	return out, deps
}

// conflicts pairs the accesses of two thread contexts. For a self-pair
// (one closure spawned in a loop), an access races with its own other
// instance, so identical sites are allowed.
func conflicts(as, bs []*Access, selfPair bool, emit func(a, b *Access)) {
	for i, a := range as {
		start := 0
		if selfPair {
			start = i // avoid reporting each unordered pair twice
		}
		for _, b := range bs[start:] {
			if a == b && !selfPair {
				// A pointer-identical access across two contexts is one
				// event, not two concurrent ones; only a loop self-pair
				// makes the same site mean two thread instances.
				continue
			}
			if !a.Data.Write && !b.Data.Write {
				continue
			}
			if !overlap(a.Path, b.Path) {
				continue
			}
			if protected(a, b) {
				continue
			}
			emit(a, b)
		}
	}
}

// protected reports whether a common lock serializes the two accesses
// (shared read-locks do not serialize two readers, but two readers never
// race anyway; a shared read-lock against a write-lock does).
func protected(a, b *Access) bool {
	for id, am := range a.Locks {
		if bm, ok := b.Locks[id]; ok {
			if am == doublelock.ModeRead && bm == doublelock.ModeRead {
				continue
			}
			return true
		}
	}
	return false
}

// accessSite is one access's source site: its place, function and span.
type accessSite struct {
	path  string
	fn    string
	start int
}

// pairKey identifies a conflicting site pair, its sites in sorted order.
// The access kind is left out: a `+=` desugars into a read and a write at
// the same span, and reporting both pairings of the same two source sites
// would read as duplicates.
type pairKey struct{ a, b accessSite }

func newPairKey(a, b *Access) pairKey {
	k := pairKey{
		accessSite{path: a.Path, fn: a.Fn, start: a.Span.Start},
		accessSite{path: b.Path, fn: b.Fn, start: b.Span.Start},
	}
	if cmp.Or(cmp.Compare(k.b.path, k.a.path), cmp.Compare(k.b.fn, k.a.fn), cmp.Compare(k.b.start, k.a.start)) < 0 {
		k.a, k.b = k.b, k.a
	}
	return k
}

func verb(a *Access) string {
	switch {
	case a.Data.Interior:
		return "an interior mutation"
	case a.Data.Write:
		return "a write"
	default:
		return "a read"
	}
}

func isStaticLocal(body *mir.Body, l mir.LocalID) bool {
	return int(l) < len(body.Locals) && strings.HasPrefix(body.Locals[l].Name, "static ")
}

// overlap reports whether two canonical paths may name overlapping
// storage: equal, or one a field/index extension of the other.
func overlap(a, b string) bool {
	if a == b {
		return true
	}
	if strings.HasPrefix(a, b) && (a[len(b)] == '.' || a[len(b)] == '[') {
		return true
	}
	if strings.HasPrefix(b, a) && (b[len(a)] == '.' || b[len(a)] == '[') {
		return true
	}
	return false
}
