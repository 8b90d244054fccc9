// Package alias renders the MIR places of one function as canonical
// source-level path strings — the namespace the lock identities already
// use ("self.client", "queue", "static COUNTER") — so storage, channel
// endpoints, condvars and Once cells reached through different handles
// compare equal. The data-race and blocking detectors share it.
package alias

import (
	"strings"

	"rustprobe/internal/detect"
	"rustprobe/internal/detect/doublelock"
	"rustprobe/internal/mir"
	"rustprobe/internal/pointsto"
	"rustprobe/internal/summary"
	"rustprobe/internal/types"
)

// Resolver canonicalizes one function's places. It layers three alias
// sources:
//
//   - pointee: a symbolic-path alias map seeded by Ref/AddrOf and forwarded
//     through Arc::clone / .clone() on handle types / unwrap, so
//     `let svc = Arc::clone(&service)` makes svc-rooted paths
//     service-rooted;
//   - guards: a guard-holding local resolves to its lock's path, so
//     `*queue.lock().unwrap()` and the other thread's copy unify on
//     "queue";
//   - pointsto: locals whose storage root is known from internal/pointsto
//     fall back to the root local's name when the symbolic map has no
//     entry.
type Resolver struct {
	body    *mir.Body
	locks   *doublelock.LockFacts
	pts     *pointsto.Result
	pointee map[mir.LocalID]string
	byName  map[string]mir.LocalID
}

// For returns (building once per Context) the resolver of function fn.
// The race and blocking detectors share it, so it is read-only once
// built: only propagate, during the build, writes to it.
func For(ctx *detect.Context, fn string) *Resolver {
	return detect.Shared(ctx, "alias", fn, func() *Resolver {
		body := ctx.Bodies[fn]
		r := &Resolver{
			body:    body,
			locks:   doublelock.Facts(ctx, fn),
			pts:     ctx.PointsTo(fn),
			pointee: map[mir.LocalID]string{},
			byName:  map[string]mir.LocalID{},
		}
		for _, l := range body.Locals {
			if l.Name != "" {
				if _, dup := r.byName[l.Name]; !dup {
					r.byName[l.Name] = l.ID
				}
			}
		}
		r.propagate()
		return r
	})
}

// Locks returns the lock facts the resolver was built on: the function's
// CFG, guard locals and live-guard analysis.
func (r *Resolver) Locks() *doublelock.LockFacts { return r.locks }

// HeldAt returns the locks held just before statement idx of block b
// (idx == len(stmts) is the terminator), keyed by canonical path.
func (r *Resolver) HeldAt(b mir.BlockID, idx int) map[string]doublelock.Mode {
	held := doublelock.Held(r.locks.Live.StateAt(b, idx), r.locks.Guards)
	canon := make(map[string]doublelock.Mode, len(held))
	for id, m := range held {
		canon[r.CanonPath(id)] = m
	}
	return canon
}

// CanonName resolves a variable name to its canonical root path (following
// the alias map, so "svc" canonicalizes to "service" after
// `let svc = Arc::clone(&service)`). Unknown names return "".
func (r *Resolver) CanonName(name string) string {
	l, ok := r.Local(name)
	if !ok {
		return ""
	}
	return r.rootPath(l)
}

// Local returns the first local declared with a source name.
func (r *Resolver) Local(name string) (mir.LocalID, bool) {
	l, ok := r.byName[name]
	return l, ok
}

// CanonPath canonicalizes a source-level path (like a Call.RecvPath) by
// rewriting its root through the alias map.
func (r *Resolver) CanonPath(path string) string {
	path = summary.NormalizePath(path)
	root := Root(path)
	if strings.HasPrefix(root, "static ") {
		return path
	}
	if canon := r.CanonName(root); canon != "" && canon != root {
		return RewriteRoot(path, root, canon)
	}
	return path
}

// handleLike reports whether a value of type t is a shared handle: copying
// or cloning it yields another name for the same storage. Sender halves
// are handles too: clone() on a Sender aliases the same channel.
func handleLike(t types.Type) bool {
	if types.IsPointerLike(t) {
		return true
	}
	n, ok := t.(*types.Named)
	return ok && (n.Name == "Arc" || n.Name == "Rc" || n.Name == "Sender" || n.Name == "SyncSender")
}

// propagate fills the pointee map to a fixpoint. First assignment wins
// (deterministic in block/statement order), mirroring guard-origin
// propagation: a local that may alias two different paths keeps the first,
// an under-approximation that favors precision over recall.
func (r *Resolver) propagate() {
	set := func(l mir.LocalID, p string) bool {
		if p == "" {
			return false
		}
		if _, ok := r.pointee[l]; ok {
			return false
		}
		r.pointee[l] = p
		return true
	}
	changed := true
	for changed {
		changed = false
		for _, blk := range r.body.Blocks {
			for _, st := range blk.Stmts {
				as, ok := st.(mir.Assign)
				if !ok || !as.Place.IsLocal() {
					continue
				}
				dest := as.Place.Local
				switch rv := as.Rvalue.(type) {
				case mir.Ref:
					if set(dest, r.PlacePath(rv.Place)) {
						changed = true
					}
				case mir.AddrOf:
					if set(dest, r.PlacePath(rv.Place)) {
						changed = true
					}
				case mir.Use:
					if pl, ok := mir.OperandPlace(rv.X); ok && pl.IsLocal() {
						if p, has := r.pointee[pl.Local]; has && set(dest, p) {
							changed = true
						}
					}
				case mir.Cast:
					if pl, ok := mir.OperandPlace(rv.X); ok && pl.IsLocal() {
						if p, has := r.pointee[pl.Local]; has && set(dest, p) {
							changed = true
						}
					}
				}
			}
			c, ok := blk.Term.(mir.Call)
			if !ok || !c.Dest.IsLocal() {
				continue
			}
			switch c.Intrinsic {
			case mir.IntrinsicArcClone, mir.IntrinsicUnwrap, mir.IntrinsicCondvarWait:
				if len(c.Args) > 0 {
					if pl, ok := mir.OperandPlace(c.Args[0]); ok {
						if set(c.Dest.Local, r.ValuePath(pl)) {
							changed = true
						}
					}
				}
			case mir.IntrinsicClone:
				// .clone() duplicates the value; only handle types (Arc,
				// Rc, references) keep the clone aliased to the original
				// storage. Deep clones of owned data are fresh.
				if len(c.Args) > 0 {
					if pl, ok := mir.OperandPlace(c.Args[0]); ok {
						if handleLike(r.localType(pl.Local)) {
							if set(c.Dest.Local, r.ValuePath(pl)) {
								changed = true
							}
						}
					}
				}
			}
		}
	}
}

func (r *Resolver) localType(l mir.LocalID) types.Type {
	if int(l) < len(r.body.Locals) {
		return r.body.Locals[l].Ty
	}
	return types.UnknownType
}

// rootPath resolves the canonical path of a local's storage-or-referent:
// a guard local names its lock's contents, a handle/reference names what it
// points at, a named local names itself. Temporaries with no alias
// information resolve to "" and their accesses are dropped.
func (r *Resolver) rootPath(l mir.LocalID) string {
	if g, ok := r.locks.Guards[l]; ok {
		return g.Lock
	}
	if p, ok := r.pointee[l]; ok {
		return p
	}
	loc := r.body.Local(l)
	if loc.Name != "" {
		return loc.Name
	}
	// Last resort: a single known points-to root lends the temp its name.
	if targets := r.pts.Targets(l); len(targets) == 1 {
		for t := range targets {
			if t != l && int(t) < len(r.body.Locals) && r.body.Locals[t].Name != "" {
				return r.body.Locals[t].Name
			}
		}
	}
	return ""
}

// PlacePath renders a place as a canonical path. Dereferences are elided —
// a deref never changes which abstract location a path denotes, only how
// it is reached — matching summary.NormalizePath's treatment of lock ids.
func (r *Resolver) PlacePath(p mir.Place) string {
	root := r.rootPath(p.Local)
	if root == "" {
		return ""
	}
	var b strings.Builder
	b.WriteString(root)
	for _, pr := range p.Proj {
		switch pr := pr.(type) {
		case mir.FieldProj:
			b.WriteString(".")
			b.WriteString(pr.Name)
		case mir.IndexProj:
			b.WriteString("[_]")
		}
	}
	return b.String()
}

// ValuePath is the path denoted by the *value* stored at a place: for a
// bare local that's its referent (or itself, for named locals); with
// projections it is the projected path (our paths conflate a reference
// with its target, like the lock-id scheme).
func (r *Resolver) ValuePath(p mir.Place) string {
	return r.PlacePath(p)
}

// Root returns the leading segment of a canonical path ("self.a.b" →
// "self", "static C" → "static C", "jobs[_]" → "jobs").
func Root(p string) string {
	if rest, ok := strings.CutPrefix(p, "static "); ok {
		if i := strings.IndexAny(rest, ".["); i >= 0 {
			return "static " + rest[:i]
		}
		return p
	}
	if i := strings.IndexAny(p, ".["); i >= 0 {
		return p[:i]
	}
	return p
}

// RewriteRoot replaces the root segment of path with to.
func RewriteRoot(path, root, to string) string {
	if path == root {
		return to
	}
	return to + path[len(root):]
}
