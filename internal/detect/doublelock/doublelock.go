// Package doublelock implements the paper's §7.2 double-lock detector. It
// identifies every lock() / read() / write() call site, extracts the lock
// being acquired (a source-level path such as "self.client") and the
// guard-holding local, then computes guard lifetimes: Rust releases a lock
// when the guard's lifetime ends, i.e. at its Drop/StorageDead or an
// explicit mem::drop. A second acquisition of the same lock while a guard
// is live is a double lock. The check is inter-procedural: per-function
// "locks acquired" summaries are propagated bottom-up and translated
// through receiver paths at call sites.
package doublelock

import (
	"fmt"
	"sort"
	"strings"

	"rustprobe/internal/cfg"
	"rustprobe/internal/dataflow"
	"rustprobe/internal/detect"
	"rustprobe/internal/mir"
	"rustprobe/internal/summary"
)

// Mode distinguishes guard kinds.
type Mode int

// Guard modes.
const (
	ModeLock  Mode = iota // Mutex::lock
	ModeRead              // RwLock::read
	ModeWrite             // RwLock::write
)

func (m Mode) String() string {
	switch m {
	case ModeRead:
		return "read"
	case ModeWrite:
		return "write"
	default:
		return "lock"
	}
}

// Guard describes a guard-holding local: the lock it came from (a
// source-level path such as "self.client") and the acquisition mode.
// Exported because the lock-order, race and blocking detectors read the
// same guard analysis.
type Guard struct {
	Lock string
	Mode Mode
}

// Detector is the double-lock detector.
type Detector struct {
	// FlagReadRead also reports read()-after-read() on the same RwLock
	// (can deadlock when a writer is queued); defaults to false to match
	// the paper's reported-bug set.
	FlagReadRead bool
	// IntraOnly disables the bottom-up lock-set summaries (the ablation
	// in DESIGN.md's index): caller-holds/callee-locks bugs are then
	// missed.
	IntraOnly bool
}

// New returns the detector with default configuration.
func New() *Detector { return &Detector{} }

// Name implements detect.Detector.
func (*Detector) Name() string { return "double-lock" }

// acquireIntrinsic maps a call intrinsic to a guard mode.
func acquireIntrinsic(i mir.Intrinsic) (Mode, bool) {
	switch i {
	case mir.IntrinsicLock:
		return ModeLock, true
	case mir.IntrinsicRead:
		return ModeRead, true
	case mir.IntrinsicWrite:
		return ModeWrite, true
	}
	return ModeLock, false
}

// Run implements detect.Detector.
func (d *Detector) Run(ctx *detect.Context) []detect.Finding {
	var summaries map[string]map[string]Mode
	if !d.IntraOnly {
		summaries = Summaries(ctx, nil, nil).Summaries
	}
	var out []detect.Finding
	for _, name := range ctx.Graph.Names() {
		out = append(out, d.checkFunction(ctx, name, summaries)...)
	}
	detect.SortFindings(out)
	return out
}

// LockFacts is one function's guard analysis, shared through the
// Context by the double-lock, race and blocking detectors. It is
// read-only to every user; Live.StateAt returns a fresh copy.
type LockFacts struct {
	CFG    *cfg.Graph
	Guards map[mir.LocalID]Guard // guard-holding locals and their locks
	Live   *dataflow.Result      // bit l: local l holds a live guard
}

// Facts returns (computing once per Context) the lock facts of function
// fn.
func Facts(ctx *detect.Context, fn string) *LockFacts {
	return detect.Shared(ctx, "doublelock.facts", fn, func() *LockFacts {
		body := ctx.Bodies[fn]
		g := ctx.CFG(fn)
		origins := guardOrigins(body)
		return &LockFacts{CFG: g, Guards: origins, Live: liveGuards(body, g, origins)}
	})
}

// guardOrigins statically assigns a Guard to each local that may hold
// a guard, by propagating from acquiring calls through moves and unwrap.
func guardOrigins(body *mir.Body) map[mir.LocalID]Guard {
	origins := map[mir.LocalID]Guard{}
	changed := true
	for changed {
		changed = false
		set := func(l mir.LocalID, gi Guard) {
			if _, ok := origins[l]; !ok {
				origins[l] = gi
				changed = true
			}
		}
		for _, blk := range body.Blocks {
			for _, st := range blk.Stmts {
				as, ok := st.(mir.Assign)
				if !ok || !as.Place.IsLocal() {
					continue
				}
				if use, ok := as.Rvalue.(mir.Use); ok {
					if pl, ok := mir.OperandPlace(use.X); ok && pl.IsLocal() {
						if gi, has := origins[pl.Local]; has {
							set(as.Place.Local, gi)
						}
					}
				}
			}
			if c, ok := blk.Term.(mir.Call); ok && c.Dest.IsLocal() {
				if mode, isAcq := acquireIntrinsic(c.Intrinsic); isAcq && c.RecvPath != "" {
					set(c.Dest.Local, Guard{Lock: c.RecvPath, Mode: mode})
				}
				// A successful try_lock also yields a guard that blocks a
				// later lock(); the try itself never deadlocks.
				if c.Intrinsic == mir.IntrinsicTryLock && c.RecvPath != "" {
					set(c.Dest.Local, Guard{Lock: c.RecvPath, Mode: ModeLock})
				}
				switch c.Intrinsic {
				case mir.IntrinsicUnwrap, mir.IntrinsicTryLock, mir.IntrinsicCondvarWait:
					argIdx := 0
					if c.Intrinsic == mir.IntrinsicCondvarWait {
						argIdx = 1
					}
					if argIdx < len(c.Args) {
						if pl, ok := mir.OperandPlace(c.Args[argIdx]); ok && pl.IsLocal() {
							if gi, has := origins[pl.Local]; has {
								set(c.Dest.Local, gi)
							}
						}
					}
				}
			}
		}
	}
	return origins
}

// liveGuards runs the forward may-analysis: bit l set means local l holds
// a live (unreleased) guard.
func liveGuards(body *mir.Body, g *cfg.Graph, origins map[mir.LocalID]Guard) *dataflow.Result {
	prob := &dataflow.Problem{
		Bits: len(body.Locals),
		TransferStmt: func(state dataflow.BitSet, _ mir.BlockID, _ int, st mir.Statement) {
			switch st := st.(type) {
			case mir.StorageDead:
				state.Clear(int(st.Local))
			case mir.Assign:
				// Guards moved into an aggregate (a struct literal or a
				// closure environment) leave their source locals: ownership
				// transfers into the aggregate value, so the source no
				// longer releases on scope end.
				if agg, ok := st.Rvalue.(mir.Aggregate); ok {
					for _, op := range agg.Ops {
						if pl, ok := mir.OperandPlace(op); ok && pl.IsLocal() && mir.IsMove(op) {
							if _, isGuard := origins[pl.Local]; isGuard {
								state.Clear(int(pl.Local))
							}
						}
					}
				}
				if !st.Place.IsLocal() {
					// A guard moved into a non-local place (a struct
					// field, a slot behind a pointer) leaves the source
					// local: clear it so a later reacquisition is not a
					// false positive. The destination's storage is not a
					// tracked local, so ownership conservatively escapes.
					if use, ok := st.Rvalue.(mir.Use); ok {
						if pl, ok := mir.OperandPlace(use.X); ok && pl.IsLocal() {
							if _, isGuard := origins[pl.Local]; isGuard {
								state.Clear(int(pl.Local))
							}
						}
					}
					return
				}
				if use, ok := st.Rvalue.(mir.Use); ok {
					if pl, ok := mir.OperandPlace(use.X); ok && pl.IsLocal() {
						if _, isGuard := origins[pl.Local]; isGuard && state.Has(int(pl.Local)) {
							// The guard moves: source releases, dest holds.
							state.Clear(int(pl.Local))
							state.Set(int(st.Place.Local))
							return
						}
					}
				}
				// Overwriting a guard-holding local drops the old guard.
				state.Clear(int(st.Place.Local))
			}
		},
		TransferTerm: func(state dataflow.BitSet, _ mir.BlockID, term mir.Terminator) {
			switch term := term.(type) {
			case mir.Drop:
				if term.Place.IsLocal() {
					state.Clear(int(term.Place.Local))
				}
			case mir.Call:
				if _, isAcq := acquireIntrinsic(term.Intrinsic); isAcq && term.Dest.IsLocal() {
					if _, tracked := origins[term.Dest.Local]; tracked {
						state.Set(int(term.Dest.Local))
					}
					return
				}
				switch term.Intrinsic {
				case mir.IntrinsicUnwrap, mir.IntrinsicTryLock:
					if len(term.Args) > 0 {
						if pl, ok := mir.OperandPlace(term.Args[0]); ok && pl.IsLocal() {
							if _, isGuard := origins[pl.Local]; isGuard && state.Has(int(pl.Local)) {
								state.Clear(int(pl.Local))
								if term.Dest.IsLocal() {
									state.Set(int(term.Dest.Local))
								}
								return
							}
						}
					}
					// try_lock acquires directly from the lock receiver.
					if term.Intrinsic == mir.IntrinsicTryLock && term.Dest.IsLocal() {
						if _, tracked := origins[term.Dest.Local]; tracked {
							state.Set(int(term.Dest.Local))
						}
					}
				case mir.IntrinsicCondvarWait:
					// wait(cv, guard) releases during the wait and returns
					// a reacquired guard: transfer, never double-lock.
					if len(term.Args) > 1 {
						if pl, ok := mir.OperandPlace(term.Args[1]); ok && pl.IsLocal() {
							state.Clear(int(pl.Local))
						}
					}
					if term.Dest.IsLocal() {
						if _, tracked := origins[term.Dest.Local]; tracked {
							state.Set(int(term.Dest.Local))
						}
					}
				case mir.IntrinsicForget:
					if len(term.Args) > 0 {
						if pl, ok := mir.OperandPlace(term.Args[0]); ok && pl.IsLocal() {
							state.Clear(int(pl.Local))
						}
					}
				default:
					// A guard moved into a call is consumed there.
					for _, a := range term.Args {
						if pl, ok := mir.OperandPlace(a); ok && pl.IsLocal() && mir.IsMove(a) {
							if _, isGuard := origins[pl.Local]; isGuard {
								state.Clear(int(pl.Local))
							}
						}
					}
					if term.Dest.IsLocal() {
						state.Clear(int(term.Dest.Local))
					}
				}
			}
		},
	}
	return dataflow.Forward(g, prob)
}

// Held returns the lock identities live at a program point.
func Held(state dataflow.BitSet, origins map[mir.LocalID]Guard) map[string]Mode {
	held := map[string]Mode{}
	state.ForEach(func(l int) {
		if gi, ok := origins[mir.LocalID(l)]; ok {
			// Writes dominate in the merged view.
			if cur, exists := held[gi.Lock]; !exists || gi.Mode > cur {
				held[gi.Lock] = gi.Mode
			}
		}
	})
	return held
}

// TranslateLocks maps a callee-namespace held-lock map into the caller's
// namespace through summary.TranslateRoot, dropping ids that do not
// survive the translation. The result is always a fresh map.
func TranslateLocks(locks map[string]Mode, params, argPaths []string) map[string]Mode {
	out := map[string]Mode{}
	for id, m := range locks {
		if t := summary.TranslateRoot(id, params, argPaths); t != "" {
			out[t] = m
		}
	}
	return out
}

// LocksString renders a held-lock map as sorted "id(mode)" entries, or
// "no locks".
func LocksString(locks map[string]Mode) string {
	if len(locks) == 0 {
		return "no locks"
	}
	ids := make([]string, 0, len(locks))
	for id := range locks {
		ids = append(ids, fmt.Sprintf("%s(%s)", id, locks[id]))
	}
	sort.Strings(ids)
	return strings.Join(ids, ", ")
}

// Summaries computes, bottom-up over the call graph, the set of lock ids
// each function may acquire (transitively) and the strongest mode it
// acquires each in, expressed in its own namespace (only self-rooted and
// static ids propagate upward). The SCC fixpoint in internal/summary
// makes the propagation sound through mutual recursion and call chains
// of any length. warm and recompute are summary.ComputeFrom's warm start;
// a nil warm computes every function.
func Summaries(ctx *detect.Context, warm *summary.Result[map[string]Mode], recompute map[string]bool) *summary.Result[map[string]Mode] {
	prob := &summary.Problem[map[string]Mode]{
		Bottom: func(string) map[string]Mode { return map[string]Mode{} },
		Equal:  locksEqual,
		Transfer: func(name string, get summary.Lookup[map[string]Mode]) map[string]Mode {
			body := ctx.Bodies[name]
			s := map[string]Mode{}
			add := func(id string, mode Mode) {
				if cur, exists := s[id]; !exists || mode > cur {
					s[id] = mode
				}
			}
			for _, blk := range body.Blocks {
				c, ok := blk.Term.(mir.Call)
				if !ok {
					continue
				}
				if mode, isAcq := acquireIntrinsic(c.Intrinsic); isAcq && c.RecvPath != "" {
					add(c.RecvPath, mode)
					continue
				}
				calleeName := ctx.Callee(c)
				if calleeName == "" {
					continue
				}
				cs, known := get(calleeName)
				if !known {
					continue
				}
				for id, mode := range cs {
					tid := summary.Translate(id, c.RecvPath)
					if tid == "" {
						continue
					}
					// Only ids that remain self-rooted or static are part
					// of this function's upward summary.
					if strings.HasPrefix(tid, "self") || strings.HasPrefix(tid, "static ") {
						add(tid, mode)
					}
				}
			}
			return s
		},
	}
	return summary.ComputeFrom(ctx.Graph, prob, warm, recompute)
}

// conflicts reports whether acquiring `mode` on a lock already held in
// `heldMode` deadlocks.
func (d *Detector) conflicts(heldMode, mode Mode) bool {
	if heldMode == ModeRead && mode == ModeRead {
		return d.FlagReadRead
	}
	return true
}

func (d *Detector) checkFunction(ctx *detect.Context, name string, sums map[string]map[string]Mode) []detect.Finding {
	body := ctx.Bodies[name]
	lf := Facts(ctx, name)
	g, origins, res := lf.CFG, lf.Guards, lf.Live

	var out []detect.Finding
	for _, blk := range body.Blocks {
		if !g.Reachable(blk.ID) {
			continue
		}
		c, ok := blk.Term.(mir.Call)
		if !ok {
			continue
		}
		state := res.StateAt(blk.ID, len(blk.Stmts))
		held := Held(state, origins)

		if mode, isAcq := acquireIntrinsic(c.Intrinsic); isAcq && c.RecvPath != "" {
			if heldMode, isHeld := held[c.RecvPath]; isHeld && d.conflicts(heldMode, mode) {
				out = append(out, detect.Finding{
					Kind:     detect.KindDoubleLock,
					Severity: detect.SeverityError,
					Function: name,
					Span:     c.Span,
					Message: fmt.Sprintf("%s() on %q while a %s guard of the same lock is still live",
						mode, c.RecvPath, heldMode),
					Notes: []string{
						"Rust releases a lock when the guard's lifetime ends; the first guard is still in scope here",
					},
				})
			}
			continue
		}

		// Inter-procedural: calling a function that (transitively)
		// acquires a lock we hold.
		calleeName := ctx.Callee(c)
		if calleeName == "" || len(held) == 0 {
			continue
		}
		for id, mode := range sums[calleeName] {
			tid := summary.Translate(id, c.RecvPath)
			if tid == "" {
				continue
			}
			if heldMode, isHeld := held[tid]; isHeld && d.conflicts(heldMode, mode) {
				out = append(out, detect.Finding{
					Kind:     detect.KindDoubleLock,
					Severity: detect.SeverityError,
					Function: name,
					Span:     c.Span,
					Message: fmt.Sprintf("call to %s acquires %q (%s) while a %s guard of the same lock is held",
						calleeName, tid, mode, heldMode),
					Notes: []string{
						fmt.Sprintf("%s acquires the lock internally; the caller's guard has not been dropped", calleeName),
					},
				})
			}
		}
	}
	return out
}
