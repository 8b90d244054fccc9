// Package doublelock implements the paper's §7.2 double-lock detector. It
// identifies every lock() / read() / write() call site, extracts the lock
// being acquired (a source-level path such as "self.client") and the
// guard-holding local, then computes guard lifetimes: Rust releases a lock
// when the guard's lifetime ends, i.e. at its Drop/StorageDead or an
// explicit mem::drop. A second acquisition of the same lock while a guard
// is live is a double lock. The check is inter-procedural: each
// acquisition is an event of the lockset-annotated event summary
// (SummarizeEvents) with the locks held just before it, so a caller sees
// every lock its callees acquire, translated through receiver paths at
// the call sites. The lock-order detector reads the same acquisition
// summary, and race and blocking summarize their own events on it.
package doublelock

import (
	"fmt"
	"sort"
	"strings"

	"rustprobe/internal/cfg"
	"rustprobe/internal/dataflow"
	"rustprobe/internal/detect"
	"rustprobe/internal/mir"
	"rustprobe/internal/source"
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
	var sums map[string]AcquisitionSummary
	if !d.IntraOnly {
		sums = SummarizeAcquisitions(ctx).Summaries
	}
	var out []detect.Finding
	for _, name := range ctx.Graph.Names() {
		out = append(out, d.checkFunction(ctx, name, sums[name])...)
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

// conflicts reports whether acquiring `mode` on a lock already held in
// `heldMode` deadlocks.
func (d *Detector) conflicts(heldMode, mode Mode) bool {
	if heldMode == ModeRead && mode == ModeRead {
		return d.FlagReadRead
	}
	return true
}

// Acquisition is the payload of an acquisition event: an event whose
// Path is the lock acquired and whose Locks are the locks held just
// before it. At is the acquiring call's block in the function that
// performs it, and the call site's block in every caller that inherits
// it.
type Acquisition struct {
	Mode Mode
	At   mir.BlockID
}

// AcquisitionSummary is one function's acquisition events, its own and
// those of its transitive callees, in its namespace.
type AcquisitionSummary = Events[mir.BlockID, Acquisition]

// AcquisitionFacts is one function's own acquisitions and its resolved
// calls that are not acquisitions, in block order. Every block counts,
// reachable or not; the checks skip the unreachable ones through CFG.
type AcquisitionFacts struct {
	Body  *mir.Body
	CFG   *cfg.Graph
	Own   []*Event[Acquisition]
	Calls []CallSite // ArgPaths is the receiver path alone
}

// Site returns the call site that terminates block at, if any.
func (f *AcquisitionFacts) Site(at mir.BlockID) (CallSite, bool) {
	i := sort.Search(len(f.Calls), func(i int) bool { return f.Calls[i].At >= at })
	if i < len(f.Calls) && f.Calls[i].At == at {
		return f.Calls[i], true
	}
	return CallSite{}, false
}

// Inherited returns the events of the function's summary sum that it
// inherits at its reachable call sites, sorted by call block, then span,
// then path.
func (f *AcquisitionFacts) Inherited(sum AcquisitionSummary) []*Event[Acquisition] {
	var out []*Event[Acquisition]
	for _, e := range sum {
		if _, ok := f.Site(e.Data.At); ok && f.CFG.Reachable(e.Data.At) {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Data.At != b.Data.At {
			return a.Data.At < b.Data.At
		}
		if a.Span.Start != b.Span.Start {
			return a.Span.Start < b.Span.Start
		}
		return a.Path < b.Path
	})
	return out
}

// CallSpan returns the span of the call that terminates block at.
func (f *AcquisitionFacts) CallSpan(at mir.BlockID) source.Span {
	return f.Body.Blocks[at].Term.(mir.Call).Span
}

// Acquisitions returns (computing once per Context) the acquisition
// facts of function fn: one event per lock(), read() or write() call
// with a receiver path, and one call site per other resolved call, each
// with the locks held at the call.
func Acquisitions(ctx *detect.Context, fn string) *AcquisitionFacts {
	return detect.Shared(ctx, "doublelock.acquisitions", fn, func() *AcquisitionFacts {
		body := ctx.Bodies[fn]
		lf := Facts(ctx, fn)
		af := &AcquisitionFacts{Body: body, CFG: lf.CFG}
		for _, blk := range body.Blocks {
			c, ok := blk.Term.(mir.Call)
			if !ok {
				continue
			}
			held := func() map[string]Mode { return Held(lf.Live.StateAt(blk.ID, len(blk.Stmts)), lf.Guards) }
			if mode, isAcq := acquireIntrinsic(c.Intrinsic); isAcq && c.RecvPath != "" {
				af.Own = append(af.Own, &Event[Acquisition]{
					Path: c.RecvPath, Fn: fn, Span: c.Span, Locks: held(),
					Data: Acquisition{Mode: mode, At: blk.ID},
				})
			} else if callee := ctx.Callee(c); callee != "" {
				// Only method calls carry a receiver path, and a method's
				// first parameter is self: the receiver-only argument list
				// translates exactly the self-rooted callee paths.
				af.Calls = append(af.Calls, CallSite{Callee: callee, At: blk.ID, ArgPaths: []string{c.RecvPath}, Held: held()})
			}
		}
		return af
	})
}

// SummarizeAcquisitions returns (computing once per Context) every
// function's acquisition summary on the event summary (SummarizeEvents),
// built from Acquisitions and shared by the double-lock and lock-order
// detectors.
func SummarizeAcquisitions(ctx *detect.Context) *summary.Result[AcquisitionSummary] {
	return SummarizeEvents(ctx, "doublelock.acquisition-summary", &EventProblem[mir.BlockID, Acquisition, CallSite]{
		Facts: func(fn string) ([]*Event[Acquisition], []CallSite) {
			f := Acquisitions(ctx, fn)
			return f.Own, f.Calls
		},
		ID: func(a Acquisition) mir.BlockID { return a.At },
		// An inherited acquisition happens at the call, in the caller's
		// body.
		Step: func(a Acquisition, cs CallSite, _ func(string) string) Acquisition {
			a.At = cs.At
			return a
		},
	})
}

func (d *Detector) checkFunction(ctx *detect.Context, name string, sum AcquisitionSummary) []detect.Finding {
	af := Acquisitions(ctx, name)
	var out []detect.Finding
	for _, e := range af.Own {
		if !af.CFG.Reachable(e.Data.At) {
			continue
		}
		if heldMode, isHeld := e.Locks[e.Path]; isHeld && d.conflicts(heldMode, e.Data.Mode) {
			out = append(out, detect.Finding{
				Kind:     detect.KindDoubleLock,
				Severity: detect.SeverityError,
				Function: name,
				Span:     e.Span,
				Message: fmt.Sprintf("%s() on %q while a %s guard of the same lock is still live",
					e.Data.Mode, e.Path, heldMode),
				Notes: []string{
					"Rust releases a lock when the guard's lifetime ends; the first guard is still in scope here",
				},
			})
		}
	}

	// Inter-procedural: a call that (transitively) acquires a lock the
	// caller holds, reported once per lock in the strongest mode the
	// callee acquires it.
	type lockAt struct {
		at   mir.BlockID
		lock string
	}
	var order []lockAt
	strongest := map[lockAt]Mode{}
	for _, e := range af.Inherited(sum) {
		k := lockAt{e.Data.At, e.Path}
		m, seen := strongest[k]
		if !seen {
			order = append(order, k)
		}
		if !seen || e.Data.Mode > m {
			strongest[k] = e.Data.Mode
		}
	}
	for _, k := range order {
		cs, _ := af.Site(k.at)
		mode := strongest[k]
		heldMode, isHeld := cs.Held[k.lock]
		if !isHeld || !d.conflicts(heldMode, mode) {
			continue
		}
		out = append(out, detect.Finding{
			Kind:     detect.KindDoubleLock,
			Severity: detect.SeverityError,
			Function: name,
			Span:     af.CallSpan(k.at),
			Message: fmt.Sprintf("call to %s acquires %q (%s) while a %s guard of the same lock is held",
				cs.Callee, k.lock, mode, heldMode),
			Notes: []string{
				fmt.Sprintf("%s acquires the lock internally; the caller's guard has not been dropped", cs.Callee),
			},
		})
	}
	return out
}
