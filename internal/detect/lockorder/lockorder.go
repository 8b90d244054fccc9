// Package lockorder detects conflicting lock acquisition orders (an AB-BA
// deadlock), the second-most-common blocking-bug cause in the paper's §6.1
// (7 of 38 Mutex/RwLock bugs). It reuses the double-lock machinery's guard
// lifetimes: for every acquisition performed while another lock is held it
// records an ordered pair, then reports pairs observed in both directions.
// The check is inter-procedural: per-function acquisition summaries built
// on the shared SCC-fixpoint framework (internal/summary) let a call made
// while a lock is held contribute pairs for every lock the callee may
// transitively acquire.
package lockorder

import (
	"fmt"
	"sort"
	"strings"

	"rustprobe/internal/dataflow"
	"rustprobe/internal/detect"
	"rustprobe/internal/mir"
	"rustprobe/internal/source"
	"rustprobe/internal/summary"
)

// Detector finds AB-BA lock order conflicts.
type Detector struct {
	// IntraOnly disables the bottom-up acquisition summaries:
	// caller-holds/callee-acquires orderings are then invisible.
	IntraOnly bool
}

// New returns the detector.
func New() *Detector { return &Detector{} }

// Name implements detect.Detector.
func (*Detector) Name() string { return "conflicting-lock-order" }

type acquisition struct {
	first, second string // lock ids, second acquired while first held
	fn            string
	span          source.Span
}

// heldCall is a resolved call site executed while locks are held — the
// summary-independent half of the inter-procedural check. The held set
// is expanded against the callee's acquisition summary at pairing time.
type heldCall struct {
	callee string
	recv   string // receiver path for summary.Translate
	span   source.Span
	held   []string
}

// funcInfo is the cached per-function extraction: direct AB pairs and
// held call sites, both derived from the body alone (plus which callee
// names resolved, so a cached entry can be revalidated when the body
// set changes).
type funcInfo struct {
	body   *mir.Body
	direct []acquisition
	calls  []heldCall
}

// carry is the detector's cross-round state; see detect.Incremental.
type carry struct {
	infos map[string]*funcInfo
	sums  *summary.Result[map[string]bool]
}

// FactCount implements detect.FactCounter.
func (c *carry) FactCount() int { return len(c.infos) }

// Run implements detect.Detector.
func (d *Detector) Run(ctx *detect.Context) []detect.Finding {
	out, _, _ := d.RunIncremental(ctx, nil, nil)
	return out
}

// RunIncremental implements detect.Incremental: direct-pair and
// held-call extraction is reused for clean functions (validated by body
// identity), the acquisition summaries warm-start from the prior SCC
// fixpoint, and the AB-BA index pairing — the cheap global phase —
// re-runs in full.
func (d *Detector) RunIncremental(ctx *detect.Context, prior detect.Carry, dirty map[string]bool) ([]detect.Finding, detect.Carry, int) {
	prev, _ := prior.(*carry)
	infos := map[string]*funcInfo{}
	recompute := map[string]bool{}
	reused := 0
	var warm *summary.Result[map[string]bool]
	if prev != nil {
		warm = prev.sums
	}
	for _, name := range ctx.Graph.Names() {
		if prev != nil && !dirty[name] {
			if old := prev.infos[name]; old != nil && old.body == ctx.Bodies[name] {
				infos[name] = old
				reused++
				continue
			}
		}
		infos[name] = extract(ctx, name)
		recompute[name] = true
	}
	var sres *summary.Result[map[string]bool]
	var sums map[string]map[string]bool
	if !d.IntraOnly {
		detect.CloseOverCallers(ctx.Graph, recompute)
		sres = buildSummaries(ctx, warm, recompute)
		sums = sres.Summaries
	}
	var acqs []acquisition
	for _, name := range ctx.Graph.Names() {
		info := infos[name]
		acqs = append(acqs, info.direct...)
		for _, hc := range info.calls {
			if sums == nil {
				continue
			}
			for id := range sums[hc.callee] {
				tid := summary.Translate(id, hc.recv)
				if tid == "" {
					continue
				}
				for _, h := range hc.held {
					if h == tid {
						continue // same lock twice: the double-lock detector's case
					}
					acqs = append(acqs, acquisition{first: h, second: tid, fn: name, span: hc.span})
				}
			}
		}
	}

	// Normalize lock ids across functions: methods of the same type refer
	// to "self.x"; free functions to parameter paths. Pair keys combine
	// the holder's id with the acquired id.
	index := map[[2]string][]acquisition{}
	for _, a := range acqs {
		index[[2]string{a.first, a.second}] = append(index[[2]string{a.first, a.second}], a)
	}

	var out []detect.Finding
	seen := map[[2]string]bool{}
	var keys [][2]string
	for k := range index {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		rev := [2]string{k[1], k[0]}
		if k[0] == k[1] {
			continue // same lock twice is the double-lock detector's job
		}
		if _, hasRev := index[rev]; !hasRev {
			continue
		}
		canon := k
		if strings.Compare(canon[0], canon[1]) > 0 {
			canon = rev
		}
		if seen[canon] {
			continue
		}
		seen[canon] = true
		a := index[k][0]
		b := index[rev][0]
		out = append(out, detect.Finding{
			Kind:     detect.KindLockOrder,
			Severity: detect.SeverityError,
			Function: a.fn,
			Span:     a.span,
			Message: fmt.Sprintf("locks %q and %q are acquired in conflicting orders (%s acquires %q then %q; %s acquires %q then %q)",
				k[0], k[1], a.fn, a.first, a.second, b.fn, b.first, b.second),
			Notes: []string{"two threads interleaving these paths deadlock"},
		})
	}
	detect.SortFindings(out)
	return out, &carry{infos: infos, sums: sres}, reused
}

// buildSummaries computes, bottom-up, the set of lock ids each function
// may (transitively) acquire, in its own namespace; shares the SCC
// fixpoint engine with the double-lock detector so cyclic call graphs
// converge instead of being cut off after a bounded number of rounds.
// SCCs outside the recompute closure reuse warm's fixpoint unchanged.
func buildSummaries(ctx *detect.Context, warm *summary.Result[map[string]bool], recompute map[string]bool) *summary.Result[map[string]bool] {
	prob := &summary.Problem[map[string]bool]{
		Bottom: func(string) map[string]bool { return map[string]bool{} },
		Equal: func(a, b map[string]bool) bool {
			if len(a) != len(b) {
				return false
			}
			for id := range a {
				if !b[id] {
					return false
				}
			}
			return true
		},
		Transfer: func(name string, get summary.Lookup[map[string]bool]) map[string]bool {
			body := ctx.Bodies[name]
			s := map[string]bool{}
			for _, blk := range body.Blocks {
				c, ok := blk.Term.(mir.Call)
				if !ok {
					continue
				}
				switch c.Intrinsic {
				case mir.IntrinsicLock, mir.IntrinsicRead, mir.IntrinsicWrite:
					if c.RecvPath != "" {
						s[c.RecvPath] = true
					}
					continue
				}
				calleeName := resolvedCallee(ctx, c)
				if calleeName == "" {
					continue
				}
				cs, known := get(calleeName)
				if !known {
					continue
				}
				for id := range cs {
					tid := summary.Translate(id, c.RecvPath)
					if tid == "" {
						continue
					}
					if strings.HasPrefix(tid, "self") || strings.HasPrefix(tid, "static ") {
						s[tid] = true
					}
				}
			}
			return s
		},
	}
	return summary.ComputeFrom(ctx.Graph, prob, warm, recompute)
}

func resolvedCallee(ctx *detect.Context, c mir.Call) string {
	if c.Def != nil {
		if _, ok := ctx.Bodies[c.Def.Qualified]; ok {
			return c.Def.Qualified
		}
	}
	if _, ok := ctx.Bodies[c.Callee]; ok {
		return c.Callee
	}
	return ""
}

// extract finds the summary-independent facts of one function: direct
// (held, acquired) pairs, plus resolved calls made while a guard is live
// — the latter expanded against callee acquisition summaries at pairing
// time.
func extract(ctx *detect.Context, name string) *funcInfo {
	body := ctx.Bodies[name]
	g := ctx.CFG(name)

	// Reuse a small local version of the double-lock guard analysis.
	origins := map[mir.LocalID]string{}
	changed := true
	for changed {
		changed = false
		for _, blk := range body.Blocks {
			for _, st := range blk.Stmts {
				if as, ok := st.(mir.Assign); ok && as.Place.IsLocal() {
					if use, ok := as.Rvalue.(mir.Use); ok {
						if pl, ok := mir.OperandPlace(use.X); ok && pl.IsLocal() {
							if id, has := origins[pl.Local]; has {
								if _, dup := origins[as.Place.Local]; !dup {
									origins[as.Place.Local] = id
									changed = true
								}
							}
						}
					}
				}
			}
			if c, ok := blk.Term.(mir.Call); ok && c.Dest.IsLocal() {
				switch c.Intrinsic {
				case mir.IntrinsicLock, mir.IntrinsicRead, mir.IntrinsicWrite:
					if c.RecvPath != "" {
						if _, dup := origins[c.Dest.Local]; !dup {
							origins[c.Dest.Local] = c.RecvPath
							changed = true
						}
					}
				case mir.IntrinsicUnwrap:
					if len(c.Args) > 0 {
						if pl, ok := mir.OperandPlace(c.Args[0]); ok && pl.IsLocal() {
							if id, has := origins[pl.Local]; has {
								if _, dup := origins[c.Dest.Local]; !dup {
									origins[c.Dest.Local] = id
									changed = true
								}
							}
						}
					}
				}
			}
		}
	}

	prob := &dataflow.Problem{
		Bits: len(body.Locals),
		TransferStmt: func(state dataflow.BitSet, _ mir.BlockID, _ int, st mir.Statement) {
			switch st := st.(type) {
			case mir.StorageDead:
				state.Clear(int(st.Local))
			case mir.Assign:
				if !st.Place.IsLocal() {
					// Guard moved into a field/deref place: the source
					// local no longer holds it (same rule as doublelock).
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
					if pl, ok := mir.OperandPlace(use.X); ok && pl.IsLocal() && state.Has(int(pl.Local)) {
						if _, isGuard := origins[pl.Local]; isGuard {
							state.Clear(int(pl.Local))
							state.Set(int(st.Place.Local))
							return
						}
					}
				}
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
				switch term.Intrinsic {
				case mir.IntrinsicLock, mir.IntrinsicRead, mir.IntrinsicWrite:
					if term.Dest.IsLocal() {
						if _, tracked := origins[term.Dest.Local]; tracked {
							state.Set(int(term.Dest.Local))
						}
					}
				case mir.IntrinsicUnwrap:
					if len(term.Args) > 0 {
						if pl, ok := mir.OperandPlace(term.Args[0]); ok && pl.IsLocal() && state.Has(int(pl.Local)) {
							state.Clear(int(pl.Local))
							if term.Dest.IsLocal() {
								state.Set(int(term.Dest.Local))
							}
						}
					}
				}
			}
		},
	}
	res := dataflow.Forward(g, prob)

	info := &funcInfo{body: body}
	for _, blk := range body.Blocks {
		if !g.Reachable(blk.ID) {
			continue
		}
		c, ok := blk.Term.(mir.Call)
		if !ok {
			continue
		}
		state := res.StateAt(blk.ID, len(blk.Stmts))
		held := map[string]bool{}
		state.ForEach(func(l int) {
			if id, isGuard := origins[mir.LocalID(l)]; isGuard {
				held[id] = true
			}
		})
		if len(held) == 0 {
			continue
		}
		switch c.Intrinsic {
		case mir.IntrinsicLock, mir.IntrinsicRead, mir.IntrinsicWrite:
			if c.RecvPath == "" {
				continue
			}
			for id := range held {
				if id == c.RecvPath {
					continue
				}
				info.direct = append(info.direct, acquisition{first: id, second: c.RecvPath, fn: name, span: c.Span})
			}
		default:
			// Inter-procedural: a call made while a guard is live orders
			// the held lock before everything the callee may acquire.
			calleeName := resolvedCallee(ctx, c)
			if calleeName == "" {
				continue
			}
			hc := heldCall{callee: calleeName, recv: c.RecvPath, span: c.Span}
			for id := range held {
				hc.held = append(hc.held, id)
			}
			sort.Strings(hc.held)
			info.calls = append(info.calls, hc)
		}
	}
	return info
}
