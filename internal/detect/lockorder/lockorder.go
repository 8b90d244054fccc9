// Package lockorder detects conflicting lock acquisition orders (an AB-BA
// deadlock), the second-most-common blocking-bug cause in the paper's §6.1
// (7 of 38 Mutex/RwLock bugs). It reads the double-lock detector's guard
// lifetimes (doublelock.Facts, shared per Context): for every acquisition
// performed while another lock is held it records an ordered pair, then
// reports pairs observed in both directions. The check is
// inter-procedural: the double-lock acquisition summaries
// (doublelock.Summaries) let a call made while a lock is held contribute
// pairs for every lock the callee may transitively acquire.
package lockorder

import (
	"fmt"
	"sort"
	"strings"

	"rustprobe/internal/detect"
	"rustprobe/internal/detect/doublelock"
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
// held call sites, both derived from the body alone.
type funcInfo struct {
	body   *mir.Body
	direct []acquisition
	calls  []heldCall
}

// carry is the detector's cross-round state; see detect.Incremental.
type carry struct {
	infos map[string]*funcInfo
	sums  *summary.Result[map[string]doublelock.Mode]
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
	var old map[string]*funcInfo
	var warm *summary.Result[map[string]doublelock.Mode]
	if prev != nil {
		old, warm = prev.infos, prev.sums
	}
	infos, recompute, reused := detect.ReuseFacts(ctx, old, dirty,
		func(f *funcInfo) *mir.Body { return f.body },
		func(name string) *funcInfo { return extract(ctx, name) })
	var sres *summary.Result[map[string]doublelock.Mode]
	var sums map[string]map[string]doublelock.Mode
	if !d.IntraOnly {
		detect.CloseOverCallers(ctx.Graph, recompute)
		sres = doublelock.Summaries(ctx, warm, recompute)
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

// extract finds the summary-independent facts of one function: direct
// (held, acquired) pairs, plus resolved calls made while a guard is live
// — the latter expanded against callee acquisition summaries at pairing
// time.
func extract(ctx *detect.Context, name string) *funcInfo {
	body := ctx.Bodies[name]
	lf := doublelock.Facts(ctx, name)
	info := &funcInfo{body: body}
	for _, blk := range body.Blocks {
		if !lf.CFG.Reachable(blk.ID) {
			continue
		}
		c, ok := blk.Term.(mir.Call)
		if !ok {
			continue
		}
		held := doublelock.Held(lf.Live.StateAt(blk.ID, len(blk.Stmts)), lf.Guards)
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
			calleeName := ctx.Callee(c)
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
