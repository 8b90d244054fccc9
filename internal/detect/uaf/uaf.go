// Package uaf implements the paper's §7.1 use-after-free detector: it
// maintains the alive/dead state of every MIR local by monitoring
// StorageLive/StorageDead (and Drop, which frees heap owned by a value
// before its stack storage dies), runs a points-to analysis over
// references and raw pointers including ownership moves, and reports
// dereferences of pointers whose pointee may be dead. The inter-procedural
// part propagates "dereferences its i-th parameter" summaries bottom-up
// over the call graph; like the paper's prototype it is context-insensitive,
// which is exactly the imprecision behind the paper's three false
// positives.
package uaf

import (
	"fmt"

	"rustprobe/internal/dataflow"
	"rustprobe/internal/detect"
	"rustprobe/internal/dropflow"
	"rustprobe/internal/mir"
	"rustprobe/internal/source"
	"rustprobe/internal/summary"
	"rustprobe/internal/types"
)

// Detector is the use-after-free detector.
type Detector struct {
	// IntraOnly disables the inter-procedural parameter-dereference
	// summaries (the ablation the DESIGN.md index calls out): pointers
	// passed to callees are then never reported, trading the Figure 7
	// class of bugs for zero summary-induced false positives.
	IntraOnly bool
	// Precise enables the SafeDrop-style path-sensitive refutation pass:
	// candidate findings from the paper-faithful analysis are dropped
	// when the shared dropflow walk proves the site safe on every
	// feasible path. Off by default so the §7 table stays reproducible.
	Precise bool
}

// New returns the detector with inter-procedural analysis enabled.
func New() *Detector { return &Detector{} }

// NewPrecise returns the detector with path-sensitive refutation enabled.
func NewPrecise() *Detector { return &Detector{Precise: true} }

// Name implements detect.Detector.
func (*Detector) Name() string { return "use-after-free" }

// Run implements detect.Detector.
func (d *Detector) Run(ctx *detect.Context) []detect.Finding {
	var derefSummaries map[string]map[int]bool
	if !d.IntraOnly {
		derefSummaries = buildDerefSummaries(ctx)
	}
	var out []detect.Finding
	for _, name := range ctx.Graph.Names() {
		out = append(out, d.checkFunction(ctx, name, derefSummaries)...)
	}
	detect.SortFindings(out)
	return out
}

// buildDerefSummaries computes, bottom-up, which parameters each function
// may dereference (directly or through calls), as an SCC fixpoint so
// facts converge through arbitrarily interlocked recursion.
func buildDerefSummaries(ctx *detect.Context) map[string]map[int]bool {
	prob := &summary.Problem[map[int]bool]{
		Bottom: func(string) map[int]bool { return map[int]bool{} },
		Transfer: func(name string, get summary.Lookup[map[int]bool]) map[int]bool {
			return scanDerefParams(ctx, name, get)
		},
		Equal: func(a, b map[int]bool) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if !b[k] {
					return false
				}
			}
			return true
		},
	}
	return summary.Compute(ctx.Graph, prob).Summaries
}

// scanDerefParams recomputes one function's parameter-dereference summary
// from its body, reading callee summaries through get. It always builds a
// fresh map so fixpoint iterations never alias each other's state.
func scanDerefParams(ctx *detect.Context, name string, get summary.Lookup[map[int]bool]) map[int]bool {
	body := ctx.Bodies[name]
	s := map[int]bool{}
	if body == nil {
		return s
	}
	isParam := func(l mir.LocalID) (int, bool) {
		idx := int(l) - 1
		if idx >= 0 && idx < body.ArgCount {
			return idx, true
		}
		return 0, false
	}
	// Track which locals alias parameters (flow-insensitive).
	pts := ctx.PointsTo(name)
	aliasParam := func(l mir.LocalID) (int, bool) {
		if i, ok := isParam(l); ok {
			return i, true
		}
		for t := range pts.Targets(l) {
			if i, ok := isParam(t); ok {
				return i, true
			}
		}
		return 0, false
	}
	scanPlace := func(p mir.Place) {
		if !p.HasDeref() {
			return
		}
		if i, ok := aliasParam(p.Local); ok {
			s[i] = true
		}
	}
	for _, blk := range body.Blocks {
		for _, st := range blk.Stmts {
			if as, ok := st.(mir.Assign); ok {
				scanPlace(as.Place)
				forEachRvaluePlace(as.Rvalue, scanPlace)
			}
		}
		if c, ok := blk.Term.(mir.Call); ok {
			// Propagate callee summaries.
			calleeName := ctx.Callee(c)
			if calleeName != "" {
				callee, _ := get(calleeName)
				for i := range callee {
					if i < len(c.Args) {
						if pl, ok := mir.OperandPlace(c.Args[i]); ok {
							if pi, isP := aliasParam(pl.Local); isP {
								s[pi] = true
							}
						}
					}
				}
			}
			// External pointer-consuming calls conservatively
			// dereference raw-pointer arguments.
			if calleeName == "" && c.Intrinsic == mir.IntrinsicNone {
				for _, a := range c.Args {
					if pl, ok := mir.OperandPlace(a); ok {
						if _, isRaw := body.Local(pl.Local).Ty.(*types.RawPtr); isRaw {
							if pi, isP := aliasParam(pl.Local); isP {
								s[pi] = true
							}
						}
					}
				}
			}
		}
	}
	return s
}

// checkFunction runs the flow-sensitive dead-storage analysis and reports
// dereferences of may-dead storage.
func (d *Detector) checkFunction(ctx *detect.Context, name string, sums map[string]map[int]bool) []detect.Finding {
	body := ctx.Bodies[name]
	g := ctx.CFG(name)
	pts := ctx.PointsTo(name)
	n := len(body.Locals)

	// Precise mode: consult the shared path-sensitive walk. A candidate
	// finding is dropped only when dropflow positively proves its site
	// safe on every feasible path; missing or bailed results keep it.
	var df *dropflow.Result
	if d.Precise {
		df = ctx.DropFlow(name)
	}

	// May-dead forward analysis: gen at StorageDead and at Drop of
	// heap-owning values; kill at StorageLive and full reassignment.
	prob := &dataflow.Problem{
		Bits: n,
		TransferStmt: func(state dataflow.BitSet, _ mir.BlockID, _ int, st mir.Statement) {
			switch st := st.(type) {
			case mir.StorageDead:
				state.Set(int(st.Local))
			case mir.StorageLive:
				state.Clear(int(st.Local))
			case mir.Assign:
				if st.Place.IsLocal() {
					// Full reinitialization revives the storage.
					state.Clear(int(st.Place.Local))
				}
			}
		},
		TransferTerm: func(state dataflow.BitSet, _ mir.BlockID, term mir.Terminator) {
			switch term := term.(type) {
			case mir.Drop:
				if term.Place.IsLocal() && types.OwnsHeap(body.Local(term.Place.Local).Ty) {
					state.Set(int(term.Place.Local))
				}
			case mir.Call:
				if term.Dest.IsLocal() {
					state.Clear(int(term.Dest.Local))
				}
			}
		},
	}
	res := dataflow.Forward(g, prob)

	var out []detect.Finding
	report := func(span source.Span, ptr mir.LocalID, dead mir.LocalID, via string) {
		ptrName := body.Local(ptr).String()
		deadName := body.Local(dead).String()
		out = append(out, detect.Finding{
			Kind:     detect.KindUseAfterFree,
			Severity: detect.SeverityError,
			Function: name,
			Span:     span,
			Message:  fmt.Sprintf("pointer %s may dereference storage of %s after it is dead%s", ptrName, deadName, via),
			Notes: []string{
				fmt.Sprintf("%s's storage ends before this use", deadName),
			},
		})
	}

	// deadPointees returns the may-dead storage roots of a pointer local.
	deadPointees := func(state dataflow.BitSet, l mir.LocalID) (mir.LocalID, bool) {
		for t := range pts.Targets(l) {
			if t == l {
				continue
			}
			if body.Local(t).Name != "" && isStaticLocal(body.Local(t).Name) {
				continue
			}
			if state.Has(int(t)) {
				return t, true
			}
		}
		return 0, false
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
			state := res.StateAt(blk.ID, i)
			stmtIdx := i
			check := func(p mir.Place) {
				if !p.HasDeref() {
					return
				}
				if !types.IsPointerLike(body.Local(p.Local).Ty) {
					return
				}
				if dead, isDead := deadPointees(state, p.Local); isDead {
					if df.RefutesUseDead(dropflow.SiteKey{Block: blk.ID, Stmt: stmtIdx, Local: p.Local}) {
						return
					}
					report(as.Span, p.Local, dead, "")
				}
			}
			check(as.Place)
			forEachRvaluePlace(as.Rvalue, check)
		}
		// Calls: intra-procedural deref through operands plus the
		// inter-procedural summary check.
		if c, ok := blk.Term.(mir.Call); ok {
			state := res.StateAt(blk.ID, len(blk.Stmts))
			for argIdx, a := range c.Args {
				pl, isPlace := mir.OperandPlace(a)
				if !isPlace {
					continue
				}
				if pl.HasDeref() && types.IsPointerLike(body.Local(pl.Local).Ty) {
					if dead, isDead := deadPointees(state, pl.Local); isDead {
						if df.RefutesUseDead(dropflow.SiteKey{Block: blk.ID, Stmt: -1, Local: pl.Local}) {
							continue
						}
						report(c.Span, pl.Local, dead, "")
					}
					continue
				}
				// Passing a pointer to a callee that dereferences it —
				// the inter-procedural half, disabled under IntraOnly.
				if d.IntraOnly {
					continue
				}
				if !types.IsPointerLike(body.Local(pl.Local).Ty) {
					continue
				}
				derefs := false
				if calleeName := ctx.Callee(c); calleeName != "" {
					derefs = sums[calleeName][argIdx]
				} else if c.Intrinsic == mir.IntrinsicNone {
					// Unknown external callee: assume raw pointers are
					// dereferenced (the paper's detector does the same,
					// e.g. CMS_sign in Figure 7).
					_, derefs = body.Local(pl.Local).Ty.(*types.RawPtr)
				}
				if !derefs {
					continue
				}
				if dead, isDead := deadPointees(state, pl.Local); isDead {
					if df.RefutesUseDead(dropflow.SiteKey{Block: blk.ID, Stmt: -1, Local: pl.Local}) {
						continue
					}
					report(c.Span, pl.Local, dead, fmt.Sprintf(" (passed to %s which dereferences it)", c.Callee))
				}
			}
		}
	}
	return out
}

// forEachRvaluePlace calls f on each place rv reads: its operands, a
// borrowed place and a discriminant's place. Taking an address is not a
// dereference.
func forEachRvaluePlace(rv mir.Rvalue, f func(mir.Place)) {
	mir.ForEachOperandPlace(rv, f)
	switch rv := rv.(type) {
	case mir.Ref:
		f(rv.Place)
	case mir.Discriminant:
		f(rv.Place)
	}
}

func isStaticLocal(name string) bool {
	return len(name) > 7 && name[:7] == "static "
}
