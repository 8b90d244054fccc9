// Package interiormut implements the static check the paper proposes in
// §7.2 for non-blocking bugs caused by interior mutability on shared
// types (Insight 10, Suggestion 8, Figure 9): when a struct is sharable
// across threads (implements Sync) and a method immutably borrows self
// (&self), any unsynchronized modification of self inside the method is a
// race risk. Two patterns are reported:
//
//  1. a non-atomic check-then-act on an atomic field of self: load() feeds
//     a branch and a reachable branch arm store()s the same field (the
//     Figure 9 AuthorityRound::generate_seal bug);
//  2. a plain write to self's storage through a pointer-cast of an
//     immutable borrow without holding any self-rooted lock (the Figure 4
//     TestCell::set pattern).
package interiormut

import (
	"fmt"
	"strings"

	"rustprobe/internal/ast"
	"rustprobe/internal/cfg"
	"rustprobe/internal/detect"
	"rustprobe/internal/mir"
	"rustprobe/internal/types"
)

// Detector finds unsynchronized interior mutability on Sync types.
type Detector struct{}

// New returns the detector.
func New() *Detector { return &Detector{} }

// Name implements detect.Detector.
func (*Detector) Name() string { return "interior-mutability" }

// funcInfo is one function's extraction, shared through the Context as
// kind interiormut.info: the &self-method shape facts the global pairing
// needs, plus the two per-function checks' findings computed
// unconditionally — the sharable() filter (which depends on the impl
// set, not the body) is applied at emission time.
type funcInfo struct {
	body     *mir.Body
	selfRef  bool // &self method with a known receiver type
	selfType string
	escaper  bool // returns a reference into self
	mutator  bool // writes self's storage through a pointer
	perFn    []detect.Finding
}

// Run implements detect.Detector.
func (d *Detector) Run(ctx *detect.Context) []detect.Finding {
	var out []detect.Finding
	var selfRefs []*funcInfo
	for _, name := range ctx.Graph.Names() {
		info := detect.Shared(ctx, "interiormut.info", name, func() *funcInfo { return extract(ctx, name) })
		if !info.selfRef {
			continue
		}
		selfRefs = append(selfRefs, info)
		if sharable(ctx, info.selfType) {
			out = append(out, info.perFn...)
		}
	}
	out = append(out, d.checkUnsafeImplWithRawFields(ctx)...)
	out = append(out, d.checkEscapingRefWithInteriorMut(selfRefs)...)
	detect.SortFindings(out)
	return out
}

// extract computes one function's facts.
func extract(ctx *detect.Context, name string) *funcInfo {
	body := ctx.Bodies[name]
	info := &funcInfo{body: body}
	fd := body.Func
	if fd == nil || fd.SelfKind != ast.SelfRef || fd.SelfType == "" {
		return info
	}
	info.selfRef = true
	info.selfType = fd.SelfType
	info.escaper = returnsReference(fd.Ret)
	info.mutator = mutatesSelfInterior(ctx, name)
	info.perFn = append(info.perFn, checkCheckThenAct(ctx, name)...)
	info.perFn = append(info.perFn, checkRawWrite(ctx, name)...)
	return info
}

// checkEscapingRefWithInteriorMut implements the paper's Suggestion 4 on
// the Figure 5 pattern (Rust std's Queue::peek/pop): a type where one
// &self method hands out a reference into self while another &self method
// mutates self through interior mutability. The borrow checker cannot see
// the conflict because both methods borrow immutably; the reference can
// dangle. This applies to any type, Sync or not — Figure 5's queue is a
// single-threaded memory-safety issue.
func (d *Detector) checkEscapingRefWithInteriorMut(selfRefs []*funcInfo) []detect.Finding {
	// Group &self methods by type.
	escapers := map[string][]string{} // type -> methods returning refs into self
	mutators := map[string][]*mir.Body{}
	for _, info := range selfRefs {
		if info.escaper {
			escapers[info.selfType] = append(escapers[info.selfType], info.body.Func.Qualified)
		}
		if info.mutator {
			mutators[info.selfType] = append(mutators[info.selfType], info.body)
		}
	}
	var out []detect.Finding
	for typeName, esc := range escapers {
		for _, mutBody := range mutators[typeName] {
			out = append(out, detect.Finding{
				Kind:     detect.KindInteriorMut,
				Severity: detect.SeverityWarning,
				Function: mutBody.Func.Qualified,
				Span:     mutBody.Func.Span,
				Message: fmt.Sprintf("interior mutability in a &self method of %s can invalidate references handed out by %s",
					typeName, strings.Join(esc, ", ")),
				Notes: []string{
					"both methods borrow &self, so the borrow checker cannot see the conflict (the std Queue::peek/pop issue)",
					"take &mut self in the mutating method, or return by value instead of by reference (paper Suggestion 4)",
				},
			})
		}
	}
	return out
}

// returnsReference reports whether a return type contains a reference.
func returnsReference(t types.Type) bool {
	switch t := t.(type) {
	case *types.Ref:
		return true
	case *types.Named:
		for _, a := range t.Args {
			if returnsReference(a) {
				return true
			}
		}
	case *types.Tuple:
		for _, e := range t.Elems {
			if returnsReference(e) {
				return true
			}
		}
	}
	return false
}

// mutatingMethods are container methods that modify their receiver.
var mutatingMethods = map[string]bool{
	"pop": true, "push": true, "insert": true, "remove": true, "clear": true,
	"set": true, "write": true, "push_back": true, "push_front": true,
	"pop_front": true, "pop_back": true, "truncate": true, "drain": true,
}

// mutatesSelfInterior reports whether a &self method writes self's storage
// through a pointer (assignment or a mutating container method on a
// self-aliased deref).
func mutatesSelfInterior(ctx *detect.Context, name string) bool {
	body := ctx.Bodies[name]
	pts := ctx.PointsTo(name)
	const selfLocal = mir.LocalID(1)
	aliasesSelf := func(l mir.LocalID) bool {
		if l == selfLocal {
			return true
		}
		return pts.Targets(l)[selfLocal]
	}
	for _, blk := range body.Blocks {
		for _, st := range blk.Stmts {
			as, ok := st.(mir.Assign)
			if !ok || !as.Place.HasDeref() {
				continue
			}
			if aliasesSelf(as.Place.Local) {
				// Self methods legitimately write through &mut projections;
				// interior mutation goes through a raw pointer.
				if _, isRaw := body.Local(as.Place.Local).Ty.(*types.RawPtr); isRaw {
					return true
				}
			}
		}
		if c, ok := blk.Term.(mir.Call); ok && len(c.Args) > 0 {
			short := c.Callee
			if i := strings.LastIndex(short, "::"); i >= 0 {
				short = short[i+2:]
			}
			if !mutatingMethods[short] {
				continue
			}
			if pl, isPlace := mir.OperandPlace(c.Args[0]); isPlace && pl.HasDeref() && aliasesSelf(pl.Local) {
				if _, isRaw := body.Local(pl.Local).Ty.(*types.RawPtr); isRaw {
					return true
				}
			}
		}
	}
	return false
}

// checkUnsafeImplWithRawFields audits `unsafe impl Send/Sync for T` where
// T stores raw pointers: the impl asserts thread safety for aliased
// mutable memory the compiler cannot see — the pattern behind Table 4's
// "Sync" sharing bugs, and the audit Suggestion 8 asks for.
func (d *Detector) checkUnsafeImplWithRawFields(ctx *detect.Context) []detect.Finding {
	var out []detect.Finding
	for _, im := range ctx.Program.Impls {
		if !im.Unsafety || (im.TraitName != "Sync" && im.TraitName != "Send") {
			continue
		}
		sd, ok := ctx.Program.Structs[im.TypeName]
		if !ok {
			continue
		}
		for _, field := range sd.Order {
			if _, isRaw := sd.Fields[field].(*types.RawPtr); !isRaw {
				continue
			}
			out = append(out, detect.Finding{
				Kind:     detect.KindInteriorMut,
				Severity: detect.SeverityWarning,
				Function: im.TypeName,
				Span:     im.Span,
				Message: fmt.Sprintf("unsafe impl %s for %s: field %q is a raw pointer the compiler cannot prove thread-safe",
					im.TraitName, im.TypeName, field),
				Notes: []string{
					"the impl is a manual assertion; audit every access to the pointed-to memory for synchronization",
				},
			})
			break
		}
	}
	return out
}

// sharable reports whether the type is shared across threads: an explicit
// (unsafe) impl of Sync or Send.
func sharable(ctx *detect.Context, typeName string) bool {
	return ctx.Program.ImplementsTrait(typeName, "Sync") ||
		ctx.Program.ImplementsTrait(typeName, "Send")
}

// checkCheckThenAct finds load(self.X) → branch → store(self.X) chains.
func checkCheckThenAct(ctx *detect.Context, name string) []detect.Finding {
	body := ctx.Bodies[name]
	g := ctx.CFG(name)

	// Gather atomic loads/stores on self-rooted paths.
	type site struct {
		block mir.BlockID
		call  mir.Call
	}
	var loads, stores, rmws []site
	for _, blk := range body.Blocks {
		if !g.Reachable(blk.ID) {
			continue
		}
		c, ok := blk.Term.(mir.Call)
		if !ok || c.RecvPath == "" || !strings.HasPrefix(c.RecvPath, "self.") {
			continue
		}
		switch {
		case strings.HasSuffix(c.Callee, "::load"):
			loads = append(loads, site{blk.ID, c})
		case strings.HasSuffix(c.Callee, "::store"):
			stores = append(stores, site{blk.ID, c})
		case strings.HasSuffix(c.Callee, "::compare_and_swap"),
			strings.HasSuffix(c.Callee, "::compare_exchange"),
			strings.HasSuffix(c.Callee, "::fetch_add"),
			strings.HasSuffix(c.Callee, "::fetch_sub"),
			strings.HasSuffix(c.Callee, "::swap"):
			rmws = append(rmws, site{blk.ID, c})
		}
	}
	if len(loads) == 0 || len(stores) == 0 {
		return nil
	}

	// A load whose destination (transitively) feeds a SwitchInt, with a
	// store to the same field reachable from the load: check-then-act.
	var out []detect.Finding
	for _, ld := range loads {
		if !feedsBranch(body, g, ld.call.Dest.Local, ld.block) {
			continue
		}
		reach := g.ReachableFrom(ld.block)
		for _, st := range stores {
			if st.call.RecvPath != ld.call.RecvPath || !reach[st.block] {
				continue
			}
			out = append(out, detect.Finding{
				Kind:     detect.KindInteriorMut,
				Severity: detect.SeverityError,
				Function: name,
				Span:     st.call.Span,
				Message: fmt.Sprintf("non-atomic check-then-act on %q: load() guards a branch that store()s the same atomic",
					ld.call.RecvPath),
				Notes: []string{
					"two threads can both observe the old value before either stores",
					"use compare_and_swap/compare_exchange to make the step atomic",
				},
			})
			break
		}
	}
	return out
}

// feedsBranch reports whether a local's value (propagated through copies
// and pure ops) reaches a SwitchInt discriminant.
func feedsBranch(body *mir.Body, g *cfg.Graph, start mir.LocalID, from mir.BlockID) bool {
	derived := map[mir.LocalID]bool{start: true}
	changed := true
	for changed {
		changed = false
		for _, blk := range body.Blocks {
			for _, st := range blk.Stmts {
				as, ok := st.(mir.Assign)
				if !ok || !as.Place.IsLocal() || derived[as.Place.Local] {
					continue
				}
				uses := false
				scan := func(op mir.Operand) {
					if pl, ok := mir.OperandPlace(op); ok && derived[pl.Local] {
						uses = true
					}
				}
				switch rv := as.Rvalue.(type) {
				case mir.Use:
					scan(rv.X)
				case mir.BinaryOp:
					scan(rv.L)
					scan(rv.R)
				case mir.UnaryOp:
					scan(rv.X)
				case mir.Cast:
					scan(rv.X)
				}
				if uses {
					derived[as.Place.Local] = true
					changed = true
				}
			}
		}
	}
	reach := g.ReachableFrom(from)
	for _, blk := range body.Blocks {
		if !reach[blk.ID] {
			continue
		}
		if sw, ok := blk.Term.(mir.SwitchInt); ok {
			if pl, ok := mir.OperandPlace(sw.Disc); ok && derived[pl.Local] {
				return true
			}
		}
	}
	return false
}

// checkRawWrite finds writes through pointers derived from &self without a
// self-rooted lock guard in scope anywhere in the function.
func checkRawWrite(ctx *detect.Context, name string) []detect.Finding {
	body := ctx.Bodies[name]
	g := ctx.CFG(name)
	pts := ctx.PointsTo(name)

	// self is always local _1 for methods.
	const selfLocal = mir.LocalID(1)

	// Does the function ever hold a lock rooted at self?
	locksSelf := false
	for _, blk := range body.Blocks {
		if c, ok := blk.Term.(mir.Call); ok {
			switch c.Intrinsic {
			case mir.IntrinsicLock, mir.IntrinsicRead, mir.IntrinsicWrite:
				if strings.HasPrefix(c.RecvPath, "self") {
					locksSelf = true
				}
			}
		}
	}
	if locksSelf {
		return nil
	}

	var out []detect.Finding
	for _, blk := range body.Blocks {
		if !g.Reachable(blk.ID) {
			continue
		}
		for _, st := range blk.Stmts {
			as, ok := st.(mir.Assign)
			if !ok || !as.Place.HasDeref() {
				continue
			}
			// The written-through pointer must alias self's storage.
			for t := range pts.Targets(as.Place.Local) {
				if t != selfLocal {
					continue
				}
				out = append(out, detect.Finding{
					Kind:     detect.KindInteriorMut,
					Severity: detect.SeverityWarning,
					Function: name,
					Span:     as.Span,
					Message:  "write to self's storage through a pointer in a &self method of a Sync type, with no synchronization",
					Notes: []string{
						"interior mutability on a shared type must guarantee internal mutual exclusion (paper Suggestion 8)",
					},
				})
				break
			}
		}
	}
	return out
}
