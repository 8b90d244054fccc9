// Package uninit detects reads of uninitialized memory (Table 2's
// "Uninitialized" category, all unsafe→safe in the paper): a buffer created
// by alloc()/mem::uninitialized is read — dereferenced in rvalue position
// or by ptr::read — before any initializing write.
//
// Facts, the per-function dataflow of which locals point to uninitialized
// allocations, is shared through the detect.Context: the drop-bugs
// detector's invalid-free rule reads the same facts.
package uninit

import (
	"fmt"

	"rustprobe/internal/dataflow"
	"rustprobe/internal/detect"
	"rustprobe/internal/dropflow"
	"rustprobe/internal/mir"
	"rustprobe/internal/source"
)

// Detector finds uninitialized reads.
type Detector struct {
	// Precise drops candidate findings the shared dropflow walk proves
	// safe on every feasible path. See internal/dropflow.
	Precise bool
}

// New returns the detector.
func New() *Detector { return &Detector{} }

// NewPrecise returns the detector with path-sensitive refutation enabled.
func NewPrecise() *Detector { return &Detector{Precise: true} }

// Name implements detect.Detector.
func (*Detector) Name() string { return "uninitialized-read" }

// Run implements detect.Detector.
func (d *Detector) Run(ctx *detect.Context) []detect.Finding {
	var out []detect.Finding
	for _, name := range ctx.Graph.Names() {
		out = append(out, d.check(ctx, name)...)
	}
	detect.SortFindings(out)
	return out
}

func (d *Detector) check(ctx *detect.Context, name string) []detect.Finding {
	body := ctx.Bodies[name]
	g := ctx.CFG(name)
	var df *dropflow.Result
	if d.Precise {
		df = ctx.DropFlow(name)
	}
	res := Facts(ctx, name)

	var out []detect.Finding
	report := func(span source.Span, l mir.LocalID) {
		out = append(out, detect.Finding{
			Kind:     detect.KindUninitRead,
			Severity: detect.SeverityError,
			Function: name,
			Span:     span,
			Message:  fmt.Sprintf("read through %s before its allocation is initialized", body.Local(l)),
			Notes:    []string{"initialize with ptr::write or zero-fill before reading"},
		})
	}

	checkRead := func(state dataflow.BitSet, span source.Span, blk mir.BlockID, stmt int) func(mir.Place) {
		return func(p mir.Place) {
			if p.HasDeref() && state.Has(int(p.Local)) {
				if df.RefutesUninit(dropflow.SiteKey{Block: blk, Stmt: stmt, Local: p.Local}) {
					return
				}
				report(span, p.Local)
			}
		}
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
			// Only rvalue-side reads: the assigned place is a write.
			mir.ForEachOperandPlace(as.Rvalue, checkRead(res.StateAt(blk.ID, i), as.Span, blk.ID, i))
		}
		// ptr::read from uninitialized memory is also an uninit read.
		if c, ok := blk.Term.(mir.Call); ok && c.Intrinsic == mir.IntrinsicPtrRead {
			state := res.StateAt(blk.ID, len(blk.Stmts))
			if len(c.Args) > 0 {
				if pl, ok := mir.OperandPlace(c.Args[0]); ok && pl.IsLocal() && state.Has(int(pl.Local)) {
					if !df.RefutesUninit(dropflow.SiteKey{Block: blk.ID, Stmt: -1, Local: pl.Local}) {
						report(c.Span, pl.Local)
					}
				}
			}
		}
	}
	return out
}

// Facts returns (computing once per Context) the uninitialized-allocation
// dataflow of function fn. Bit l of a state is set when local l may hold a
// pointer to (or be a value of) memory that alloc()/mem::uninitialized
// returned and nothing has initialized yet. A copy or cast spreads the
// bit; an assignment through the pointer or ptr::write(l, _) initializes
// the memory and clears it. The result is shared by every detector that
// asks and must be treated as read-only.
func Facts(ctx *detect.Context, fn string) *dataflow.Result {
	return detect.Shared(ctx, "uninit.facts", fn, func() *dataflow.Result {
		return dataflow.Forward(ctx.CFG(fn), &dataflow.Problem{
			Bits:         len(ctx.Bodies[fn].Locals),
			TransferStmt: transferStmt,
			TransferTerm: transferTerm,
		})
	})
}

func transferStmt(state dataflow.BitSet, _ mir.BlockID, _ int, st mir.Statement) {
	as, ok := st.(mir.Assign)
	if !ok {
		return
	}
	if as.Place.HasDeref() {
		// Writing through the pointer initializes it.
		state.Clear(int(as.Place.Local))
		return
	}
	var src mir.Operand
	switch rv := as.Rvalue.(type) {
	case mir.Use:
		src = rv.X
	case mir.Cast:
		src = rv.X
	}
	if pl, ok := mir.OperandPlace(src); ok && pl.IsLocal() && state.Has(int(pl.Local)) {
		state.Set(int(as.Place.Local))
	} else {
		state.Clear(int(as.Place.Local))
	}
}

func transferTerm(state dataflow.BitSet, _ mir.BlockID, term mir.Terminator) {
	c, ok := term.(mir.Call)
	if !ok {
		return
	}
	switch c.Intrinsic {
	case mir.IntrinsicAlloc:
		if c.Dest.IsLocal() {
			state.Set(int(c.Dest.Local))
		}
	case mir.IntrinsicPtrWrite:
		if len(c.Args) > 0 {
			if pl, ok := mir.OperandPlace(c.Args[0]); ok && pl.IsLocal() {
				state.Clear(int(pl.Local))
			}
		}
	default:
		if c.Dest.IsLocal() {
			state.Clear(int(c.Dest.Local))
		}
	}
}
