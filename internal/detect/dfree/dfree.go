// Package dfree detects the two drop-related memory bug classes of Table 2
// that the paper singles out as unique to Rust:
//
//   - invalid free (Figure 6): assigning a new value through a pointer to
//     uninitialized memory (`*f = FILE{...}` where f came from alloc())
//     runs the destructor of the garbage "previous value";
//   - double free: `ptr::read` duplicates ownership of a value, so both
//     the original and the copy run destructors when their lifetimes end.
package dfree

import (
	"fmt"

	"rustprobe/internal/detect"
	"rustprobe/internal/detect/uninit"
	"rustprobe/internal/dropflow"
	"rustprobe/internal/mir"
	"rustprobe/internal/types"
)

// Detector finds invalid-free and double-free patterns.
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
func (*Detector) Name() string { return "drop-bugs" }

// Run implements detect.Detector.
func (d *Detector) Run(ctx *detect.Context) []detect.Finding {
	var out []detect.Finding
	for _, name := range ctx.Graph.Names() {
		out = append(out, d.checkInvalidFree(ctx, name)...)
		out = append(out, d.checkDoubleFree(ctx, name)...)
	}
	detect.SortFindings(out)
	return out
}

// checkInvalidFree flags a plain MIR Assign through a pointer that the
// shared uninit facts say may point to an uninitialized allocation: the
// assignment drops the uninitialized previous value — invalid free — when
// the assigned type has drop glue. ptr::write initializes without dropping.
func (d *Detector) checkInvalidFree(ctx *detect.Context, name string) []detect.Finding {
	body := ctx.Bodies[name]
	g := ctx.CFG(name)
	var df *dropflow.Result
	if d.Precise {
		df = ctx.DropFlow(name)
	}
	res := uninit.Facts(ctx, name)

	var out []detect.Finding
	for _, blk := range body.Blocks {
		if !g.Reachable(blk.ID) {
			continue
		}
		for i, st := range blk.Stmts {
			as, ok := st.(mir.Assign)
			if !ok || !as.Place.HasDeref() {
				continue
			}
			base := as.Place.Local
			if _, isRaw := body.Local(base).Ty.(*types.RawPtr); !isRaw {
				continue
			}
			// The assigned value must have drop glue for the implicit
			// drop of the previous value to matter.
			if !types.NeedsDrop(mir.AssignedType(body, as)) {
				continue
			}
			state := res.StateAt(blk.ID, i)
			if state.Has(int(base)) {
				if df.RefutesUninit(dropflow.SiteKey{Block: blk.ID, Stmt: i, Local: base}) {
					continue
				}
				out = append(out, detect.Finding{
					Kind:     detect.KindInvalidFree,
					Severity: detect.SeverityError,
					Function: name,
					Span:     as.Span,
					Message:  fmt.Sprintf("assignment through %s drops the uninitialized previous value (invalid free)", body.Local(base)),
					Notes: []string{
						"the pointee comes from alloc() and was never initialized",
						"use ptr::write to initialize without dropping",
					},
				})
			}
		}
	}
	return out
}

// checkDoubleFree flags ptr::read duplications where both the original
// owner and the duplicate are dropped.
func (d *Detector) checkDoubleFree(ctx *detect.Context, name string) []detect.Finding {
	body := ctx.Bodies[name]
	g := ctx.CFG(name)
	pts := ctx.PointsTo(name)
	var df *dropflow.Result
	if d.Precise {
		df = ctx.DropFlow(name)
	}

	// Which locals are dropped somewhere (reachable)?
	dropped := map[mir.LocalID]bool{}
	for _, blk := range body.Blocks {
		if !g.Reachable(blk.ID) {
			continue
		}
		if dr, ok := blk.Term.(mir.Drop); ok && dr.Place.IsLocal() {
			dropped[dr.Place.Local] = true
		}
	}

	// duplicates[d] = original owner o when d was produced by
	// ptr::read(&o) (directly or through a pointer).
	var out []detect.Finding
	for _, blk := range body.Blocks {
		if !g.Reachable(blk.ID) {
			continue
		}
		c, ok := blk.Term.(mir.Call)
		if !ok || c.Intrinsic != mir.IntrinsicPtrRead {
			continue
		}
		if len(c.Args) == 0 || !c.Dest.IsLocal() {
			continue
		}
		pl, isPlace := mir.OperandPlace(c.Args[0])
		if !isPlace {
			continue
		}
		// Resolve the original owner: the pointer argument's targets.
		var owners []mir.LocalID
		if pl.IsLocal() {
			for t := range pts.Targets(pl.Local) {
				owners = append(owners, t)
			}
		}
		dup := c.Dest.Local
		// Follow one move of the duplicate into a named local.
		dupHolders := map[mir.LocalID]bool{dup: true}
		for _, blk2 := range body.Blocks {
			for _, st := range blk2.Stmts {
				if as, ok := st.(mir.Assign); ok && as.Place.IsLocal() {
					if use, ok := as.Rvalue.(mir.Use); ok {
						if p2, ok := mir.OperandPlace(use.X); ok && p2.IsLocal() && dupHolders[p2.Local] {
							dupHolders[as.Place.Local] = true
						}
					}
				}
			}
		}
		dupDropped := false
		for h := range dupHolders {
			if dropped[h] {
				dupDropped = true
			}
		}
		if !dupDropped {
			continue
		}
		for _, o := range owners {
			if dropped[o] {
				if df.RefutesDoubleFree(dropflow.SiteKey{Block: blk.ID, Stmt: -1, Local: pl.Local}) {
					break
				}
				out = append(out, detect.Finding{
					Kind:     detect.KindDoubleFree,
					Severity: detect.SeverityError,
					Function: name,
					Span:     c.Span,
					Message: fmt.Sprintf("ptr::read duplicates ownership of %s; both copies are dropped (double free)",
						body.Local(o)),
					Notes: []string{
						"move the value (t2 = t1) instead of ptr::read to transfer ownership",
					},
				})
				break
			}
		}
	}
	return out
}
