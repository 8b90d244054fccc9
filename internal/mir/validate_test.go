package mir

import (
	"strings"
	"testing"

	"rustprobe/internal/source"
	"rustprobe/internal/types"
)

// wellFormed builds a small body that uses every terminator kind:
//
//	bb0: StorageLive(_2); _2 = &raw const _1; switchInt(copy _1) -> [0: bb1, otherwise: bb2]
//	bb1: _3 = lock(copy _1) -> bb3
//	bb2: unreachable
//	bb3: drop(_3) -> bb4
//	bb4: StorageDead(_2); nop; goto -> bb5
//	bb5: return
func wellFormed() *Body {
	b := &Body{ArgCount: 1}
	b.NewLocal("", types.UnitType, false, source.Span{})
	arg := b.NewLocal("m", types.I32Type, false, source.Span{})
	arg.IsArg = true
	p := b.NewLocal("p", types.UnknownType, false, source.Span{})
	g := b.NewLocal("", types.UnknownType, true, source.Span{})
	for i := 0; i < 6; i++ {
		b.NewBlock()
	}
	b.Blocks[0].Stmts = []Statement{
		StorageLive{Local: p.ID},
		Assign{Place: PlaceOf(p.ID), Rvalue: AddrOf{Place: PlaceOf(arg.ID)}},
		Assign{Place: PlaceOf(g.ID), Rvalue: UnaryOp{Op: "Not", X: Copy{Place: PlaceOf(arg.ID)}}},
		Assign{Place: PlaceOf(g.ID), Rvalue: Aggregate{Kind: AggTuple, Ops: []Operand{Move{Place: PlaceOf(p.ID)}}}},
	}
	b.Blocks[0].Term = SwitchInt{Disc: Copy{Place: PlaceOf(arg.ID)},
		Targets: []SwitchTarget{{Value: "0", Block: 1}}, Otherwise: 2}
	b.Blocks[1].Term = Call{Callee: "lock", Intrinsic: IntrinsicLock,
		Args: []Operand{Copy{Place: PlaceOf(arg.ID)}}, Dest: PlaceOf(g.ID), Target: 3}
	b.Blocks[2].Term = Unreachable{}
	b.Blocks[3].Term = Drop{Place: PlaceOf(g.ID), Target: 4}
	b.Blocks[4].Stmts = []Statement{StorageDead{Local: p.ID}, Nop{}}
	b.Blocks[4].Term = Goto{Target: 5}
	b.Blocks[5].Term = Return{}
	return b
}

func TestValidateWellFormed(t *testing.T) {
	b := wellFormed()
	if errs := Validate(b); len(errs) != 0 {
		t.Fatalf("well-formed body rejected: %v\n%s", errs, b)
	}
	out := b.String()
	for _, want := range []string{
		"_2 = &raw const _1",
		"_3 = Not(copy _1)",
		"_3 = tuple { move _2 }",
		"switchInt(copy _1) -> [0: bb1, otherwise: bb2]",
		"_3 = lock(copy _1) -> bb3",
		"unreachable",
		"drop(_3) -> bb4",
		"nop",
		"goto -> bb5",
		"// arg m",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("printed body missing %q:\n%s", want, out)
		}
	}
}

func TestValidateReportsViolations(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(b *Body)
		want    string
	}{
		{"no locals", func(b *Body) { b.Locals = nil }, "no locals"},
		{"no blocks", func(b *Body) { b.Blocks = nil }, "no blocks"},
		{"missing terminator", func(b *Body) { b.Blocks[5].Term = nil }, "bb5: missing terminator"},
		{"bad goto target", func(b *Body) { b.Blocks[4].Term = Goto{Target: 9} }, "targets invalid bb9"},
		{"bad switch target", func(b *Body) {
			b.Blocks[0].Term = SwitchInt{Disc: Const{Text: "c"}, Otherwise: -2}
		}, "targets invalid bb-2"},
		{"assign to out-of-range local", func(b *Body) {
			b.Blocks[0].Stmts = append(b.Blocks[0].Stmts, Assign{Place: PlaceOf(42), Rvalue: Use{X: Const{Text: "1"}}})
		}, "out-of-range local _42"},
		{"operand out of range", func(b *Body) {
			b.Blocks[0].Stmts = append(b.Blocks[0].Stmts, Assign{Place: PlaceOf(1),
				Rvalue: BinaryOp{Op: "Add", L: Copy{Place: PlaceOf(1)}, R: Move{Place: PlaceOf(17)}}})
		}, "out-of-range local _17"},
		{"ref of out-of-range place", func(b *Body) {
			b.Blocks[0].Stmts = append(b.Blocks[0].Stmts, Assign{Place: PlaceOf(2), Rvalue: Ref{Place: PlaceOf(30)}})
		}, "out-of-range local _30"},
		{"call arg out of range", func(b *Body) {
			b.Blocks[1].Term = Call{Callee: "f", Args: []Operand{Move{Place: PlaceOf(11)}}, Dest: PlaceOf(3), Target: 3}
		}, "out-of-range local _11"},
		{"drop of out-of-range place", func(b *Body) { b.Blocks[3].Term = Drop{Place: PlaceOf(12), Target: 4} }, "out-of-range local _12"},
		{"StorageLive out of range", func(b *Body) {
			b.Blocks[4].Stmts = append(b.Blocks[4].Stmts, StorageLive{Local: 50})
		}, "StorageLive of out-of-range local _50"},
		{"StorageDead out of range", func(b *Body) {
			b.Blocks[4].Stmts = append(b.Blocks[4].Stmts, StorageDead{Local: 51})
		}, "StorageDead of out-of-range local _51"},
		{"StorageDead never live", func(b *Body) {
			b.Blocks[4].Stmts = append(b.Blocks[4].Stmts, StorageDead{Local: 3})
		}, "StorageDead of local _3 that is never StorageLive"},
	}
	for _, c := range cases {
		b := wellFormed()
		c.corrupt(b)
		errs := Validate(b)
		found := false
		for _, e := range errs {
			if strings.Contains(e, c.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: Validate = %v, want an error containing %q", c.name, errs, c.want)
		}
	}
}
