package mir

import (
	"strings"
	"testing"

	"rustprobe/internal/source"
	"rustprobe/internal/types"
)

func TestPlaceStringAndKey(t *testing.T) {
	p := PlaceOf(3).
		WithProj(DerefProj{}).
		WithProj(FieldProj{Name: "value"}).
		WithProj(IndexProj{})
	if p.String() != "_3.*.value[_]" {
		t.Errorf("String = %q", p.String())
	}
	if p.Key() != p.String() {
		t.Error("Key must equal String")
	}
	if !p.HasDeref() {
		t.Error("HasDeref lost the deref")
	}
	if p.IsLocal() {
		t.Error("projected place is not a bare local")
	}
	if !PlaceOf(1).IsLocal() {
		t.Error("bare local misdetected")
	}
}

func TestWithProjDoesNotAlias(t *testing.T) {
	base := PlaceOf(1).WithProj(FieldProj{Name: "a"})
	p1 := base.WithProj(FieldProj{Name: "x"})
	p2 := base.WithProj(FieldProj{Name: "y"})
	if p1.String() == p2.String() {
		t.Errorf("projection slices alias: %s vs %s", p1, p2)
	}
	if base.String() != "_1.a" {
		t.Errorf("base mutated: %s", base)
	}
}

func TestOperandHelpers(t *testing.T) {
	pl := PlaceOf(2)
	if p, ok := OperandPlace(Copy{Place: pl}); !ok || p.Local != 2 {
		t.Error("OperandPlace(Copy) wrong")
	}
	if p, ok := OperandPlace(Move{Place: pl}); !ok || p.Local != 2 {
		t.Error("OperandPlace(Move) wrong")
	}
	if _, ok := OperandPlace(Const{Text: "1"}); ok {
		t.Error("Const has no place")
	}
	if !IsMove(Move{Place: pl}) || IsMove(Copy{Place: pl}) {
		t.Error("IsMove wrong")
	}
}

// TestRvalueHelpers: the operand walk visits operand places only, and an
// assignment's type comes from the used local, the constant or the
// aggregate's name.
func TestRvalueHelpers(t *testing.T) {
	var got []string
	visit := func(p Place) { got = append(got, p.String()) }
	for _, rv := range []Rvalue{
		BinaryOp{L: Copy{Place: PlaceOf(1)}, R: Const{Text: "1"}},
		Aggregate{Ops: []Operand{Move{Place: PlaceOf(2)}, Copy{Place: PlaceOf(3)}}},
		Ref{Place: PlaceOf(4)}, AddrOf{Place: PlaceOf(5)}, Discriminant{Place: PlaceOf(6)},
	} {
		ForEachOperandPlace(rv, visit)
	}
	if strings.Join(got, " ") != "_1 _2 _3" {
		t.Errorf("operand places = %v, want [_1 _2 _3]", got)
	}

	b := &Body{}
	b.NewLocal("", types.UnitType, true, source.Span{})
	v := b.NewLocal("v", types.NamedOf("Vec", types.U8Type), false, source.Span{})
	for _, tc := range []struct {
		rv   Rvalue
		want string
	}{
		{Use{X: Move{Place: PlaceOf(v.ID).WithProj(FieldProj{Name: "f"})}}, "Vec<u8>"},
		{Use{X: Const{Text: "1", Ty: types.I32Type}}, "i32"},
		{Aggregate{Kind: AggStruct, Name: "FILE"}, "FILE"},
		{Ref{Place: PlaceOf(v.ID)}, "?"},
	} {
		if got := AssignedType(b, Assign{Place: PlaceOf(0), Rvalue: tc.rv}).String(); got != tc.want {
			t.Errorf("AssignedType(%s) = %s, want %s", tc.rv.rvalueString(), got, tc.want)
		}
	}
	if !IsChannelCtor("mpsc::channel") || IsChannelCtor("Vec::new") {
		t.Error("IsChannelCtor wrong")
	}
}

func TestTerminatorSuccessors(t *testing.T) {
	if got := (Goto{Target: 4}).Successors(); len(got) != 1 || got[0] != 4 {
		t.Errorf("Goto successors = %v", got)
	}
	sw := SwitchInt{
		Targets:   []SwitchTarget{{Value: "a", Block: 1}, {Value: "b", Block: 2}},
		Otherwise: 3,
	}
	if got := sw.Successors(); len(got) != 3 {
		t.Errorf("SwitchInt successors = %v", got)
	}
	swNoOther := SwitchInt{Targets: []SwitchTarget{{Block: 1}}, Otherwise: InvalidBlock}
	if got := swNoOther.Successors(); len(got) != 1 {
		t.Errorf("SwitchInt w/o otherwise = %v", got)
	}
	if got := (Return{}).Successors(); got != nil {
		t.Errorf("Return successors = %v", got)
	}
	if got := (Call{Target: 7}).Successors(); len(got) != 1 || got[0] != 7 {
		t.Errorf("Call successors = %v", got)
	}
	if got := (Drop{Target: 9}).Successors(); len(got) != 1 || got[0] != 9 {
		t.Errorf("Drop successors = %v", got)
	}
	if got := (Unreachable{}).Successors(); got != nil {
		t.Errorf("Unreachable successors = %v", got)
	}
}

func TestBodyPrinting(t *testing.T) {
	b := &Body{}
	b.NewLocal("", types.UnitType, false, source.Span{}) // return place
	x := b.NewLocal("x", types.I32Type, false, source.Span{})
	blk := b.NewBlock()
	blk.Stmts = []Statement{
		StorageLive{Local: x.ID},
		Assign{Place: PlaceOf(x.ID), Rvalue: Use{X: Const{Text: "1", Ty: types.I32Type}}},
		StorageDead{Local: x.ID},
	}
	blk.Term = Return{}
	out := b.String()
	for _, want := range []string{"StorageLive(_1)", "_1 = const 1", "StorageDead(_1)", "return", "let _1: i32"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed body missing %q:\n%s", want, out)
		}
	}
}

func TestRvalueStrings(t *testing.T) {
	pl := PlaceOf(1)
	tests := []struct {
		rv   Rvalue
		want string
	}{
		{Use{X: Move{Place: pl}}, "move _1"},
		{Ref{Mut: true, Place: pl}, "&mut _1"},
		{Ref{Place: pl}, "&_1"},
		{AddrOf{Mut: true, Place: pl}, "&raw mut _1"},
		{Cast{X: Copy{Place: pl}, To: types.USizeType}, "copy _1 as usize"},
		{BinaryOp{Op: "Add", L: Copy{Place: pl}, R: Const{Text: "2"}}, "Add(copy _1, const 2)"},
		{Discriminant{Place: pl}, "discriminant(_1)"},
	}
	for _, tt := range tests {
		if got := tt.rv.rvalueString(); got != tt.want {
			t.Errorf("rvalueString = %q, want %q", got, tt.want)
		}
	}
	agg := Aggregate{Kind: AggStruct, Name: "Point", Fields: []string{"x"}, Ops: []Operand{Const{Text: "1"}}}
	if got := agg.rvalueString(); got != "Point { x: const 1 }" {
		t.Errorf("aggregate = %q", got)
	}
}

func TestLocalString(t *testing.T) {
	l := &Local{ID: 2, Name: "inner"}
	if l.String() != "_2(inner)" {
		t.Errorf("named local = %q", l.String())
	}
	tmp := &Local{ID: 5}
	if tmp.String() != "_5" {
		t.Errorf("temp = %q", tmp.String())
	}
}

// TestClosureLocals: a closure value is tracked through moves into later
// locals; other locals are not.
func TestClosureLocals(t *testing.T) {
	body := &Body{Blocks: []*Block{{Stmts: []Statement{
		Assign{Place: PlaceOf(2), Rvalue: Use{X: Move{Place: PlaceOf(1)}}},
		Assign{Place: PlaceOf(1), Rvalue: Aggregate{Kind: AggClosure, Name: "f::{closure#0}"}},
		Assign{Place: PlaceOf(3), Rvalue: Aggregate{Kind: AggTuple}},
		Assign{Place: PlaceOf(4), Rvalue: Use{X: Const{Text: "1"}}},
	}}}}
	got := ClosureLocals(body)
	if len(got) != 2 || got[1] != "f::{closure#0}" || got[2] != "f::{closure#0}" {
		t.Errorf("ClosureLocals = %v, want _1 and _2 (through the move)", got)
	}
}

func TestParamNamesAndMethodName(t *testing.T) {
	body := &Body{ArgCount: 2, Locals: []*Local{{Name: "ret"}, {Name: "self"}, {Name: "n"}, {Name: "tmp"}}}
	if got := strings.Join(ParamNames(body), ","); got != "self,n" {
		t.Errorf("ParamNames = %q, want self,n", got)
	}
	if ParamNames(nil) != nil {
		t.Error("ParamNames(nil) is not nil")
	}
	for in, want := range map[string]string{"Vec::push": "push", "a::b::c": "c", "spawn": "spawn"} {
		if got := MethodName(in); got != want {
			t.Errorf("MethodName(%q) = %q, want %q", in, got, want)
		}
	}
}
