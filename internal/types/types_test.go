package types

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestStrings(t *testing.T) {
	tests := []struct {
		ty   Type
		want string
	}{
		{UnitType, "()"},
		{I32Type, "i32"},
		{RefTo(StrType), "&str"},
		{MutRefTo(NamedOf("Inner")), "&mut Inner"},
		{&RawPtr{Mut: true, Elem: U8Type}, "*mut u8"},
		{&RawPtr{Elem: U8Type}, "*const u8"},
		{NamedOf("Arc", NamedOf("Mutex", I32Type)), "Arc<Mutex<i32>>"},
		{&Tuple{Elems: []Type{I32Type, BoolType}}, "(i32, bool)"},
		{&Slice{Elem: U8Type}, "[u8]"},
		{&Array{Elem: U8Type, Len: 4}, "[u8; 4]"},
		{&Fn{Params: []Type{I32Type}, Ret: BoolType}, "fn(i32) -> bool"},
		{UnknownType, "?"},
		{NeverType, "!"},
	}
	for _, tt := range tests {
		if got := tt.ty.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestPeel(t *testing.T) {
	ty := RefTo(&RawPtr{Elem: NamedOf("T")})
	if Peel(ty).String() != "*const T" {
		t.Errorf("Peel = %s", Peel(ty))
	}
	if PeelAll(ty).String() != "T" {
		t.Errorf("PeelAll = %s", PeelAll(ty))
	}
	if Peel(I32Type) != I32Type {
		t.Error("Peel of non-pointer should be identity")
	}
}

func TestIsCopy(t *testing.T) {
	copyable := []Type{I32Type, BoolType, RefTo(I32Type), &RawPtr{Elem: U8Type},
		&Tuple{Elems: []Type{I32Type, BoolType}}, NeverType}
	for _, ty := range copyable {
		if !IsCopy(ty) {
			t.Errorf("%s should be Copy", ty)
		}
	}
	moveOnly := []Type{MutRefTo(I32Type), NamedOf("Vec", U8Type), NamedOf("String"),
		NamedOf("MutexGuard", I32Type), &Tuple{Elems: []Type{I32Type, NamedOf("Box", I32Type)}},
		UnknownType}
	for _, ty := range moveOnly {
		if IsCopy(ty) {
			t.Errorf("%s should move", ty)
		}
	}
}

func TestLockGuards(t *testing.T) {
	if lt, ok := IsLockGuard(NamedOf("MutexGuard", I32Type)); !ok || lt != "Mutex" {
		t.Errorf("MutexGuard: %q %v", lt, ok)
	}
	if lt, ok := IsLockGuard(NamedOf("RwLockReadGuard", I32Type)); !ok || lt != "RwLock" {
		t.Errorf("RwLockReadGuard: %q %v", lt, ok)
	}
	if _, ok := IsLockGuard(NamedOf("Vec", I32Type)); ok {
		t.Error("Vec is not a guard")
	}
	if !IsLock(NamedOf("Mutex", I32Type)) || !IsLock(NamedOf("RwLock", I32Type)) || IsLock(I32Type) {
		t.Error("IsLock wrong")
	}
}

func TestOwningContainers(t *testing.T) {
	for _, name := range []string{"Box", "Vec", "String", "Arc", "Rc", "HashMap"} {
		if !IsOwningContainer(NamedOf(name)) {
			t.Errorf("%s should own heap", name)
		}
	}
	if IsOwningContainer(NamedOf("Inner")) || IsOwningContainer(I32Type) {
		t.Error("non-containers misclassified")
	}
}

func TestNeedsDropAndOwnsHeap(t *testing.T) {
	glue := []Type{NamedOf("Vec", U8Type), NamedOf("Inner"), NamedOf("MutexGuard", I32Type),
		&Tuple{Elems: []Type{I32Type, NamedOf("Box", I32Type)}}, &Array{Elem: NamedOf("String"), Len: 2}}
	for _, ty := range glue {
		if !NeedsDrop(ty) {
			t.Errorf("%s should need drop", ty)
		}
	}
	noGlue := []Type{I32Type, RefTo(NamedOf("Vec")), &RawPtr{Elem: NamedOf("Inner")}, UnknownType,
		NamedOf("Duration"), NamedOf("NonNull", U8Type), NamedOf("Instant"), NamedOf("PhantomData"),
		NamedOf("Ordering"), &Tuple{Elems: []Type{I32Type, BoolType}}, &Array{Elem: U8Type, Len: 4}}
	for _, ty := range noGlue {
		if NeedsDrop(ty) {
			t.Errorf("%s should have no drop glue", ty)
		}
	}
	for _, ty := range []Type{NamedOf("Vec", U8Type), NamedOf("Inner"), NamedOf("Arc", I32Type)} {
		if !OwnsHeap(ty) {
			t.Errorf("%s should own heap", ty)
		}
	}
	for _, ty := range []Type{NamedOf("MutexGuard", I32Type), NamedOf("RwLockWriteGuard"), I32Type, RefTo(NamedOf("Vec"))} {
		if OwnsHeap(ty) {
			t.Errorf("%s should not own heap", ty)
		}
	}
}

// genType builds a random type of bounded depth for property tests.
func genType(r *rand.Rand, depth int) Type {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return I32Type
		case 1:
			return BoolType
		case 2:
			return UnknownType
		default:
			return NamedOf("T")
		}
	}
	switch r.Intn(6) {
	case 0:
		return RefTo(genType(r, depth-1))
	case 1:
		return MutRefTo(genType(r, depth-1))
	case 2:
		return &RawPtr{Mut: r.Intn(2) == 0, Elem: genType(r, depth-1)}
	case 3:
		return &Tuple{Elems: []Type{genType(r, depth-1), genType(r, depth-1)}}
	case 4:
		return NamedOf("Vec", genType(r, depth-1))
	default:
		return &Slice{Elem: genType(r, depth-1)}
	}
}

func TestEqualProperties(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	// Reflexivity and symmetry over random structural types.
	for i := 0; i < 500; i++ {
		a := genType(r, 3)
		b := genType(r, 3)
		if !Equal(a, a) {
			t.Fatalf("Equal not reflexive for %s", a)
		}
		if Equal(a, b) != Equal(b, a) {
			t.Fatalf("Equal not symmetric for %s / %s", a, b)
		}
		// Equal implies equal strings.
		if Equal(a, b) && a.String() != b.String() {
			t.Fatalf("equal types render differently: %s vs %s", a, b)
		}
	}
}

func TestPeelAllTerminates(t *testing.T) {
	prop := func(depth uint8) bool {
		r := rand.New(rand.NewSource(int64(depth)))
		ty := genType(r, int(depth%6))
		out := PeelAll(ty)
		// The result is never pointer-like.
		return !IsPointerLike(out)
	}
	if err := quick.Check(prop, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestPrimByName(t *testing.T) {
	if PrimByName["i32"] != I32 || PrimByName["usize"] != USize || PrimByName["bool"] != Bool {
		t.Error("PrimByName wrong")
	}
	if _, ok := PrimByName["Vec"]; ok {
		t.Error("Vec is not a primitive")
	}
	p := &Prim{Kind: U64}
	if !p.IsInteger() {
		t.Error("u64 is an integer")
	}
	if (&Prim{Kind: F32}).IsInteger() {
		t.Error("f32 is not an integer")
	}
	_ = reflect.TypeOf(p)
}

func TestNamedArg(t *testing.T) {
	n := NamedOf("Result", I32Type, BoolType)
	if n.Arg(0) != I32Type || n.Arg(1) != BoolType {
		t.Error("Arg wrong")
	}
	if n.Arg(5) != UnknownType {
		t.Error("out-of-range Arg should be Unknown")
	}
}
