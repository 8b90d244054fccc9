package source

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestPositions(t *testing.T) {
	f := NewFile("a.rs", "fn main() {\n    let x = 1;\n}\n")
	tests := []struct {
		offset int
		line   int
		col    int
	}{
		{0, 1, 1},
		{3, 1, 4},
		{11, 1, 12},
		{12, 2, 1},
		{16, 2, 5},
		{27, 3, 1},
	}
	for _, tt := range tests {
		p := f.Position(tt.offset)
		if p.Line != tt.line || p.Column != tt.col {
			t.Errorf("Position(%d) = %d:%d, want %d:%d", tt.offset, p.Line, p.Column, tt.line, tt.col)
		}
	}
}

func TestLineText(t *testing.T) {
	f := NewFile("a.rs", "one\ntwo\nthree")
	if got := f.Line(2); got != "two" {
		t.Errorf("Line(2) = %q", got)
	}
	if got := f.Line(3); got != "three" {
		t.Errorf("Line(3) = %q", got)
	}
	if got := f.Line(99); got != "" {
		t.Errorf("Line(99) = %q", got)
	}
	if f.LineCount() != 3 {
		t.Errorf("LineCount = %d", f.LineCount())
	}
}

func TestFileSetMapping(t *testing.T) {
	fset := NewFileSet()
	a := fset.Add("a.rs", "aaaa")
	b := fset.Add("b.rs", "bbbbbb")
	if fset.FileFor(a.Base) != a {
		t.Error("a.Base maps to wrong file")
	}
	if fset.FileFor(b.Base+2) != b {
		t.Error("offset in b maps to wrong file")
	}
	pos := fset.Position(b.Base + 2)
	if pos.File != "b.rs" || pos.Column != 3 {
		t.Errorf("pos = %v", pos)
	}
	if got := fset.SpanText(NewSpan(b.Base, b.Base+3)); got != "bbb" {
		t.Errorf("SpanText = %q", got)
	}
}

func TestSpanAlgebra(t *testing.T) {
	s := NewSpan(10, 20)
	if !s.Contains(10) || s.Contains(20) || !s.Contains(19) {
		t.Error("Contains half-open semantics broken")
	}
	if !s.ContainsSpan(NewSpan(12, 18)) || s.ContainsSpan(NewSpan(5, 15)) {
		t.Error("ContainsSpan broken")
	}
	j := s.Join(NewSpan(15, 30))
	if j.Start != 10 || j.End != 30 {
		t.Errorf("Join = %+v", j)
	}
	// Inverted bounds are normalized.
	inv := NewSpan(9, 3)
	if inv.Start != 3 || inv.End != 9 {
		t.Errorf("NewSpan inverted = %+v", inv)
	}
}

func TestSpanJoinProperties(t *testing.T) {
	// Join is commutative and its result contains both inputs.
	prop := func(a1, a2, b1, b2 uint16) bool {
		a := NewSpan(int(a1%1000)+1, int(a2%1000)+1)
		b := NewSpan(int(b1%1000)+1, int(b2%1000)+1)
		ab, ba := a.Join(b), b.Join(a)
		return ab == ba && ab.ContainsSpan(a) && ab.ContainsSpan(b)
	}
	if err := quick.Check(prop, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestPositionTotal(t *testing.T) {
	// Position never panics and is monotone in the offset.
	prop := func(content string, off1, off2 uint16) bool {
		f := NewFile("x.rs", content)
		a, b := int(off1), int(off2)
		if a > b {
			a, b = b, a
		}
		pa, pb := f.Position(a), f.Position(b)
		if pa.Line > pb.Line {
			return false
		}
		return pa.Line != pb.Line || pa.Column <= pb.Column
	}
	if err := quick.Check(prop, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestDiagnostics(t *testing.T) {
	fset := NewFileSet()
	f := fset.Add("a.rs", "let x = ;\n")
	d := NewDiagnostics(fset)
	d.Warningf(NewSpan(f.Base, f.Base+3), "suspicious %s", "thing")
	if d.HasErrors() {
		t.Error("warning counted as error")
	}
	d.Errorf(NewSpan(f.Base+8, f.Base+9), "expected expression")
	if !d.HasErrors() || d.Len() != 2 {
		t.Errorf("HasErrors/Len wrong: %d", d.Len())
	}
	out := d.String()
	if !strings.Contains(out, "a.rs:1:9") || !strings.Contains(out, "expected expression") {
		t.Errorf("render: %q", out)
	}
	d.Notef(NewSpan(f.Base, f.Base+1), "fyi")
	if d.All()[2].Severity != SeverityNote {
		t.Error("note severity lost")
	}
}

func TestSeverityStrings(t *testing.T) {
	if SeverityNote.String() != "note" || SeverityWarning.String() != "warning" || SeverityError.String() != "error" {
		t.Error("severity strings wrong")
	}
}

func TestFileSetMarkRollback(t *testing.T) {
	fset := NewFileSet()
	a := fset.Add("a.rs", "fn a() {}\n")
	mark := fset.Mark()
	size := fset.Size()

	fset.Add("b.rs", "fn b() {}\n")
	fset.Add("c.rs", "fn c() {}\n")
	fset.Rollback(mark)

	if got := len(fset.Files()); got != 1 {
		t.Fatalf("Files() = %d after rollback, want 1", got)
	}
	if fset.Size() != size {
		t.Fatalf("Size() = %d after rollback, want %d", fset.Size(), size)
	}
	// Spans for the surviving file still resolve; a re-Add reuses the
	// reclaimed offset space.
	if pos := fset.Position(a.Base); pos.File != "a.rs" || pos.Line != 1 {
		t.Fatalf("surviving file position = %+v", pos)
	}
	b2 := fset.Add("b2.rs", "fn b2() {}\n")
	if pos := fset.Position(b2.Base); pos.File != "b2.rs" {
		t.Fatalf("re-added file position = %+v", pos)
	}
	// A stale mark (beyond the current set) is ignored.
	stale := Mark{files: 99, next: 12345}
	fset.Rollback(stale)
	if got := len(fset.Files()); got != 2 {
		t.Fatalf("stale rollback mutated the set: %d files", got)
	}
}

// TestFileSetCompareSourceOrder: Compare is plain offset order over
// files registered once, and a revision sorts where the file it revises
// does — against that file's older revision by offset, and against
// files registered after the original but before the revision by file.
func TestFileSetCompareSourceOrder(t *testing.T) {
	fset := NewFileSet()
	a := fset.Add("a.rs", "fn first() {}\nfn second() {}\n")
	b := fset.Add("b.rs", "fn other() {}\n")
	for _, pair := range [][2]int{{a.Base, a.Base + 3}, {a.Base + 3, b.Base}, {0, a.Base}, {b.Base + 4, b.Base + 100}} {
		if got := fset.Compare(pair[0], pair[1]); got != -1 {
			t.Errorf("Compare(%d, %d) = %d, want -1 (offset order)", pair[0], pair[1], got)
		}
	}

	// A same-length edit of first(): the revision's first() precedes the
	// older revision's second() and b.rs, though its offsets are higher.
	a2 := fset.Revise(a, strings.Replace(a.Content, "{}", "{;", 1))
	if a2.Name != "a.rs" || a2.Base <= b.Base {
		t.Fatalf("revision registered as %q at %d, want a.rs after b.rs (%d)", a2.Name, a2.Base, b.Base)
	}
	second := a.Base + strings.Index(a.Content, "fn second")
	if got := fset.Compare(a2.Base, second); got != -1 {
		t.Errorf("revised first() vs old second() = %d, want -1", got)
	}
	if got := fset.Compare(a2.Base+5, b.Base); got != -1 {
		t.Errorf("revised a.rs vs b.rs = %d, want -1", got)
	}
	if got := fset.Compare(a2.Base+5, a.Base+5); got != 0 {
		t.Errorf("one offset in two revisions = %d, want 0", got)
	}
}
