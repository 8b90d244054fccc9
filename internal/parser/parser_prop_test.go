package parser

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"rustprobe/internal/ast"
)

// TestParserTotal: the parser never panics and always terminates, for
// arbitrary input including garbage.
func TestParserTotal(t *testing.T) {
	prop := func(src string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		crate, _, _ := ParseString("fuzz.rs", src)
		return crate != nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestParserTotalOnTokenSoup: same, with lexically valid but structurally
// random token streams (more likely to reach deep parser paths).
func TestParserTotalOnTokenSoup(t *testing.T) {
	words := []string{
		"fn", "f", "(", ")", "{", "}", "let", "x", "=", "1", ";", "match",
		"if", "else", "unsafe", "impl", "struct", "S", "&", "mut", "*",
		"->", "::", ".", ",", "<", ">", "[", "]", "loop", "while", "for",
		"in", "return", "break", "|", "move", "self", "Some", "None",
		"=>", "_", "'a", "#",
	}
	prop := func(seed int64) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		r := rand.New(rand.NewSource(seed))
		var b strings.Builder
		n := 1 + r.Intn(80)
		for i := 0; i < n; i++ {
			b.WriteString(words[r.Intn(len(words))])
			b.WriteByte(' ')
		}
		crate, _, _ := ParseString("soup.rs", b.String())
		return crate != nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 4000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestSpansNest: every walked node's span is contained in its crate span,
// on a corpus of realistic programs.
func TestSpansNest(t *testing.T) {
	srcs := []string{
		`fn f(x: Arc<Mutex<i32>>) -> Option<i32> { if c { Some(1) } else { None } }`,
		`struct S { a: Vec<u8> } impl S { fn m(&self) -> u8 { self.a[0] } }`,
		`fn g() { for i in 0..10 { match i { 0 => {}, _ => break } } }`,
		`unsafe fn h(p: *mut u8) { *p = 1; }`,
	}
	for _, src := range srcs {
		crate, _, diags := ParseString("t.rs", src)
		if diags.HasErrors() {
			t.Fatalf("parse errors: %s", diags.String())
		}
		ast.Inspect(crate, func(n ast.Node) {
			sp := n.Span()
			if sp.Len() == 0 && sp.Start == 0 {
				return // synthesized node without position
			}
			if !crate.Span().ContainsSpan(sp) {
				t.Errorf("node %T span %v escapes crate span %v in %q", n, sp, crate.Span(), src)
			}
		})
	}
}

// TestDeterministicParse: parsing the same input twice yields structurally
// identical ASTs (verified via the walk sequence of node types and spans).
func TestDeterministicParse(t *testing.T) {
	src := `
struct Engine { state: Mutex<i32> }
impl Engine {
    fn run(&self) {
        let g = self.state.lock().unwrap();
        match *g { 0 => idle(), n => work(n) }
    }
}
`
	sig := func() []string {
		crate, _, _ := ParseString("d.rs", src)
		var out []string
		ast.Inspect(crate, func(n ast.Node) {
			out = append(out, nodeSig(n))
		})
		return out
	}
	a, b := sig(), sig()
	if len(a) != len(b) {
		t.Fatal("nondeterministic walk length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("walk differs at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func nodeSig(n ast.Node) string {
	return fmt.Sprintf("%T:%d:%d", n, n.Span().Start, n.Span().End)
}
