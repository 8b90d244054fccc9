package lexer

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"rustprobe/internal/source"
	"rustprobe/internal/token"
)

// TestLexerTotal: the lexer never panics and always terminates with EOF,
// for arbitrary byte soup.
func TestLexerTotal(t *testing.T) {
	prop := func(src string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		fset := source.NewFileSet()
		f := fset.Add("fuzz.rs", src)
		toks := New(f, source.NewDiagnostics(fset)).Tokenize()
		return len(toks) > 0 && toks[len(toks)-1].Kind == token.EOF
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestTokenSpansOrderedAndFaithful: token spans are strictly increasing,
// non-overlapping, in-bounds, and each token's Text equals the source text
// its span covers.
func TestTokenSpansOrderedAndFaithful(t *testing.T) {
	prop := func(seed int64) bool {
		src := randomRustish(rand.New(rand.NewSource(seed)))
		fset := source.NewFileSet()
		f := fset.Add("gen.rs", src)
		toks := New(f, source.NewDiagnostics(fset)).Tokenize()
		prevEnd := f.Base - 1
		for _, tk := range toks {
			if tk.Kind == token.EOF {
				break
			}
			if tk.Span.Start < prevEnd {
				return false
			}
			if fset.SpanText(tk.Span) != tk.Text {
				return false
			}
			prevEnd = tk.Span.End
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestRelexingTokenTextIsStable: lexing the space-joined token texts of a
// valid program yields the same token kinds (a round-trip property modulo
// whitespace).
func TestRelexingTokenTextIsStable(t *testing.T) {
	prop := func(seed int64) bool {
		src := randomRustish(rand.New(rand.NewSource(seed)))
		k1 := kindsOf(src)
		var b strings.Builder
		fset := source.NewFileSet()
		f := fset.Add("gen.rs", src)
		for _, tk := range New(f, source.NewDiagnostics(fset)).Tokenize() {
			if tk.Kind == token.EOF {
				break
			}
			b.WriteString(tk.Text)
			b.WriteByte(' ')
		}
		k2 := kindsOf(b.String())
		if len(k1) != len(k2) {
			return false
		}
		for i := range k1 {
			if k1[i] != k2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func kindsOf(src string) []token.Kind {
	fset := source.NewFileSet()
	f := fset.Add("k.rs", src)
	var out []token.Kind
	for _, tk := range New(f, source.NewDiagnostics(fset)).Tokenize() {
		if tk.Kind == token.EOF {
			break
		}
		out = append(out, tk.Kind)
	}
	return out
}

// randomRustish emits a random but lexically valid token stream.
func randomRustish(r *rand.Rand) string {
	words := []string{
		"fn", "let", "mut", "unsafe", "impl", "struct", "match", "if", "else",
		"x", "y", "client", "lock", "unwrap", "self",
		"42", "0xff", "3.25", `"str"`, "'c'", "'a", "b'q'",
		"::", "->", "=>", "==", "&&", "<<=", "..", "..=",
		"(", ")", "{", "}", "[", "]", ";", ",", ":", ".", "&", "*", "+", "=",
	}
	n := 1 + r.Intn(60)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(words[r.Intn(len(words))])
		b.WriteByte(' ')
	}
	return b.String()
}
