// Package lexer implements a hand-written scanner for the Rust subset. It
// handles nested block comments, lifetimes vs char literals, raw strings
// with hash guards, byte/byte-string literals, numeric literals with type
// suffixes, and maximal-munch operator recognition.
package lexer

import (
	"unicode"
	"unicode/utf8"

	"rustprobe/internal/source"
	"rustprobe/internal/token"
)

// Lexer scans one source file into tokens.
type Lexer struct {
	file  *source.File
	src   string
	pos   int // byte offset of the next rune to scan
	diags *source.Diagnostics
	// KeepComments causes Comment tokens to be emitted instead of skipped.
	KeepComments bool
}

// New returns a Lexer over file, reporting malformed input to diags.
// diags may be nil, in which case errors are silently folded into Illegal
// tokens.
func New(file *source.File, diags *source.Diagnostics) *Lexer {
	return &Lexer{file: file, src: file.Content, diags: diags}
}

// bytesPerToken underestimates the mean token width of Rust source
// (about 5.6 bytes over this repository's .rs files, 4.4 in the
// densest), so Tokenize's presized slice rarely grows.
const bytesPerToken = 4

// Tokenize scans the whole file, appending the terminating EOF token.
func (l *Lexer) Tokenize() []token.Token {
	toks := make([]token.Token, 0, len(l.src)/bytesPerToken+1)
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks
		}
	}
}

func (l *Lexer) errorf(start int, format string, args ...any) {
	if l.diags != nil {
		l.diags.Errorf(l.span(start), format, args...)
	}
}

func (l *Lexer) span(start int) source.Span {
	return source.NewSpan(l.file.Base+start, l.file.Base+l.pos)
}

func (l *Lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peekAt(n int) byte {
	if l.pos+n >= len(l.src) {
		return 0
	}
	return l.src[l.pos+n]
}

func (l *Lexer) bump() byte {
	// Advance on any in-bounds byte — including a literal NUL, which peek()
	// cannot distinguish from end-of-input. Gating the advance on c != 0
	// would leave pos stuck on embedded NULs and loop Tokenize forever.
	if l.pos >= len(l.src) {
		return 0
	}
	c := l.src[l.pos]
	l.pos++
	return c
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= utf8.RuneSelf
}

func isIdentCont(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token, skipping whitespace and (by default)
// comments.
func (l *Lexer) Next() token.Token {
	for {
		l.skipWhitespace()
		if l.pos >= len(l.src) {
			return l.make(token.EOF, l.pos)
		}
		if l.peek() == '/' && (l.peekAt(1) == '/' || l.peekAt(1) == '*') {
			start := l.pos
			l.scanComment()
			if l.KeepComments {
				return l.make(token.Comment, start)
			}
			continue
		}
		break
	}

	start := l.pos
	c := l.peek()
	// Multibyte runes are identifiers only when they begin with a letter;
	// anything else (symbols, combining marks, invalid UTF-8) is consumed
	// as one Illegal token so the lexer always makes progress.
	if c >= utf8.RuneSelf {
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !unicode.IsLetter(r) {
			l.pos += size
			l.errorf(start, "unexpected character %q", string(r))
			return l.make(token.Illegal, start)
		}
	}
	switch {
	case isIdentStart(c) && !(c == 'r' && l.isRawStrStart()) && !(c == 'b' && l.isByteLitStart()):
		return l.scanIdent(start)
	case isDigit(c):
		return l.scanNumber(start)
	case c == '"':
		return l.scanString(start)
	case c == '\'':
		return l.scanCharOrLifetime(start)
	case c == 'r' && l.isRawStrStart():
		return l.scanRawString(start)
	case c == 'b' && l.isByteLitStart():
		return l.scanByteLit(start)
	default:
		return l.scanOperator(start)
	}
}

func (l *Lexer) isRawStrStart() bool {
	if l.peek() != 'r' {
		return false
	}
	i := 1
	for l.peekAt(i) == '#' {
		i++
	}
	return l.peekAt(i) == '"'
}

func (l *Lexer) isByteLitStart() bool {
	if l.peek() != 'b' {
		return false
	}
	n := l.peekAt(1)
	return n == '\'' || n == '"'
}

func (l *Lexer) skipWhitespace() {
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case ' ', '\t', '\r', '\n':
			l.pos++
		default:
			return
		}
	}
}

func (l *Lexer) scanComment() {
	start := l.pos
	l.pos++ // consume '/'
	if l.peek() == '/' {
		for l.pos < len(l.src) && l.src[l.pos] != '\n' {
			l.pos++
		}
		return
	}
	// Block comment; Rust block comments nest.
	l.pos++ // consume '*'
	depth := 1
	for l.pos < len(l.src) && depth > 0 {
		if l.peek() == '/' && l.peekAt(1) == '*' {
			depth++
			l.pos += 2
		} else if l.peek() == '*' && l.peekAt(1) == '/' {
			depth--
			l.pos += 2
		} else {
			l.pos++
		}
	}
	if depth > 0 {
		l.errorf(start, "unterminated block comment")
	}
}

func (l *Lexer) make(kind token.Kind, start int) token.Token {
	return token.Token{Kind: kind, Text: l.src[start:l.pos], Span: l.span(start)}
}

func (l *Lexer) scanIdent(start int) token.Token {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c < utf8.RuneSelf {
			if !isIdentCont(c) {
				break
			}
			l.pos++
			continue
		}
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			break
		}
		l.pos += size
	}
	text := l.src[start:l.pos]
	if text == "_" {
		return l.make(token.Underscore, start)
	}
	if kw, ok := token.Keywords[text]; ok {
		return l.make(kw, start)
	}
	return l.make(token.Ident, start)
}

func (l *Lexer) scanNumber(start int) token.Token {
	kind := token.Int
	if l.peek() == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'o' || l.peekAt(1) == 'b') {
		l.pos += 2
		for isHexDigit(l.peek()) || l.peek() == '_' {
			l.pos++
		}
	} else {
		for isDigit(l.peek()) || l.peek() == '_' {
			l.pos++
		}
		// A '.' begins a float only when followed by a digit: `0..1` must
		// stay Int DotDot Int, and `x.0` tuple access is handled by the
		// parser. `1.5` is a float.
		if l.peek() == '.' && isDigit(l.peekAt(1)) {
			kind = token.Float
			l.pos++
			for isDigit(l.peek()) || l.peek() == '_' {
				l.pos++
			}
		}
		if l.peek() == 'e' || l.peek() == 'E' {
			save := l.pos
			l.pos++
			if l.peek() == '+' || l.peek() == '-' {
				l.pos++
			}
			if isDigit(l.peek()) {
				kind = token.Float
				for isDigit(l.peek()) || l.peek() == '_' {
					l.pos++
				}
			} else {
				l.pos = save
			}
		}
	}
	// Type suffix: 1u8, 3.5f64, 100usize.
	if isIdentStart(l.peek()) {
		suffStart := l.pos
		for isIdentCont(l.peek()) {
			l.pos++
		}
		suffix := l.src[suffStart:l.pos]
		if suffix == "f32" || suffix == "f64" {
			kind = token.Float
		}
	}
	return l.make(kind, start)
}

func isHexDigit(c byte) bool {
	return isDigit(c) || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func (l *Lexer) scanEscape(start int) {
	// Caller consumed the backslash.
	switch l.bump() {
	case 'n', 'r', 't', '\\', '\'', '"', '0':
	case 'x':
		l.bump()
		l.bump()
	case 'u':
		if l.peek() == '{' {
			for l.pos < len(l.src) && l.bump() != '}' {
			}
		}
	case 0:
		l.errorf(start, "unterminated escape sequence")
	}
}

func (l *Lexer) scanString(start int) token.Token {
	l.pos++ // opening quote
	for l.pos < len(l.src) {
		c := l.bump()
		if c == '"' {
			return l.make(token.Str, start)
		}
		if c == '\\' {
			l.scanEscape(start)
		}
	}
	l.errorf(start, "unterminated string literal")
	return l.make(token.Illegal, start)
}

func (l *Lexer) scanRawString(start int) token.Token {
	l.pos++ // 'r'
	hashes := 0
	for l.peek() == '#' {
		hashes++
		l.pos++
	}
	l.pos++ // opening quote
	for l.pos < len(l.src) {
		if l.bump() == '"' {
			n := 0
			for n < hashes && l.peek() == '#' {
				l.pos++
				n++
			}
			if n == hashes {
				return l.make(token.RawStr, start)
			}
		}
	}
	l.errorf(start, "unterminated raw string literal")
	return l.make(token.Illegal, start)
}

// scanCharOrLifetime disambiguates 'a' (char) from 'a (lifetime). A quote
// introduces a lifetime when an identifier follows and the next character
// after the identifier is not a closing quote.
func (l *Lexer) scanCharOrLifetime(start int) token.Token {
	l.pos++ // opening quote
	if isIdentStart(l.peek()) && l.peek() != '\\' {
		// Look ahead past the identifier.
		i := l.pos
		for i < len(l.src) && isIdentCont(l.src[i]) {
			i++
		}
		if i >= len(l.src) || l.src[i] != '\'' {
			// Lifetime.
			l.pos = i
			return l.make(token.Lifetime, start)
		}
	}
	// Char literal.
	c := l.bump()
	if c == '\\' {
		l.scanEscape(start)
	} else if c >= utf8.RuneSelf {
		// Re-decode the multibyte rune from its first byte.
		l.pos--
		_, size := utf8.DecodeRuneInString(l.src[l.pos:])
		l.pos += size
	}
	if l.bump() != '\'' {
		l.errorf(start, "unterminated character literal")
		return l.make(token.Illegal, start)
	}
	return l.make(token.Char, start)
}

func (l *Lexer) scanByteLit(start int) token.Token {
	l.pos++ // 'b'
	if l.peek() == '\'' {
		l.pos++
		c := l.bump()
		if c == '\\' {
			l.scanEscape(start)
		}
		if l.bump() != '\'' {
			l.errorf(start, "unterminated byte literal")
			return l.make(token.Illegal, start)
		}
		return l.make(token.Byte, start)
	}
	// b"..."
	l.pos++
	for l.pos < len(l.src) {
		c := l.bump()
		if c == '"' {
			return l.make(token.ByteStr, start)
		}
		if c == '\\' {
			l.scanEscape(start)
		}
	}
	l.errorf(start, "unterminated byte string literal")
	return l.make(token.Illegal, start)
}

// twoByteOps maps two-character operator prefixes to kinds (checked before
// single-character operators; three-character forms are checked first).
func (l *Lexer) scanOperator(start int) token.Token {
	three := ""
	if l.pos+3 <= len(l.src) {
		three = l.src[l.pos : l.pos+3]
	}
	switch three {
	case "..=":
		l.pos += 3
		return l.make(token.DotDotEq, start)
	case "...":
		l.pos += 3
		return l.make(token.DotDotDot, start)
	case "<<=":
		l.pos += 3
		return l.make(token.ShlEq, start)
	case ">>=":
		l.pos += 3
		return l.make(token.ShrEq, start)
	}
	two := ""
	if l.pos+2 <= len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	if k, ok := twoByte[two]; ok {
		l.pos += 2
		return l.make(k, start)
	}
	c := l.bump()
	if k, ok := oneByte[c]; ok {
		return l.make(k, start)
	}
	l.errorf(start, "unexpected character %q", string(rune(c)))
	return l.make(token.Illegal, start)
}

var twoByte = map[string]token.Kind{
	"::": token.PathSep,
	"->": token.Arrow,
	"=>": token.FatArrow,
	"==": token.EqEq,
	"!=": token.Ne,
	"<=": token.Le,
	">=": token.Ge,
	"&&": token.AndAnd,
	"||": token.OrOr,
	"<<": token.Shl,
	">>": token.Shr,
	"+=": token.PlusEq,
	"-=": token.MinusEq,
	"*=": token.StarEq,
	"/=": token.SlashEq,
	"%=": token.PercentEq,
	"^=": token.CaretEq,
	"&=": token.AndEq,
	"|=": token.OrEq,
	"..": token.DotDot,
}

var oneByte = map[byte]token.Kind{
	'(': token.LParen,
	')': token.RParen,
	'{': token.LBrace,
	'}': token.RBrace,
	'[': token.LBracket,
	']': token.RBracket,
	',': token.Comma,
	';': token.Semi,
	':': token.Colon,
	'#': token.Pound,
	'$': token.Dollar,
	'?': token.Question,
	'.': token.Dot,
	'@': token.At,
	'=': token.Eq,
	'<': token.Lt,
	'>': token.Gt,
	'!': token.Not,
	'+': token.Plus,
	'-': token.Minus,
	'*': token.Star,
	'/': token.Slash,
	'%': token.Percent,
	'^': token.Caret,
	'&': token.And,
	'|': token.Or,
}
