// Package source provides source-file management, byte spans, line/column
// positions, and structured diagnostics shared by every stage of the
// rustprobe pipeline (lexer, parser, lowering, detectors).
package source

import (
	"cmp"
	"fmt"
	"sort"
	"strings"
)

// File is a single source file registered with a FileSet. Line offsets are
// computed eagerly so position lookups are O(log lines).
type File struct {
	Name    string
	Content string
	Base    int   // global offset of byte 0 of this file within the FileSet
	lines   []int // byte offset of the start of each line (line 1 at lines[0])

	// rank places the file in source order (FileSet.Compare): its own
	// Base, or for a revision the rank of the file it revises.
	rank int
}

// NewFile builds a standalone File with Base 0. Most callers should use
// FileSet.Add instead so spans from different files stay disjoint.
func NewFile(name, content string) *File {
	f := &File{Name: name, Content: content}
	f.indexLines()
	return f
}

func (f *File) indexLines() {
	f.lines = f.lines[:0]
	f.lines = append(f.lines, 0)
	for i := 0; i < len(f.Content); i++ {
		if f.Content[i] == '\n' {
			f.lines = append(f.lines, i+1)
		}
	}
}

// Size returns the length of the file content in bytes.
func (f *File) Size() int { return len(f.Content) }

// Position resolves a local byte offset to a line/column pair (1-based).
func (f *File) Position(offset int) Position {
	if offset < 0 {
		offset = 0
	}
	if offset > len(f.Content) {
		offset = len(f.Content)
	}
	line := sort.Search(len(f.lines), func(i int) bool { return f.lines[i] > offset }) - 1
	return Position{
		File:   f.Name,
		Line:   line + 1,
		Column: offset - f.lines[line] + 1,
		Offset: offset,
	}
}

// OffsetOf inverts Position: it maps a 1-based line/column pair back to
// the local byte offset, clamped into the file. Callers that persisted a
// resolved position across processes use this to rebuild a span against
// a fresh registration of the same content.
func (f *File) OffsetOf(line, col int) int {
	if len(f.lines) == 0 {
		return 0
	}
	if line < 1 {
		line = 1
	}
	if line > len(f.lines) {
		line = len(f.lines)
	}
	off := f.lines[line-1] + col - 1
	if off < f.lines[line-1] {
		off = f.lines[line-1]
	}
	if off > len(f.Content) {
		off = len(f.Content)
	}
	return off
}

// Line returns the text of the given 1-based line without its newline.
func (f *File) Line(n int) string {
	if n < 1 || n > len(f.lines) {
		return ""
	}
	start := f.lines[n-1]
	end := len(f.Content)
	if n < len(f.lines) {
		end = f.lines[n] - 1
	}
	return f.Content[start:end]
}

// LineCount reports the number of lines in the file.
func (f *File) LineCount() int { return len(f.lines) }

// Position is a resolved location within a file. Line and Column are
// 1-based; Offset is the 0-based byte offset within the file.
type Position struct {
	File   string
	Line   int
	Column int
	Offset int
}

func (p Position) String() string {
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Column)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Column)
}

// IsValid reports whether the position refers to an actual location.
func (p Position) IsValid() bool { return p.Line > 0 }

// Span is a half-open byte interval [Start, End) in FileSet-global offsets.
type Span struct {
	Start int
	End   int
}

// NewSpan constructs a span, normalizing inverted bounds.
func NewSpan(start, end int) Span {
	if end < start {
		start, end = end, start
	}
	return Span{Start: start, End: end}
}

// Len returns the number of bytes covered by the span.
func (s Span) Len() int { return s.End - s.Start }

// Contains reports whether the global offset lies within the span.
func (s Span) Contains(offset int) bool { return offset >= s.Start && offset < s.End }

// ContainsSpan reports whether other lies entirely within s.
func (s Span) ContainsSpan(other Span) bool { return other.Start >= s.Start && other.End <= s.End }

// Join returns the smallest span covering both s and other.
func (s Span) Join(other Span) Span {
	if other.Len() == 0 && other.Start == 0 {
		return s
	}
	if s.Len() == 0 && s.Start == 0 {
		return other
	}
	out := s
	if other.Start < out.Start {
		out.Start = other.Start
	}
	if other.End > out.End {
		out.End = other.End
	}
	return out
}

// FileSet maps global offsets back to files, mirroring go/token.FileSet.
type FileSet struct {
	files []*File
	next  int
}

// NewFileSet returns an empty FileSet. Global offset 0 is reserved so that
// the zero Span is recognizably invalid.
func NewFileSet() *FileSet { return &FileSet{next: 1} }

// Add registers content under name and returns the File. Spans produced for
// this file must be offset by File.Base.
func (fs *FileSet) Add(name, content string) *File {
	f := NewFile(name, content)
	f.Base = fs.next
	f.rank = f.Base
	fs.next += len(content) + 1
	fs.files = append(fs.files, f)
	return f
}

// Revise registers content as a new revision of prev, a file of this
// set. The revision gets fresh global offsets, but sorts in source order
// (Compare) where prev does: spans of an edited file's new revision and
// spans still held from its older ones then order against each other,
// and against every other file, as they would in a set that registered
// each file once.
func (fs *FileSet) Revise(prev *File, content string) *File {
	f := fs.Add(prev.Name, content)
	f.rank = prev.rank
	return f
}

// Compare orders two global offsets in source order: by file, in the
// order the files were first registered (Revise keeps a file's place),
// then by offset within the file. In a set that registered each file
// once this is plain offset order. Offsets outside every file order by
// their value.
func (fs *FileSet) Compare(a, b int) int {
	ra, oa := fs.sourceKey(a)
	rb, ob := fs.sourceKey(b)
	if ra != rb {
		return cmp.Compare(ra, rb)
	}
	return cmp.Compare(oa, ob)
}

func (fs *FileSet) sourceKey(global int) (rank, offset int) {
	if f := fs.FileFor(global); f != nil {
		return f.rank, global - f.Base
	}
	return global, 0
}

// FileFor returns the file containing the global offset, or nil.
func (fs *FileSet) FileFor(global int) *File {
	i := sort.Search(len(fs.files), func(i int) bool { return fs.files[i].Base > global }) - 1
	if i < 0 || i >= len(fs.files) {
		return nil
	}
	f := fs.files[i]
	if global > f.Base+len(f.Content) {
		return nil
	}
	return f
}

// Files returns the registered files in registration order.
func (fs *FileSet) Files() []*File { return fs.files }

// Size returns the global-offset space consumed so far — the sum of all
// registered content lengths (plus one sentinel byte per file). Long-lived
// owners that re-register edited files use it to decide when the set has
// outgrown the live sources and should be rebuilt.
func (fs *FileSet) Size() int { return fs.next }

// Mark is a registration snapshot taken by FileSet.Mark for Rollback.
type Mark struct {
	files int
	next  int
}

// Mark captures the current registration state. A later Rollback with it
// discards every file Added since — for callers that register files
// speculatively (e.g. an incremental round that may abort on syntax
// errors) and must not leak entries into a long-lived set.
func (fs *FileSet) Mark() Mark { return Mark{files: len(fs.files), next: fs.next} }

// Rollback discards files registered after m was taken. Spans handed out
// for the discarded files dangle afterwards, so only roll back when the
// work that produced them is being discarded wholesale. A mark from a
// different or already-rolled-back state is ignored.
func (fs *FileSet) Rollback(m Mark) {
	if m.files < 0 || m.files > len(fs.files) {
		return
	}
	fs.files = fs.files[:m.files]
	fs.next = m.next
}

// Position resolves a global offset to a Position.
func (fs *FileSet) Position(global int) Position {
	f := fs.FileFor(global)
	if f == nil {
		return Position{}
	}
	return f.Position(global - f.Base)
}

// SpanText returns the source text a span covers, or "" if unresolvable.
func (fs *FileSet) SpanText(sp Span) string {
	f := fs.FileFor(sp.Start)
	if f == nil {
		return ""
	}
	lo, hi := sp.Start-f.Base, sp.End-f.Base
	if lo < 0 || hi > len(f.Content) || lo > hi {
		return ""
	}
	return f.Content[lo:hi]
}

// Severity classifies a diagnostic.
type Severity int

// Severity levels, from informational to fatal.
const (
	SeverityNote Severity = iota
	SeverityWarning
	SeverityError
)

func (s Severity) String() string {
	switch s {
	case SeverityNote:
		return "note"
	case SeverityWarning:
		return "warning"
	case SeverityError:
		return "error"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// Diagnostic is one message anchored at a span.
type Diagnostic struct {
	Severity Severity
	Span     Span
	Message  string
	Notes    []string
}

// Diagnostics accumulates diagnostics for a compilation.
type Diagnostics struct {
	fset *FileSet
	list []Diagnostic
}

// NewDiagnostics returns an empty diagnostic sink bound to fset.
func NewDiagnostics(fset *FileSet) *Diagnostics {
	return &Diagnostics{fset: fset}
}

// Errorf records an error diagnostic.
func (d *Diagnostics) Errorf(sp Span, format string, args ...any) {
	d.list = append(d.list, Diagnostic{Severity: SeverityError, Span: sp, Message: fmt.Sprintf(format, args...)})
}

// Warningf records a warning diagnostic.
func (d *Diagnostics) Warningf(sp Span, format string, args ...any) {
	d.list = append(d.list, Diagnostic{Severity: SeverityWarning, Span: sp, Message: fmt.Sprintf(format, args...)})
}

// Notef records a note diagnostic.
func (d *Diagnostics) Notef(sp Span, format string, args ...any) {
	d.list = append(d.list, Diagnostic{Severity: SeverityNote, Span: sp, Message: fmt.Sprintf(format, args...)})
}

// HasErrors reports whether any error-severity diagnostic was recorded.
func (d *Diagnostics) HasErrors() bool {
	for _, dg := range d.list {
		if dg.Severity == SeverityError {
			return true
		}
	}
	return false
}

// All returns the recorded diagnostics in order.
func (d *Diagnostics) All() []Diagnostic { return d.list }

// Len returns the number of recorded diagnostics.
func (d *Diagnostics) Len() int { return len(d.list) }

// String renders all diagnostics, one per line, with resolved positions.
func (d *Diagnostics) String() string {
	var b strings.Builder
	for _, dg := range d.list {
		pos := d.fset.Position(dg.Span.Start)
		fmt.Fprintf(&b, "%s: %s: %s\n", pos, dg.Severity, dg.Message)
		for _, n := range dg.Notes {
			fmt.Fprintf(&b, "  note: %s\n", n)
		}
	}
	return b.String()
}
