// Package incrstate is the shared codec for persisted incremental-
// analysis state: the versioned record the CLI's -incremental mode keeps
// in .rustprobe-state.json and the daemon's session service persists in
// the content-addressed store, in one format. It holds enough hashes to
// decide what changed since the previous round (file content, per-file
// interface, per-function body text and declaration position) and enough
// findings to avoid re-deriving the unchanged ones.
//
// The package is deliberately dumb: it defines the wire shape, the
// atomic file codec, and the content-hash helpers, and leaves every
// reuse decision to the owner (rustprobe.Session's restore path, which
// both the CLI and the daemon now delegate to). It imports only the
// standard library so any layer can depend on it.
//
// Versioning: State.Version must equal the version the loader expects
// (rustprobe.StateVersion(): analyzer release + detector registry +
// Layout), or the state is discarded — upgrading any of them silently
// costs one full run instead of replaying findings produced by old logic
// or misreading an old layout. A file record without the fn_pos field
// is discarded the same way: without position fingerprints a body-only
// diff cannot be trusted not to replay findings at shifted line numbers.
package incrstate

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one fully resolved detector report: positions are
// materialized file:line:col so replaying needs no FileSet from the
// process (or daemon epoch) that produced it. The JSON shape matches the
// engine's wire findings field for field.
type Finding struct {
	Kind     string   `json:"kind"`
	Severity string   `json:"severity"`
	Function string   `json:"function"`
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Column   int      `json:"column"`
	Message  string   `json:"message"`
	Notes    []string `json:"notes,omitempty"`
}

// Format renders the finding in the CLI's one-line style.
func (f Finding) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:%d:%d: %s: [%s] %s (in %s)",
		f.File, f.Line, f.Column, f.Severity, f.Kind, f.Message, f.Function)
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "\n    note: %s", n)
	}
	return b.String()
}

// Layout names the State's encoding. It is part of every version string
// a State is checked against (rustprobe.StateVersion), so a payload in
// an older layout is discarded like one from an older analyzer.
const Layout = "per-file"

// State is one successful analysis round's cross-run record, one entry
// per source file plus the findings. Files and Local hold Sealed values,
// whose JSON is encoded once, when the producer seals them: a session
// seals a file's record when it hashes the file and each root's local
// findings when a round resolves them, so Encode re-encodes only the
// merged findings.
type State struct {
	Version  string                        `json:"version"`
	Files    map[string]*Sealed[File]      `json:"files"`
	Findings []Finding                     `json:"findings"` // merged, sorted; replayed when nothing changed
	Local    map[string]*Sealed[[]Finding] `json:"local_findings"`
}

// File is one source file's record: its content hash, its interface
// hash (the source with every function body excised) and, for every
// function the resolved program registered from it, the body hash and
// the declaration-position fingerprint, keyed by qualified name.
type File struct {
	Content   string            `json:"content"`
	Interface string            `json:"interface"`
	FnBodies  map[string]string `json:"fn_bodies"`
	FnPos     map[string]string `json:"fn_pos"`
}

// Sealed is a value with its JSON encoding cached. Seal encodes it once;
// a decoded Sealed has no cache and encodes afresh. Its value must not
// change once sealed.
type Sealed[T any] struct {
	V   T
	enc []byte
}

// Seal returns v with its encoding cached.
func Seal[T any](v T) *Sealed[T] {
	enc, _ := json.Marshal(v) // nil on error, which MarshalJSON then reports
	return &Sealed[T]{V: v, enc: enc}
}

// MarshalJSON returns the cached encoding, or encodes V.
func (s *Sealed[T]) MarshalJSON() ([]byte, error) {
	if s.enc != nil {
		return s.enc, nil
	}
	return json.Marshal(s.V)
}

// UnmarshalJSON decodes into V.
func (s *Sealed[T]) UnmarshalJSON(data []byte) error {
	return json.Unmarshal(data, &s.V)
}

// Decode parses a serialized State and validates it against the
// expected version. It returns nil for anything untrustworthy — corrupt
// bytes, a version mismatch (an older analyzer, detector set or
// Layout), a missing file or findings record, or a legacy record without
// declaration-position fingerprints — because every caller's fallback
// is the same: run a full round.
func Decode(data []byte, version string) *State {
	var st State
	if err := json.Unmarshal(data, &st); err != nil || st.Version != version {
		return nil
	}
	for _, f := range st.Files {
		if f == nil || f.V.FnPos == nil {
			// A record from before declaration-position fingerprints:
			// replaying its findings after a body edit above an
			// unchanged function would report stale line numbers.
			return nil
		}
	}
	for _, fs := range st.Local {
		if fs == nil {
			return nil
		}
	}
	return &st
}

// Encode serializes the state compactly, to the bytes json.Marshal
// gives. It appends each sealed value's cached encoding instead of
// marshalling it: under json.Marshal, even a cached json.RawMessage is
// re-scanned byte by byte.
func Encode(st *State) ([]byte, error) {
	findings, err := json.Marshal(st.Findings)
	if err != nil {
		return nil, err
	}
	files, filesLen, err := sealedEntries(st.Files)
	if err != nil {
		return nil, err
	}
	local, localLen, err := sealedEntries(st.Local)
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, 64+len(st.Version)+filesLen+len(findings)+localLen)
	b = append(b, `{"version":`...)
	b = appendString(b, st.Version)
	b = append(b, `,"files":`...)
	b = appendObject(b, files, st.Files == nil)
	b = append(b, `,"findings":`...)
	b = append(b, findings...)
	b = append(b, `,"local_findings":`...)
	b = appendObject(b, local, st.Local == nil)
	return append(b, '}'), nil
}

// entry is one encoded member of a JSON object.
type entry struct {
	key string
	enc []byte
}

var null = []byte("null")

// sealedEntries returns m's members sorted by key, as json.Marshal
// orders a map, and their encoded length when no key needs escaping.
func sealedEntries[T any](m map[string]*Sealed[T]) ([]entry, int, error) {
	out := make([]entry, 0, len(m))
	size := 2
	for k, v := range m {
		enc := null
		if v != nil {
			var err error
			if enc, err = v.MarshalJSON(); err != nil {
				return nil, 0, err
			}
		}
		out = append(out, entry{k, enc})
		size += len(k) + 4 + len(enc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out, size, nil
}

// appendObject appends entries as a JSON object, or null for a nil map.
func appendObject(b []byte, entries []entry, isNil bool) []byte {
	if isNil {
		return append(b, null...)
	}
	b = append(b, '{')
	for i, e := range entries {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, e.key)
		b = append(b, ':')
		b = append(b, e.enc...)
	}
	return append(b, '}')
}

// appendString appends s as a JSON string the way json.Marshal quotes
// it, taking a copy-only path when s needs no escaping.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// Load reads a state file, returning nil when it is missing, corrupt,
// legacy, or was written for a different version — the caller falls
// back to a full run in every case.
func Load(path, version string) *State {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	return Decode(data, version)
}

// Save writes Encode's bytes atomically (temp + rename) so a crash mid-write leaves
// either the old state or the new one, never a torn file the next run
// would have to distrust.
func Save(path string, st *State) error {
	data, err := Encode(st)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".rustprobe-state-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ContentHash digests one source — the per-file change test
// State.Files records.
func ContentHash(src string) string {
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:])
}

// UnchangedFrom reports whether files hash exactly to the state's
// recorded content — the O(files) precondition for replaying Findings
// without any analysis.
func (st *State) UnchangedFrom(files map[string]string) bool {
	if st == nil || len(st.Files) != len(files) {
		return false
	}
	for name, src := range files {
		if f := st.Files[name]; f == nil || f.V.Content != ContentHash(src) {
			return false
		}
	}
	return true
}

// Less orders resolved findings by position (file, line, column) then
// kind and message. It is the one ordering of merged findings: sessions
// sort by it, which is what lets findings cached by an earlier process
// merge with fresh ones deterministically.
func Less(a, b *Finding) bool {
	if a.File != b.File {
		return a.File < b.File
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	if a.Column != b.Column {
		return a.Column < b.Column
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Message < b.Message
}
