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
// (rustprobe.StateVersion(): analyzer release + detector registry), or
// the state is discarded — upgrading either silently costs one full run
// instead of replaying findings produced by old logic. States written
// before the fn_pos field existed unmarshal with a nil FnPos and are
// discarded the same way: without position fingerprints a body-only diff
// cannot be trusted not to replay findings at shifted line numbers.
package incrstate

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
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

// State is one successful analysis round's cross-run record.
type State struct {
	Version    string               `json:"version"`
	Files      map[string]string    `json:"files"`      // file -> content hash
	Interfaces map[string]string    `json:"interfaces"` // file -> interface hash (bodies excised)
	FnBodies   map[string]string    `json:"fn_bodies"`  // qualified fn -> body hash
	FnPos      map[string]string    `json:"fn_pos"`     // qualified fn -> decl position fingerprint
	Findings   []Finding            `json:"findings"`   // merged, sorted; replayed when nothing changed
	Local      map[string][]Finding `json:"local_findings"`
}

// Decode parses a serialized State and validates it against the
// expected version. It returns nil for anything untrustworthy — corrupt
// bytes, a version mismatch, or a pre-fn_pos legacy record — because
// every caller's fallback is the same: run a full round.
func Decode(data []byte, version string) *State {
	var st State
	if err := json.Unmarshal(data, &st); err != nil || st.Version != version {
		return nil
	}
	if st.FnPos == nil {
		// Legacy record from before declaration-position fingerprints:
		// replaying its findings after a body edit above an unchanged
		// function would report stale line numbers.
		return nil
	}
	return &st
}

// Encode serializes the state compactly for a persistent-store payload.
func Encode(st *State) ([]byte, error) {
	return json.Marshal(st)
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

// Save writes atomically (temp + rename) so a crash mid-write leaves
// either the old state or the new one, never a torn file the next run
// would have to distrust.
func Save(path string, st *State) error {
	data, err := json.MarshalIndent(st, "", "  ")
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
		if st.Files[name] != ContentHash(src) {
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
