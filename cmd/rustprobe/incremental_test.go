package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rustprobe"
	"rustprobe/internal/incrstate"
)

func writeTree(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for rel, content := range files {
		p := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// oracle runs a from-scratch analysis of the same tree and returns the
// formatted findings, sorted — what every incremental outcome must match.
func oracle(t *testing.T, files map[string]string) []string {
	t.Helper()
	res, err := rustprobe.AnalyzeFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, jf := range rustprobe.ResolveFindings(res.Fset, res.Detect()) {
		out = append(out, jf.Format())
	}
	sort.Strings(out)
	return out
}

func formatted(fs []incrstate.Finding) []string {
	var out []string
	for _, f := range fs {
		out = append(out, f.Format())
	}
	sort.Strings(out)
	return out
}

func TestRunIncremental(t *testing.T) {
	base := map[string]string{
		"src/lib.rs": `struct Shared { mu: Mutex<i32> }
impl Shared {
    fn twice(&self) {
        let a = self.mu.lock().unwrap();
        let b = self.mu.lock().unwrap();
    }
}
`,
		"src/util.rs": `fn helper(x: i32) -> i32 {
    x + 1
}
fn caller() {
    let y = helper(2);
}
`,
	}
	dir := t.TempDir()
	writeTree(t, dir, base)
	statePath := filepath.Join(dir, ".rustprobe-state.json")

	// First run: full, creates the state file.
	got, note, err := runIncremental(dir, statePath, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(note, "full analysis (no prior state)") {
		t.Fatalf("first run note = %q, want full analysis", note)
	}
	if want := oracle(t, base); !reflect.DeepEqual(formatted(got), want) {
		t.Fatalf("first run findings = %v, want %v", formatted(got), want)
	}
	if _, err := os.Stat(statePath); err != nil {
		t.Fatalf("state file not written: %v", err)
	}

	// Second run, nothing changed: replay without analyzing.
	got, note, err = runIncremental(dir, statePath, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(note, "unchanged") || !strings.Contains(note, "0 functions re-analyzed") {
		t.Fatalf("unchanged run note = %q, want replay", note)
	}
	if want := oracle(t, base); !reflect.DeepEqual(formatted(got), want) {
		t.Fatalf("replayed findings diverge: %v vs %v", formatted(got), want)
	}

	// Third run: body-only edit adds a use-after-free to helper. The
	// double-lock in the untouched file must survive via the cached state,
	// and the new bug must appear.
	edited := map[string]string{
		"src/util.rs": `fn helper(x: i32) -> i32 {
    let v = Vec::new();
    let p = v.as_ptr();
    drop(v);
    unsafe { let z = *p; }
    x + 1
}
fn caller() {
    let y = helper(2);
}
`,
	}
	writeTree(t, dir, edited)
	after := map[string]string{"src/lib.rs": base["src/lib.rs"], "src/util.rs": edited["src/util.rs"]}

	got, note, err = runIncremental(dir, statePath, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(note, "incremental:") {
		t.Fatalf("body-only edit note = %q, want incremental", note)
	}
	if !strings.Contains(note, "finding(s) reused") || strings.Contains(note, "0 finding(s) reused") {
		t.Fatalf("note = %q, want cached double-lock finding reused", note)
	}
	if want := oracle(t, after); !reflect.DeepEqual(formatted(got), want) {
		t.Fatalf("incremental findings diverge\n got: %v\nwant: %v", formatted(got), want)
	}

	// Fourth run: interface change (new function) falls back to full.
	iface := map[string]string{
		"src/util.rs": after["src/util.rs"] + "fn fresh() {}\n",
	}
	writeTree(t, dir, iface)
	after["src/util.rs"] = iface["src/util.rs"]

	got, note, err = runIncremental(dir, statePath, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(note, "full analysis (structure changed)") {
		t.Fatalf("interface change note = %q, want structural full rebuild", note)
	}
	if want := oracle(t, after); !reflect.DeepEqual(formatted(got), want) {
		t.Fatalf("post-rebuild findings diverge: %v vs %v", formatted(got), want)
	}
}

// TestRunIncrementalShiftedPositions: growing a function's body shifts
// the line numbers of every function below it in the same file. Cached
// findings for those functions carry File/Line resolved against the old
// revision, so they must be recomputed, not replayed — the output must
// equal a from-scratch run byte for byte.
func TestRunIncrementalShiftedPositions(t *testing.T) {
	mk := func(padBody string) map[string]string {
		return map[string]string{"x.rs": "fn pad() {\n" + padBody + "}\nfn buggy(v: Vec<i32>) {\n    let p = v.as_ptr();\n    drop(v);\n    unsafe { let z = *p; }\n}\n"}
	}
	dir := t.TempDir()
	statePath := filepath.Join(dir, "state.json")

	base := mk("    let a = 1;\n")
	writeTree(t, dir, base)
	if _, _, err := runIncremental(dir, statePath, io.Discard); err != nil {
		t.Fatal(err)
	}

	// pad() grows; buggy()'s body is untouched but moves down two lines.
	grown := mk("    let a = 1;\n    let b = 2;\n    let c = 3;\n")
	writeTree(t, dir, grown)
	got, note, err := runIncremental(dir, statePath, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(note, "incremental:") {
		t.Fatalf("body-only edit note = %q, want incremental", note)
	}
	if want := oracle(t, grown); !reflect.DeepEqual(formatted(got), want) {
		t.Fatalf("shifted finding replayed at stale position\n got: %v\nwant: %v", formatted(got), want)
	}

	// Same-byte-length edit that removes a newline: offsets are identical,
	// line numbers still shift.
	moved := mk("    let a = 1;     let b = 2;\n    let c = 3;\n")
	if len(moved["x.rs"]) != len(grown["x.rs"]) {
		t.Fatalf("test invariant: len=%d vs %d, want equal", len(moved["x.rs"]), len(grown["x.rs"]))
	}
	writeTree(t, dir, moved)
	got, note, err = runIncremental(dir, statePath, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(note, "incremental:") {
		t.Fatalf("same-length edit note = %q, want incremental", note)
	}
	if want := oracle(t, moved); !reflect.DeepEqual(formatted(got), want) {
		t.Fatalf("same-length newline move replayed stale positions\n got: %v\nwant: %v", formatted(got), want)
	}
}

func TestRunIncrementalStaleState(t *testing.T) {
	files := map[string]string{"a.rs": "fn f() {}\n"}
	dir := t.TempDir()
	writeTree(t, dir, files)
	statePath := filepath.Join(dir, ".rustprobe-state.json")

	// Corrupt state: must be ignored, not trusted or fatal.
	if err := os.WriteFile(statePath, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, note, err := runIncremental(dir, statePath, io.Discard); err != nil {
		t.Fatal(err)
	} else if !strings.Contains(note, "full analysis (no prior state)") {
		t.Fatalf("corrupt state note = %q, want full analysis", note)
	}

	// Wrong version: same story — a detector-set or analyzer bump must
	// invalidate the cache rather than replay findings from old logic.
	if _, _, err := runIncremental(dir, statePath, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(data), rustprobe.StateVersion(), "0:none", 1)
	if err := os.WriteFile(statePath, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, note, err := runIncremental(dir, statePath, io.Discard); err != nil {
		t.Fatal(err)
	} else if !strings.Contains(note, "full analysis (no prior state)") {
		t.Fatalf("version-mismatch note = %q, want full analysis", note)
	}
}

// TestRunIncrementalLegacyStateWithoutFnPos: a state file from before
// the fn_pos field (right version string, no position fingerprints)
// must trigger a clean full run — replaying its findings can't be
// position-safe.
func TestRunIncrementalLegacyStateWithoutFnPos(t *testing.T) {
	files := map[string]string{"a.rs": "fn f(v: Vec<i32>) {\n    let p = v.as_ptr();\n    drop(v);\n    unsafe { let z = *p; }\n}\n"}
	dir := t.TempDir()
	writeTree(t, dir, files)
	statePath := filepath.Join(dir, "state.json")
	if _, _, err := runIncremental(dir, statePath, io.Discard); err != nil {
		t.Fatal(err)
	}

	// Strip every file record's fn_pos key, keeping everything else
	// (incl. the version) intact — the shape a pre-fn_pos binary would
	// have written.
	data, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, rec := range raw["files"].(map[string]any) {
		delete(rec.(map[string]any), "fn_pos")
	}
	stripped, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(statePath, stripped, 0o644); err != nil {
		t.Fatal(err)
	}

	// The tree changed (body edit), so the unchanged-replay path doesn't
	// trigger; the legacy state must be discarded, not used incrementally.
	edited := map[string]string{"a.rs": strings.Replace(files["a.rs"], "let z = *p", "let zz = *p", 1)}
	writeTree(t, dir, edited)
	got, note, err := runIncremental(dir, statePath, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(note, "full analysis (no prior state)") {
		t.Fatalf("legacy-state note = %q, want full analysis", note)
	}
	if want := oracle(t, edited); !reflect.DeepEqual(formatted(got), want) {
		t.Fatalf("findings after legacy fallback = %v, want %v", formatted(got), want)
	}
}

func TestRunIncrementalFileAddRemove(t *testing.T) {
	files := map[string]string{
		"a.rs": "fn f() {}\n",
		"b.rs": "fn g() {}\n",
	}
	dir := t.TempDir()
	writeTree(t, dir, files)
	statePath := filepath.Join(dir, "state.json")
	if _, _, err := runIncremental(dir, statePath, io.Discard); err != nil {
		t.Fatal(err)
	}

	// Removing a file is a structural change.
	if err := os.Remove(filepath.Join(dir, "b.rs")); err != nil {
		t.Fatal(err)
	}
	got, note, err := runIncremental(dir, statePath, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(note, "full analysis (structure changed)") {
		t.Fatalf("file removal note = %q, want structural rebuild", note)
	}
	want := oracle(t, map[string]string{"a.rs": files["a.rs"]})
	gotStrs := formatted(got)
	if len(want) == 0 {
		want = nil
	}
	if !reflect.DeepEqual(gotStrs, want) {
		t.Fatalf("findings after removal = %v, want %v", gotStrs, want)
	}
}
