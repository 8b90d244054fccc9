package incrstate

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func sampleState() *State {
	return &State{
		Version: "v1:test",
		Files: map[string]*Sealed[File]{
			"a.rs": Seal(File{
				Content: ContentHash("fn main() {}"), Interface: "ih",
				FnBodies: map[string]string{"main": "bh"}, FnPos: map[string]string{"main": "a.rs:0:1:1"},
			}),
			// Decoded, not sealed: encoded afresh.
			"b <&>.rs": {V: File{Content: "c", Interface: "i", FnBodies: map[string]string{}, FnPos: map[string]string{}}},
		},
		Findings: []Finding{{
			Kind: "use_after_free", Severity: "warning", Function: "main",
			File: "a.rs", Line: 3, Column: 5, Message: "m <x>", Notes: []string{"n"},
		}},
		Local: map[string]*Sealed[[]Finding]{
			"main":  Seal([]Finding{{Kind: "use_after_free", Function: "main", File: "a.rs", Line: 3, Column: 5}}),
			"other": {V: []Finding{{Kind: "race", Function: "other", File: "b <&>.rs", Line: 1, Column: 1}}},
		},
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	st := sampleState()
	if err := Save(path, st); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got := Load(path, "v1:test")
	if got == nil {
		t.Fatal("Load returned nil for a state it just saved")
	}
	a, _ := json.Marshal(st)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Fatalf("roundtrip mismatch:\nsaved  %s\nloaded %s", a, b)
	}
}

func TestLoadRejectsVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	if err := Save(path, sampleState()); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if got := Load(path, "v2:other"); got != nil {
		t.Fatalf("Load accepted a state written for another version: %+v", got)
	}
}

func TestLoadRejectsCorruptAndMissing(t *testing.T) {
	dir := t.TempDir()
	if got := Load(filepath.Join(dir, "absent.json"), "v1:test"); got != nil {
		t.Fatalf("Load of missing file returned %+v, want nil", got)
	}
	path := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := Load(path, "v1:test"); got != nil {
		t.Fatalf("Load of corrupt file returned %+v, want nil", got)
	}
}

// The version-field regression this package exists to pin: a state file
// whose file records predate fn_pos (correct version string, no fn_pos
// key) must be discarded so the caller runs a full round — replaying its
// findings after a body edit could report stale positions.
func TestDecodeRejectsLegacyStateWithoutFnPos(t *testing.T) {
	data, err := Encode(sampleState())
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	delete(raw["files"].(map[string]any)["a.rs"].(map[string]any), "fn_pos")
	legacy, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := Decode(legacy, "v1:test"); got != nil {
		t.Fatalf("Decode accepted a legacy fn_pos-less state: %+v", got)
	}
	path := filepath.Join(t.TempDir(), "legacy.json")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := Load(path, "v1:test"); got != nil {
		t.Fatal("Load accepted a legacy fn_pos-less state file")
	}
}

// TestDecodeRejectsPreviousLayout: a payload in the flat layout of
// earlier releases (one hash map per plane) is discarded, even under
// the expected version string.
func TestDecodeRejectsPreviousLayout(t *testing.T) {
	flat, err := json.Marshal(map[string]any{
		"version":        "v1:test",
		"files":          map[string]string{"a.rs": "h"},
		"interfaces":     map[string]string{"a.rs": "ih"},
		"fn_bodies":      map[string]string{"main": "bh"},
		"fn_pos":         map[string]string{"main": "a.rs:0:1:1"},
		"findings":       []Finding{},
		"local_findings": map[string][]Finding{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := Decode(flat, "v1:test"); got != nil {
		t.Fatalf("Decode accepted the previous layout: %+v", got)
	}
}

func TestEncodeDecode(t *testing.T) {
	st := sampleState()
	data, err := Encode(st)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if got := Decode(data, "v1:test"); got == nil {
		t.Fatal("Decode rejected bytes Encode produced")
	}
	if got := Decode(data, "other"); got != nil {
		t.Fatal("Decode accepted a mismatched version")
	}
}

// TestEncodeIsJSONMarshal: Encode's hand-assembled bytes are exactly
// json.Marshal's, sealed and unsealed values, nil maps and escaped
// names alike, and a decoded state re-encodes to the same bytes.
func TestEncodeIsJSONMarshal(t *testing.T) {
	for name, st := range map[string]*State{
		"sample": sampleState(),
		"empty":  {Version: "v"},
		"nil entries": {Version: "v", Files: map[string]*Sealed[File]{"a.rs": nil},
			Local: map[string]*Sealed[[]Finding]{"f": Seal([]Finding(nil))}},
	} {
		got, err := Encode(st)
		if err != nil {
			t.Fatalf("%s: Encode: %v", name, err)
		}
		want, err := json.Marshal(st)
		if err != nil {
			t.Fatalf("%s: json.Marshal: %v", name, err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s: Encode\n%s\nwant json.Marshal's\n%s", name, got, want)
		}
	}

	data, err := Encode(sampleState())
	if err != nil {
		t.Fatal(err)
	}
	dec := Decode(data, "v1:test")
	if dec == nil {
		t.Fatal("Decode rejected bytes Encode produced")
	}
	if dec.Files["a.rs"].V.FnPos["main"] != "a.rs:0:1:1" || dec.Local["main"].V[0].Line != 3 || dec.Findings[0].Notes[0] != "n" {
		t.Fatalf("decoded state lost values: %+v", dec)
	}
	again, err := Encode(dec)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatalf("decode round-trip re-encodes differently:\n%s\nwant\n%s", again, data)
	}
}

// TestSaveUsesEncode: the CLI's state file is the store payload's codec,
// byte for byte.
func TestSaveUsesEncode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	st := sampleState()
	if err := Save(path, st); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	if string(saved) != string(want) {
		t.Fatalf("Save wrote\n%s\nwant Encode's\n%s", saved, want)
	}
}

func TestUnchangedFrom(t *testing.T) {
	files := map[string]string{"a.rs": "fn main() {}", "b.rs": "fn f() {}"}
	st := &State{Files: map[string]*Sealed[File]{}}
	for name, src := range files {
		st.Files[name] = Seal(File{Content: ContentHash(src)})
	}
	if !st.UnchangedFrom(files) {
		t.Fatal("identical tree reported as changed")
	}
	edited := map[string]string{"a.rs": "fn main() { }", "b.rs": "fn f() {}"}
	if st.UnchangedFrom(edited) {
		t.Fatal("edited tree reported as unchanged")
	}
	removed := map[string]string{"a.rs": "fn main() {}"}
	if st.UnchangedFrom(removed) {
		t.Fatal("smaller tree reported as unchanged")
	}
	var nilState *State
	if nilState.UnchangedFrom(files) {
		t.Fatal("nil state reported as unchanged")
	}
}

func TestSortFindingsAndFormat(t *testing.T) {
	fs := []Finding{
		{File: "b.rs", Line: 1, Column: 1, Kind: "x"},
		{File: "a.rs", Line: 2, Column: 1, Kind: "x"},
		{File: "a.rs", Line: 1, Column: 9, Kind: "x"},
		{File: "a.rs", Line: 1, Column: 1, Kind: "z", Message: "m"},
		{File: "a.rs", Line: 1, Column: 1, Kind: "z", Message: "a"},
		{File: "a.rs", Line: 1, Column: 1, Kind: "y"},
	}
	sort.SliceStable(fs, func(i, j int) bool { return Less(&fs[i], &fs[j]) })
	order := make([]string, len(fs))
	for i, f := range fs {
		order[i] = f.File + "/" + f.Kind + "/" + f.Message
	}
	want := []string{"a.rs/y/", "a.rs/z/a", "a.rs/z/m", "a.rs/x/", "a.rs/x/", "b.rs/x/"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("sort order[%d] = %q, want %q (full order %v)", i, order[i], want[i], order)
		}
	}

	f := Finding{Kind: "double_lock", Severity: "warning", Function: "m::f",
		File: "a.rs", Line: 3, Column: 7, Message: "msg", Notes: []string{"first lock here"}}
	got := f.Format()
	want1 := "a.rs:3:7: warning: [double_lock] msg (in m::f)"
	if !strings.HasPrefix(got, want1) || !strings.Contains(got, "note: first lock here") {
		t.Fatalf("Format() = %q, want prefix %q with note", got, want1)
	}
}
