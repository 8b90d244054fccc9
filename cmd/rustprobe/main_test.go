package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rustprobe"
	"rustprobe/internal/incrstate"
)

const uafFile = "fn f() {\n    let v = Vec::new();\n    let p = v.as_ptr();\n    drop(v);\n    unsafe { let x = *p; }\n}\n"

func TestLoadInputs(t *testing.T) {
	if _, err := load("", nil); err == nil || !strings.Contains(err.Error(), "no input") {
		t.Fatalf("no input: err = %v", err)
	}
	if _, err := load("", []string{filepath.Join(t.TempDir(), "missing.rs")}); err == nil {
		t.Fatal("missing path: no error")
	}

	res, err := load("detector-eval", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Detect()) == 0 {
		t.Fatal("detector-eval corpus produced no findings")
	}

	dir := t.TempDir()
	writeTree(t, dir, map[string]string{"src/bug.rs": uafFile, "util.rs": "fn util() {}\n"})
	res, err = load("", []string{dir})
	if err != nil {
		t.Fatal(err)
	}
	fs := rustprobe.ResolveFindings(res.Fset, res.Detect())
	if len(fs) != 1 || fs[0].File != "src/bug.rs" || fs[0].Kind != "use-after-free" {
		t.Fatalf("directory scan findings = %+v, want one UAF in src/bug.rs", fs)
	}

	// Explicit file arguments keep the path as given.
	file := filepath.Join(dir, "util.rs")
	res, err = load("", []string{file})
	if err != nil {
		t.Fatal(err)
	}
	if res.MIR("util") == nil {
		t.Fatal("util not lowered from a file argument")
	}

	bad := filepath.Join(dir, "bad.rs")
	if err := os.WriteFile(bad, []byte("fn ("), 0o644); err != nil {
		t.Fatal(err)
	}
	var synErr *rustprobe.SyntaxError
	if _, err := load("", []string{bad}); !errors.As(err, &synErr) || !strings.Contains(synErr.Diags, "bad.rs") {
		t.Fatalf("syntax error: err = %v, want *rustprobe.SyntaxError naming bad.rs", err)
	}
}

func TestEmitJSON(t *testing.T) {
	res, err := rustprobe.AnalyzeSource("bug.rs", uafFile)
	if err != nil {
		t.Fatal(err)
	}
	want := rustprobe.ResolveFindings(res.Fset, res.Detect())
	var buf bytes.Buffer
	emitJSON(&buf, want)
	if !strings.Contains(buf.String(), "\n  {\n    \"kind\": \"use-after-free\"") {
		t.Errorf("output is not the indented array:\n%s", buf.String())
	}
	var got []incrstate.Finding
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip = %+v, want %+v", got, want)
	}

	buf.Reset()
	emitJSON(&buf, rustprobe.ResolveFindings(res.Fset, nil))
	if buf.String() != "[]\n" {
		t.Fatalf("no findings printed %q, want an empty array", buf.String())
	}
}
