package rustprobe

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rustprobe/internal/detect"
)

func TestAnalyzeSourceAndDetect(t *testing.T) {
	res, err := AnalyzeSource("t.rs", `
struct S { v: i32 }
fn f(mu: Mutex<S>) {
    let a = mu.lock().unwrap();
    let b = mu.lock().unwrap();
}
`)
	if err != nil {
		t.Fatal(err)
	}
	findings := res.Detect()
	if len(findings) != 1 || findings[0].Kind != "double-lock" {
		t.Fatalf("findings = %+v", findings)
	}
	// Named selection.
	if n := len(res.Detect("use-after-free")); n != 0 {
		t.Errorf("uaf findings = %d", n)
	}
	if n := len(res.Detect("double-lock")); n != 1 {
		t.Errorf("double-lock findings = %d", n)
	}
}

func TestAnalyzeSourceSyntaxError(t *testing.T) {
	res, err := AnalyzeSource("bad.rs", "fn broken( {")
	if err == nil {
		t.Fatal("expected syntax error")
	}
	if res == nil || !res.Diags.HasErrors() {
		t.Error("partial result should carry diagnostics")
	}
}

func TestAnalyzeDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.rs"), []byte(`
fn f() {
    let v = Vec::new();
    let p = v.as_ptr();
    drop(v);
    unsafe { let x = *p; }
}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := AnalyzeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	findings := res.Detect("use-after-free")
	if len(findings) != 1 {
		t.Fatalf("findings = %+v", findings)
	}
	if _, err := AnalyzeDir(t.TempDir()); err == nil {
		t.Error("empty dir should error")
	}
}

// AnalyzeDir must key files relative to the scanned root so findings and
// content-hash cache keys for identical trees match across machines.
func TestAnalyzeDirRelativePaths(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "sub", "a.rs"), []byte("fn f() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := AnalyzeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := res.Fset.Files()
	if len(files) != 1 || files[0].Name != "sub/a.rs" {
		var names []string
		for _, f := range files {
			names = append(names, f.Name)
		}
		t.Errorf("file names = %v, want [sub/a.rs]", names)
	}
}

// Detect's runner (recover per detector, ctx checks, the dirty-closure
// view) must not change what the detectors find: its findings must be
// identical to calling each selected detector's Run directly over the
// same Context, for every selection shape the engine submits, and
// DetectCtx must return the same findings with a timing entry per
// detector run.
func TestDetectMatchesSerialRun(t *testing.T) {
	for _, group := range []string{"detector-eval", "patterns", "unsafe", "all"} {
		res, err := AnalyzeCorpus(group)
		if err != nil {
			t.Fatal(err)
		}
		for _, names := range [][]string{nil, {"use-after-free"}, {"double-lock", "conflicting-lock-order"}} {
			want := map[string]bool{}
			for _, n := range names {
				want[n] = true
			}
			var serial []Finding
			for _, d := range detectorRegistry(res.Precise) {
				if len(want) == 0 || want[d.Name()] {
					serial = append(serial, d.Run(res.Context())...)
				}
			}
			detect.SortFindings(serial)
			viaDetect := res.Detect(names...)
			withCtx, times, err := res.DetectCtx(context.Background(), names...)
			if err != nil {
				t.Fatalf("%s %v: DetectCtx: %v", group, names, err)
			}
			if len(want) > 0 && len(times) != len(want) {
				t.Errorf("%s %v: timed %d detectors: %v", group, names, len(times), times)
			}
			for _, got := range [][]Finding{viaDetect, withCtx} {
				if len(serial) != len(got) {
					t.Fatalf("%s %v: direct %d findings, runner %d", group, names, len(serial), len(got))
				}
				for i := range serial {
					if serial[i].Format(res.Fset) != got[i].Format(res.Fset) {
						t.Errorf("%s %v: finding %d diverges:\n direct: %s\n runner: %s",
							group, names, i, serial[i].Format(res.Fset), got[i].Format(res.Fset))
					}
				}
			}
		}
	}
}

func TestAnalyzeCorpusGroups(t *testing.T) {
	for _, g := range []string{"detector-eval", "patterns", "unsafe", "all"} {
		res, err := AnalyzeCorpus(g)
		if err != nil {
			t.Fatalf("corpus %s: %v", g, err)
		}
		if len(res.Bodies) == 0 {
			t.Errorf("corpus %s lowered no bodies", g)
		}
	}
	if _, err := AnalyzeCorpus("nope"); err == nil {
		t.Error("unknown group should error")
	}
}

func TestDetectorRegistry(t *testing.T) {
	names := DetectorNames()
	want := []string{"use-after-free", "double-lock", "conflicting-lock-order", "blocking", "drop-bugs", "uninitialized-read", "interior-mutability", "race", "dynamic"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("names[%d] = %s, want %s", i, names[i], want[i])
		}
	}
}

func TestMIRAccess(t *testing.T) {
	res, err := AnalyzeSource("t.rs", `fn g() { let x = 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	body := res.MIR("g")
	if body == nil {
		t.Fatal("no MIR for g")
	}
	if !strings.Contains(body.String(), "StorageLive") {
		t.Error("MIR dump missing storage markers")
	}
	if res.MIR("missing") != nil {
		t.Error("missing function should be nil")
	}
}

func TestScanUnsafeViaFacade(t *testing.T) {
	res, err := AnalyzeSource("u.rs", `
fn f() { unsafe { let p = 0 as *mut u8; *p = 1; } }
`)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.ScanUnsafe()
	if rep.Regions != 1 {
		t.Errorf("regions = %d", rep.Regions)
	}
	if len(rep.InteriorFns) != 1 {
		t.Errorf("interior fns = %d", len(rep.InteriorFns))
	}
}

func TestDynamicDetectorOptIn(t *testing.T) {
	res, err := AnalyzeSource("t.rs", `
struct S { v: i32 }
fn f(mu: Mutex<S>) {
    let a = mu.lock().unwrap();
    let b = mu.lock().unwrap();
}
`)
	if err != nil {
		t.Fatal(err)
	}
	// Default suite: one static double-lock finding, no dynamic ones.
	def := res.Detect()
	if len(def) != 1 {
		t.Fatalf("default findings = %d: %+v", len(def), def)
	}
	// Named: the dynamic explorer confirms the same deadlock.
	dyn := res.Detect("dynamic")
	if len(dyn) != 1 || dyn[0].Kind != "double-lock" {
		t.Fatalf("dynamic findings = %+v", dyn)
	}
	if !strings.Contains(dyn[0].Message, "(dynamic)") {
		t.Errorf("dynamic finding unmarked: %q", dyn[0].Message)
	}
}

// ExampleAnalyzeSource demonstrates the public API on the paper's
// Figure 8 double-lock bug.
func ExampleAnalyzeSource() {
	src := `
struct Inner { m: i32 }
fn connect(m: i32) -> Result<i32, i32> { Ok(m) }
pub fn do_request(client: Arc<RwLock<Inner>>) {
    match connect(client.read().unwrap().m) {
        Ok(mbrs) => {
            let mut inner = client.write().unwrap();
            inner.m = mbrs;
        }
        Err(e) => {}
    };
}
`
	res, err := AnalyzeSource("figure8.rs", src)
	if err != nil {
		panic(err)
	}
	for _, f := range res.Detect("double-lock") {
		fmt.Printf("%s in %s\n", f.Kind, f.Function)
	}
	// Output:
	// double-lock in do_request
}
