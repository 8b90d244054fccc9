// Tests that the precise detectors treat the Context's shared dropflow
// state (summaries and per-function walk results) as immutable: running
// the full precise suite twice over one Context must neither change the
// cached analyses nor the findings. This mirrors the engine's
// TestEngineCacheNotesDeepCopy guard against aliasing bugs where one
// consumer's mutation poisons every later consumer of a shared cache.
package detect_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"rustprobe/internal/detect"
	"rustprobe/internal/detect/blocking"
	"rustprobe/internal/detect/dfree"
	"rustprobe/internal/detect/doublelock"
	"rustprobe/internal/detect/uaf"
	"rustprobe/internal/detect/uninit"
	"rustprobe/internal/dropflow"
	"rustprobe/internal/lower"
	"rustprobe/internal/parser"
	"rustprobe/internal/pointsto"
	"rustprobe/internal/resolve"
	"rustprobe/internal/source"
)

// sharedStateSrc exercises every dropflow feature the three precise
// detectors consult: alias classes, uninit tracking, dup tracking, branch
// correlation, and context-sensitive summaries.
const sharedStateSrc = `
fn helper(p: *const i32, go_deep: bool) {
    if go_deep {
        unsafe { let v = *p; }
    }
}

fn use_after_drop() {
    let v = Vec::new();
    let p = v.as_ptr();
    drop(v);
    unsafe { let x = *p; }
}

fn guarded(c: bool) {
    let v = Vec::new();
    let p = v.as_ptr();
    if c {
        drop(v);
    }
    if !c {
        unsafe { let x = *p; }
    }
    helper(p, false);
}

struct Wrap { buf: Vec<u8> }

fn dup_and_drop() {
    let w = Wrap { buf: Vec::new() };
    let p = &w as *const Wrap;
    unsafe {
        let w2 = ptr::read(p);
        drop(w2);
    }
    drop(w);
}

fn alloc_then_assign() {
    unsafe {
        let f = alloc(64) as *mut Wrap;
        *f = Wrap { buf: Vec::new() };
        let v = *f;
    }
}
`

func buildContext(t *testing.T, src string) *detect.Context {
	t.Helper()
	fset := source.NewFileSet()
	f := fset.Add("shared.rs", src)
	diags := source.NewDiagnostics(fset)
	crate := parser.ParseFile(f, diags)
	if diags.HasErrors() {
		t.Fatalf("parse errors:\n%s", diags.String())
	}
	prog := resolve.Crates(fset, diags, crate)
	bodies := lower.Program(prog, diags)
	return detect.NewContext(prog, bodies)
}

// snapshotDropflow renders the Context's shared dropflow state canonically.
func snapshotDropflow(ctx *detect.Context) string {
	var b strings.Builder
	sums := ctx.DropFlowSummaries()
	names := make([]string, 0, len(sums))
	for n := range sums {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "sum %s: %s\n", n, sums[n].String())
	}
	for _, n := range ctx.Graph.Names() {
		res := ctx.DropFlow(n)
		keys := make([]string, 0, len(res.Sites))
		byKey := map[string]string{}
		for k, v := range res.Sites {
			ks := k.String()
			keys = append(keys, ks)
			byKey[ks] = fmt.Sprintf("dead=%t uninit=%t dfree=%t", v.MayUseDead, v.MayUninit, v.MayDoubleFree)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "fn %s bailed=%t\n", n, res.Bailed)
		for _, ks := range keys {
			fmt.Fprintf(&b, "  %s %s\n", ks, byKey[ks])
		}
	}
	return b.String()
}

func runPreciseSuite(ctx *detect.Context) string {
	var all []detect.Finding
	for _, d := range []detect.Detector{uaf.NewPrecise(), dfree.NewPrecise(), uninit.NewPrecise()} {
		all = append(all, d.Run(ctx)...)
	}
	detect.SortFindings(all)
	var b strings.Builder
	for _, f := range all {
		fmt.Fprintf(&b, "%s %s %s %s\n", f.Kind, f.Function, f.Message, strings.Join(f.Notes, ";"))
	}
	return b.String()
}

// blockingStateSrc plants two §6.1 blocking bugs (an orphaned recv and a
// condvar wait with no notifier) next to a double-lock, so the blocking
// detector and the lockset machinery it borrows (doublelock.Facts) both
// have real work to do on the shared Context.
const blockingStateSrc = `
fn poll() -> i32 {
    let (tx, rx) = mpsc::channel();
    drop(tx);
    let v = rx.recv().unwrap();
    v
}

struct W { ready: Mutex<bool>, cv: Condvar }
impl W {
    fn wait(&self) {
        let g = self.ready.lock().unwrap();
        let g2 = self.cv.wait(g);
        consume(g2);
    }
    fn relock(&self) {
        let a = self.ready.lock().unwrap();
        let b = self.ready.lock().unwrap();
    }
}
`

func formatFindings(fs []detect.Finding) string {
	detect.SortFindings(fs)
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&b, "%s %s %s %s\n", f.Kind, f.Function, f.Message, strings.Join(f.Notes, ";"))
	}
	return b.String()
}

// TestBlockingDetectorPureUnderParallelFanout is the shared-state audit
// entry for the §6.1 blocking detector: under the parallel detector
// fan-out (concurrent blocking runs interleaved with doublelock, whose
// guard analysis blocking reuses, all over ONE Context) every run must
// see identical findings, and the Context's shared dropflow caches must
// come through untouched.
func TestBlockingDetectorPureUnderParallelFanout(t *testing.T) {
	ctx := buildContext(t, blockingStateSrc)
	before := snapshotDropflow(ctx)
	baseline := formatFindings(blocking.New().Run(ctx))
	if strings.Count(baseline, "\n") != 2 {
		t.Fatalf("baseline blocking findings:\n%s", baseline)
	}
	const fanout = 8
	results := make([]string, fanout)
	var wg sync.WaitGroup
	for i := 0; i < fanout; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				results[i] = formatFindings(blocking.New().Run(ctx))
			} else {
				doublelock.New().Run(ctx)
				results[i] = formatFindings(blocking.New().Run(ctx))
			}
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r != baseline {
			t.Errorf("fan-out run %d diverged:\nbaseline:\n%s\ngot:\n%s", i, baseline, r)
		}
	}
	if after := snapshotDropflow(ctx); after != before {
		t.Fatalf("blocking fan-out mutated shared dropflow state:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

func TestPreciseDetectorsDoNotMutateSharedDropflow(t *testing.T) {
	ctx := buildContext(t, sharedStateSrc)
	before := snapshotDropflow(ctx)
	first := runPreciseSuite(ctx)
	mid := snapshotDropflow(ctx)
	if mid != before {
		t.Fatalf("first precise run mutated shared dropflow state:\nbefore:\n%s\nafter:\n%s", before, mid)
	}
	second := runPreciseSuite(ctx)
	if second != first {
		t.Fatalf("second precise run saw different findings:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
	if after := snapshotDropflow(ctx); after != before {
		t.Fatalf("second precise run mutated shared dropflow state:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// The default (paper-faithful) detectors share the same Context; running
// them interleaved with precise ones must not change either's results.
func TestDefaultAndPreciseShareContextSafely(t *testing.T) {
	ctx := buildContext(t, sharedStateSrc)
	preciseAlone := runPreciseSuite(buildContext(t, sharedStateSrc))

	var def []detect.Finding
	for _, d := range []detect.Detector{uaf.New(), dfree.New(), uninit.New()} {
		def = append(def, d.Run(ctx)...)
	}
	precise := runPreciseSuite(ctx)
	if precise != preciseAlone {
		t.Fatalf("precise results differ when defaults ran first on the same Context:\nalone:\n%s\nshared:\n%s", preciseAlone, precise)
	}
	var def2 []detect.Finding
	for _, d := range []detect.Detector{uaf.New(), dfree.New(), uninit.New()} {
		def2 = append(def2, d.Run(ctx)...)
	}
	if len(def2) != len(def) {
		t.Fatalf("default findings changed after precise run: %d -> %d", len(def), len(def2))
	}
	// Precise findings must be a subset of default findings.
	if strings.Count(precise, "\n") > len(def) {
		t.Fatalf("precise produced more findings (%d) than default (%d)", strings.Count(precise, "\n"), len(def))
	}
}

// TestContextAnalysesSharedAcrossGoroutines: detectors fanned out over
// one Context that ask for the same function's points-to or dropflow
// result all receive the one cached result.
func TestContextAnalysesSharedAcrossGoroutines(t *testing.T) {
	ctx := buildContext(t, sharedStateSrc)
	const n = 16
	var wg sync.WaitGroup
	type pair struct {
		pts  *pointsto.Result
		drop *dropflow.Result
	}
	got := make([]pair, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = pair{ctx.PointsTo("guarded"), ctx.DropFlow("guarded")}
		}(i)
	}
	wg.Wait()
	for i, p := range got {
		if p.pts != got[0].pts || p.drop != got[0].drop {
			t.Fatalf("goroutine %d got a different result than goroutine 0", i)
		}
	}
	if ctx.PointsTo("guarded") != got[0].pts || ctx.DropFlow("guarded") != got[0].drop {
		t.Fatal("a later caller recomputed a cached analysis")
	}
}
