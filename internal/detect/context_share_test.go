// Tests that the per-function facts the detectors share (the CFG, the
// double-lock guard analysis, the alias resolver, the uninitialized-
// allocation dataflow) are computed once per Context and read-only to
// every detector that uses them.
package detect_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"rustprobe"
	"rustprobe/internal/detect"
	"rustprobe/internal/detect/alias"
	"rustprobe/internal/detect/dfree"
	"rustprobe/internal/detect/doublelock"
	"rustprobe/internal/detect/lockorder"
	"rustprobe/internal/detect/uaf"
	"rustprobe/internal/detect/uninit"
)

// TestContextSharesFunctionFacts: after a full Detect over the patterns
// corpus, every shared fact was built exactly once per body, not once per
// detector that asked, and the acquisition summary double-lock and lock
// order read was computed once; repeat lookups return the same object;
// lock order alone builds the double-lock facts; no detector resolves
// callees or builds CFGs on its own, no detector builds an event summary
// or a namespace translation of its own, drop-bugs reads the uninit
// dataflow instead of running its own, and the drop-glue, pointer and
// heap-ownership rules are declared only in package types.
func TestContextSharesFunctionFacts(t *testing.T) {
	var mu sync.Mutex
	builds := map[string]int{}
	defer detect.SetSharedBuildHook(func(kind string) {
		mu.Lock()
		builds[kind]++
		mu.Unlock()
	})()

	res, err := rustprobe.AnalyzeCorpus("patterns")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Detect()) == 0 {
		t.Fatal("no findings on the patterns corpus")
	}
	ctx := res.Context()
	n := len(ctx.Bodies)
	for kind, b := range builds {
		if b > n {
			t.Errorf("%s built %d times for %d bodies", kind, b, n)
		}
	}
	for _, kind := range []string{"cfg", "doublelock.facts", "doublelock.acquisitions", "alias", "uninit.facts"} {
		if builds[kind] != n {
			t.Errorf("%s built %d times, want once per body (%d)", kind, builds[kind], n)
		}
	}
	if got := builds["doublelock.acquisition-summary"]; got != 1 {
		t.Errorf("the cold acquisition summary was computed %d times, want once per Context", got)
	}
	want := fmt.Sprint(builds)

	for _, fn := range ctx.Graph.Names() {
		g, lf, r, u := ctx.CFG(fn), doublelock.Facts(ctx, fn), alias.For(ctx, fn), uninit.Facts(ctx, fn)
		if ctx.CFG(fn) != g || doublelock.Facts(ctx, fn) != lf || alias.For(ctx, fn) != r || uninit.Facts(ctx, fn) != u {
			t.Fatalf("%s: a repeat lookup returned a different object", fn)
		}
		if lf.CFG != g || r.Locks() != lf {
			t.Fatalf("%s: the lock facts or the resolver were built on a different CFG", fn)
		}
	}
	if got := fmt.Sprint(builds); got != want {
		t.Fatalf("repeat lookups rebuilt facts: builds = %s, before them %s", got, want)
	}

	// Lock order reads the double-lock guard analysis instead of running
	// its own: alone on a fresh Context it builds the lock facts of every
	// body, once each.
	fresh, err := rustprobe.AnalyzeCorpus("patterns")
	if err != nil {
		t.Fatal(err)
	}
	fctx := fresh.Context()
	for k := range builds {
		delete(builds, k)
	}
	lockorder.New().Run(fctx)
	if got := builds["doublelock.facts"]; got != len(fctx.Bodies) {
		t.Errorf("lock order built doublelock.facts %d times, want once per body (%d)", got, len(fctx.Bodies))
	}

	// A warm-started lock order computes its own summary from its carry
	// and leaves the Context's cold one alone.
	_, carry, _ := lockorder.New().RunIncremental(fctx, nil, nil)
	before := builds["doublelock.acquisition-summary"]
	if _, _, reused := lockorder.New().RunIncremental(fctx, carry, map[string]bool{}); reused != len(fctx.Bodies) {
		t.Errorf("warm lock order reused %d functions' facts, want %d", reused, len(fctx.Bodies))
	}
	if got := builds["doublelock.acquisition-summary"]; got != before || got != 1 {
		t.Errorf("cold acquisition summary built %d times after a warm start (before it %d), want 1", got, before)
	}

	// The counts above see only what goes through the Context: a detector
	// building its own CFG would bypass them, and a detector resolving
	// callees its own way would drift from Context.Callee.
	files, err := filepath.Glob("*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(src), "cfg.New(") {
			t.Errorf("%s calls cfg.New; use Context.CFG", f)
		}
		if strings.Contains(string(src), "func resolvedCallee(") {
			t.Errorf("%s declares its own resolvedCallee; use Context.Callee", f)
		}
		// Drop-bugs reads the invalid-free facts from uninit.Facts.
		if filepath.Dir(f) == "dfree" && strings.Contains(string(src), "dataflow.Problem") {
			t.Errorf("%s builds a dataflow.Problem; use uninit.Facts", f)
		}
		// Race, blocking, double-lock and lock order summarize their
		// events through the one lockset-annotated event summary and its
		// one path-depth cap.
		switch filepath.Dir(f) {
		case "race", "blocking", "doublelock", "lockorder":
			if f == filepath.Join("doublelock", "events.go") {
				break
			}
			for _, own := range []string{"summary.Problem", "summary.ComputeFrom", "maxPathDepth"} {
				if strings.Contains(string(src), own) {
					t.Errorf("%s uses %s; use doublelock.SummarizeEvents and summary.MaxPathDepth", f, own)
				}
			}
		}
	}

	// Callee paths reach a caller through summary.TranslateRoot alone,
	// and the type rules the memory detectors, the refuter, the lowering
	// and the dynamic oracle must agree on have one copy, in package types.
	translate := "summary." + "Translate("
	typeRule := regexp.MustCompile(`func (\([^)]*\) )?(needsDrop|typeNeedsDrop|ownsHeap|isPointer)\(`)
	err = filepath.WalkDir("..", func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.Contains(string(src), translate) {
			t.Errorf("%s calls %s; use summary.TranslateRoot", path, translate)
		}
		if m := typeRule.FindSubmatch(src); m != nil && filepath.Dir(path) != filepath.Join("..", "types") {
			t.Errorf("%s declares %s; use the rule in package types", path, m[2])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDetectorsConcurrentOnOneContext runs every registered detector
// (and the precise memory detectors) twice, all at once, over one
// Context; each run must report what the same detector reports alone on
// a fresh Context. Under -race this checks that no detector writes to a
// shared fact.
func TestDetectorsConcurrentOnOneContext(t *testing.T) {
	ds := append(rustprobe.Detectors(), uaf.NewPrecise(), dfree.NewPrecise(), uninit.NewPrecise())
	fresh := func() *detect.Context {
		res, err := rustprobe.AnalyzeCorpus("all")
		if err != nil {
			t.Fatal(err)
		}
		return res.Context()
	}
	want := make([]string, len(ds))
	for i, d := range ds {
		want[i] = formatFindings(d.Run(fresh()))
	}

	ctx := fresh()
	const rounds = 2
	got := make([]string, rounds*len(ds))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = formatFindings(ds[i%len(ds)].Run(ctx))
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		d := i % len(ds)
		if g != want[d] {
			t.Errorf("%s on a shared Context diverged:\nalone:\n%s\nshared:\n%s", ds[d].Name(), want[d], g)
		}
	}
}
