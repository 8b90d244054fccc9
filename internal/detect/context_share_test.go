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
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"rustprobe"
	"rustprobe/internal/corpus"
	"rustprobe/internal/detect"
	"rustprobe/internal/detect/alias"
	"rustprobe/internal/detect/dfree"
	"rustprobe/internal/detect/doublelock"
	"rustprobe/internal/detect/lockorder"
	"rustprobe/internal/detect/uaf"
	"rustprobe/internal/detect/uninit"
	"rustprobe/internal/mir"
)

// TestContextSharesFunctionFacts: after a full Detect over the patterns
// corpus, every shared fact was built exactly once per body, not once per
// detector that asked, and the acquisition summary double-lock and lock
// order read was computed once; repeat lookups return the same object;
// lock order alone builds the double-lock facts, and on a Context that
// inherits them builds nothing but a warm acquisition summary that
// reuses every function's; no detector resolves
// callees or builds CFGs on its own, no detector builds an event summary
// or a namespace translation of its own, drop-bugs reads the uninit
// dataflow instead of running its own, and the drop-glue, pointer and
// heap-ownership rules are declared only in package types.
func TestContextSharesFunctionFacts(t *testing.T) {
	var mu sync.Mutex
	builds := map[string]int{}
	defer detect.SetSharedBuildHook(func(kind, _ string) {
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
	for _, kind := range []string{"cfg", "doublelock.facts", "doublelock.acquisitions", "alias", "uninit.facts", "race.info", "blocking.info", "interiormut.info"} {
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

	// A Context inheriting from that one with nothing dirty takes every
	// fact lock order read: lock order on it builds none, and its
	// acquisition summary warm-starts from the previous one, reusing every
	// function's summary.
	order := formatFindings(lockorder.New().Run(fctx))
	next := detect.NewContextWithGraph(fctx.Program, fctx.Bodies, fctx.Graph)
	if n := next.Inherit(fctx, nil); n < len(fctx.Bodies) {
		t.Errorf("inherited %d facts, want at least one per body (%d)", n, len(fctx.Bodies))
	}
	clear(builds)
	if got := formatFindings(lockorder.New().Run(next)); got != order {
		t.Errorf("lock order on the inheriting Context diverged:\n got: %s\nwant: %s", got, order)
	}
	if got := fmt.Sprint(builds); got != "map[doublelock.acquisition-summary:1]" {
		t.Errorf("lock order on the inheriting Context built %s, want the acquisition summary alone", got)
	}
	prevSums, nextSums := doublelock.SummarizeAcquisitions(fctx).Summaries, doublelock.SummarizeAcquisitions(next).Summaries
	for fn, s := range prevSums {
		if reflect.ValueOf(nextSums[fn]).Pointer() != reflect.ValueOf(s).Pointer() {
			t.Errorf("%s: the warm acquisition summary recomputed a clean function", fn)
		}
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

// TestBodyOnlyRoundBuildsFactsOnce: a body-only session round's Context
// inherits every unchanged function's facts from the previous round, and
// the dirty closure's view shares its per-function scope, so the round
// builds each per-function fact at most once, and only for the bodies
// it re-lowered.
func TestBodyOnlyRoundBuildsFactsOnce(t *testing.T) {
	files, err := corpus.Files(corpus.GroupAll)
	if err != nil {
		t.Fatal(err)
	}
	tree := map[string]string{}
	for _, f := range files {
		tree[f.Path] = f.Content
	}
	s := rustprobe.NewSession()
	first, err := s.Analyze(tree)
	if err != nil {
		t.Fatal(err)
	}
	const file = "rust/ethereum/race_sealer.rs"
	edited := strings.Replace(tree[file], "state.attempts + 1;", "state.attempts + 2;", 1)
	if edited == tree[file] {
		t.Fatal("the edit matched nothing")
	}
	tree[file] = edited

	var mu sync.Mutex
	builds := map[[2]string]int{}
	restore := detect.SetSharedBuildHook(func(kind, fn string) {
		mu.Lock()
		builds[[2]string{kind, fn}]++
		mu.Unlock()
	})
	up, err := s.Analyze(tree)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if up.Stats.Full || up.Stats.GlobalFactsReused == 0 || up.Stats.RootsDetected >= up.Stats.FuncsTotal {
		t.Fatalf("stats %+v, want an incremental round over a strict dirty closure that inherits facts", up.Stats)
	}
	relowered := map[string]bool{}
	for name, b := range up.Result.Bodies {
		if first.Result.Bodies[name] != b {
			relowered[name] = true
		}
	}
	for k, n := range builds {
		kind, fn := k[0], k[1]
		if fn == "" || kind == "dropflow" {
			continue // Context scope: once per Context
		}
		if n > 1 {
			t.Errorf("%s of %s built %d times in one round", kind, fn, n)
		}
		if !relowered[fn] {
			t.Errorf("%s of %s built, but its body was kept and the fact inherited", kind, fn)
		}
	}
	for _, kind := range []string{"race.info", "blocking.info", "interiormut.info", "doublelock.acquisitions", "cfg"} {
		if builds[[2]string{kind, "push_work"}] != 1 {
			t.Errorf("%s of the edited push_work built %d times, want 1", kind, builds[[2]string{kind, "push_work"}])
		}
	}
}

// TestBodyOnlyRoundDerivesPairingsOnce: the global detectors' pairing
// entries (DerivedAll) are built in a body-only round exactly for the
// functions whose summaries the round recomputed, and for a spawner
// whose spawned closure's summary it recomputed, each once; every other
// entry is the previous round's. The edit is to a helper only spawned
// closures call, so the spawner itself is neither edited nor a caller.
func TestBodyOnlyRoundDerivesPairingsOnce(t *testing.T) {
	files, err := corpus.Files(corpus.GroupAll)
	if err != nil {
		t.Fatal(err)
	}
	tree := map[string]string{}
	for _, f := range files {
		tree[f.Path] = f.Content
	}
	s := rustprobe.NewSession()
	if _, err := s.Analyze(tree); err != nil {
		t.Fatal(err)
	}
	const file = "rust/tikv/race_metrics.rs"
	edited := strings.Replace(tree[file], "SLOW_QUERIES += 1;", "SLOW_QUERIES += 2;", 1)
	if edited == tree[file] {
		t.Fatal("the edit matched nothing")
	}
	tree[file] = edited

	kinds := []string{"blocking.index", "race.pairs", "lockorder.pairs"}
	var mu sync.Mutex
	built := map[string]map[string]int{}
	restore := detect.SetSharedBuildHook(func(kind, fn string) {
		mu.Lock()
		if built[kind] == nil {
			built[kind] = map[string]int{}
		}
		built[kind][fn]++
		mu.Unlock()
	})
	up, err := s.Analyze(tree)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if up.Stats.Full {
		t.Fatalf("stats %+v, want an incremental round", up.Stats)
	}
	ctx := up.Result.Context()
	recomputed := doublelock.SummarizeAcquisitions(ctx).Recomputed
	if !recomputed["note_slow"] || len(recomputed) >= len(ctx.Graph.Names())/4 {
		t.Fatalf("recomputed %v, want the edited note_slow and a small closure", recomputed)
	}
	// The functions defining a recomputed closure may read its summary.
	definers := map[string]bool{}
	for fn := range recomputed {
		if i := strings.Index(fn, "::closure#"); i >= 0 {
			definers[fn[:i]] = true
		}
	}
	for _, kind := range kinds {
		for fn, n := range built[kind] {
			if n != 1 {
				t.Errorf("%s of %s built %d times in one round", kind, fn, n)
			}
			if !recomputed[fn] && !definers[fn] {
				t.Errorf("%s of %s built, but neither its summary nor a closure's it reads was recomputed", kind, fn)
			}
		}
		for fn := range recomputed {
			if built[kind][fn] != 1 {
				t.Errorf("%s of recomputed %s built %d times, want 1", kind, fn, built[kind][fn])
			}
		}
	}
	if built["race.pairs"]["audit_workers"] != 1 {
		t.Errorf("race.pairs of audit_workers, whose spawned closures call the edited helper, built %d times, want 1", built["race.pairs"]["audit_workers"])
	}
}

// TestViewSharesFunctionScope runs every detector at once over a
// Context and over a callee-closed view of it, which share one
// per-function scope. Each run must report what the same detector
// reports on a Context of its own over the same bodies; under -race this
// checks that both sides may fill the shared scope concurrently.
func TestViewSharesFunctionScope(t *testing.T) {
	ds := append(rustprobe.Detectors(), uaf.NewPrecise(), dfree.NewPrecise(), uninit.NewPrecise())
	res, err := rustprobe.AnalyzeCorpus("all")
	if err != nil {
		t.Fatal(err)
	}
	whole := res.Context()
	sub := map[string]*mir.Body{}
	var add func(string)
	add = func(fn string) {
		if _, ok := sub[fn]; ok {
			return
		}
		sub[fn] = whole.Bodies[fn]
		for _, e := range whole.Graph.Callees[fn] {
			add(e.Callee)
		}
	}
	names := whole.Graph.Names()
	for i := 0; i < len(names); i += 3 {
		add(names[i])
	}
	if len(sub) == len(names) {
		t.Fatal("the view covers the whole program")
	}
	view := whole.View(sub)
	ctxs := []*detect.Context{whole, view}
	want := make([]string, 2*len(ds))
	for i, d := range ds {
		want[2*i] = formatFindings(d.Run(detect.NewContext(res.Program, res.Bodies)))
		want[2*i+1] = formatFindings(d.Run(detect.NewContext(res.Program, sub)))
	}

	got := make([]string, len(want))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = formatFindings(ds[i/2].Run(ctxs[i%2]))
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s on the %s diverged from a Context of its own:\n got: %s\nwant: %s",
				ds[i/2].Name(), []string{"whole Context", "view"}[i%2], got[i], want[i])
		}
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

// TestInheritingContextConcurrentWithPrevious runs every detector at
// once over a Context and over the next round's, which inherited the
// per-function facts, summaries and derived pairing entries of the
// detectors that had run on it while one body object changed. Each run
// must report what the detector reports alone on a Context of its own;
// under -race this checks that the two rounds, both still computing,
// write nothing they share.
func TestInheritingContextConcurrentWithPrevious(t *testing.T) {
	ds := append(rustprobe.Detectors(), uaf.NewPrecise(), dfree.NewPrecise(), uninit.NewPrecise())
	res, err := rustprobe.AnalyzeCorpus("all")
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(ds))
	for i, d := range ds {
		want[i] = formatFindings(d.Run(detect.NewContext(res.Program, res.Bodies)))
	}
	prev := res.Context()
	for _, d := range ds[:len(ds)/2] {
		d.Run(prev)
	}
	// A copy of note_slow's body is a new object with the same content:
	// the next round rebuilds its facts and recomputes its callers'
	// summaries, and every finding stays the same.
	bodies := make(map[string]*mir.Body, len(res.Bodies))
	for fn, b := range res.Bodies {
		bodies[fn] = b
	}
	edited := *bodies["note_slow"]
	bodies["note_slow"] = &edited
	next := detect.NewContext(res.Program, bodies)
	next.Inherit(prev, map[string]bool{"note_slow": true})

	ctxs := []*detect.Context{prev, next}
	got := make([]string, 2*len(ds))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = formatFindings(ds[i/2].Run(ctxs[i%2]))
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] != want[i/2] {
			t.Errorf("%s on the %s Context diverged:\n got: %s\nwant: %s",
				ds[i/2].Name(), []string{"previous", "inheriting"}[i%2], got[i], want[i/2])
		}
	}
}
