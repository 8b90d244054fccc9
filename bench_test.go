package rustprobe_test

// The benchmark harness regenerates every table and figure in the paper's
// evaluation (see DESIGN.md's per-experiment index). Table/figure benches
// rebuild the study database and render the artifact; the §4.1 benches
// measure the checked-vs-unchecked access and copy gaps the paper reports
// (4-5x and ~23%); the §7 benches time the two detectors over the
// evaluation corpus; the engine benches compare serial analysis against
// the concurrent engine on the same job set.
//
// Run everything with:
//
//	go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"rustprobe"
	"rustprobe/internal/callgraph"
	"rustprobe/internal/corpus"
	"rustprobe/internal/detect"
	"rustprobe/internal/detect/blocking"
	"rustprobe/internal/detect/doublelock"
	"rustprobe/internal/detect/race"
	"rustprobe/internal/detect/uaf"
	"rustprobe/internal/engine"
	"rustprobe/internal/gen"
	"rustprobe/internal/incrstate"
	"rustprobe/internal/lower"
	"rustprobe/internal/report"
	"rustprobe/internal/rtsim"
	"rustprobe/internal/study"
	"rustprobe/internal/summary"
	"rustprobe/internal/unsafety"
)

// --- Tables 1-4 and Figures 1-2 --------------------------------------------

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		db := study.Build()
		if len(report.Table1(db)) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		db := study.Build()
		if !strings.Contains(report.Table2(db), "70") {
			b.Fatal("table 2 lost its total")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		db := study.Build()
		if !strings.Contains(report.Table3(db), "59") {
			b.Fatal("table 3 lost its total")
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		db := study.Build()
		if len(report.Table4(db)) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !strings.Contains(report.Figure1(), "Stable since") {
			b.Fatal("figure 1 malformed")
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		db := study.Build()
		if !strings.Contains(report.Figure2(db), "145 of 170") {
			b.Fatal("figure 2 lost its headline")
		}
	}
}

// --- §3 mining funnel -------------------------------------------------------

func BenchmarkMiningPipeline(b *testing.B) {
	db := study.Build()
	commits := corpus.SyntheticCommits(db)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, funnel := study.Mine(commits)
		if funnel.Filtered != 170 {
			b.Fatalf("funnel = %+v", funnel)
		}
	}
}

// --- §4 unsafe scanner ------------------------------------------------------

func BenchmarkUnsafeScan(b *testing.B) {
	res, err := rustprobe.AnalyzeCorpus("unsafe")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := unsafety.Scan(res.Program)
		if rep.TotalUsages() == 0 {
			b.Fatal("no usages")
		}
	}
}

// --- §4.1 performance claims ------------------------------------------------

const perfN = 64 * 1024

// BenchmarkCheckedAccess is the safe `slice[i]` baseline: the paper
// measures unchecked access 4-5x faster.
func BenchmarkCheckedAccess(b *testing.B) {
	s := rtsim.NewSlice(perfN)
	b.SetBytes(perfN)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.SumChecked()
	}
	_ = sink
}

// BenchmarkUncheckedAccess is `slice::get_unchecked`.
func BenchmarkUncheckedAccess(b *testing.B) {
	s := rtsim.NewSlice(perfN)
	b.SetBytes(perfN)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.SumUnchecked()
	}
	_ = sink
}

// BenchmarkPointerTraversal is ptr::offset-style traversal.
func BenchmarkPointerTraversal(b *testing.B) {
	s := rtsim.NewSlice(perfN)
	b.SetBytes(perfN)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.SumPointer()
	}
	_ = sink
}

// BenchmarkCopyFromSlice is the safe slice::copy_from_slice model, swept
// over sizes: the paper's ~23% unsafe win concentrates at small copies
// where the length-check branch dominates.
func BenchmarkCopyFromSlice(b *testing.B) {
	for _, size := range rtsim.CopySweepSizes {
		b.Run(fmtSize(size), func(b *testing.B) {
			src := make([]byte, size)
			dst := make([]byte, size)
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				rtsim.CopyFromSlice(dst, src)
			}
		})
	}
}

// BenchmarkCopyNonoverlapping is the unsafe ptr::copy_nonoverlapping
// model (paper: ~23% faster in some cases).
func BenchmarkCopyNonoverlapping(b *testing.B) {
	for _, size := range rtsim.CopySweepSizes {
		b.Run(fmtSize(size), func(b *testing.B) {
			src := make([]byte, size)
			dst := make([]byte, size)
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				rtsim.CopyNonoverlapping(dst, src)
			}
		})
	}
}

func fmtSize(n int) string {
	if n >= 1024 {
		return fmt.Sprintf("%dKiB", n/1024)
	}
	return fmt.Sprintf("%dB", n)
}

// --- §7 detectors -----------------------------------------------------------

func evalCtx(b *testing.B) *detect.Context {
	b.Helper()
	prog, diags, err := corpus.Load(corpus.GroupDetectorEval)
	if err != nil {
		b.Fatal(err)
	}
	bodies := lower.Program(prog, diags)
	return detect.NewContext(prog, bodies)
}

func BenchmarkDetectUAF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ctx := evalCtx(b)
		b.StartTimer()
		findings := uaf.New().Run(ctx)
		if len(findings) != study.UAFBugsFound+study.UAFFalsePositives {
			b.Fatalf("findings = %d", len(findings))
		}
	}
}

func BenchmarkDetectDoubleLock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ctx := evalCtx(b)
		b.StartTimer()
		findings := doublelock.New().Run(ctx)
		if len(findings) != study.DoubleLockBugsFound {
			b.Fatalf("findings = %d", len(findings))
		}
	}
}

// BenchmarkDetectRace times the §6.2 data-race detector (thread-escape +
// inter-procedural locksets + pairing) over the patterns corpus, where it
// must find exactly the five seeded races.
func BenchmarkDetectRace(b *testing.B) {
	prog, diags, err := corpus.Load(corpus.GroupPatterns)
	if err != nil {
		b.Fatal(err)
	}
	bodies := lower.Program(prog, diags)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ctx := detect.NewContext(prog, bodies)
		b.StartTimer()
		findings := race.New().Run(ctx)
		if len(findings) != study.RaceBugsFound {
			b.Fatalf("findings = %d", len(findings))
		}
	}
}

// BenchmarkDetectBlocking times the §6.1 wait-for-graph blocking-bug
// detector (channel hold-and-wait, orphaned recv, condvar lost signal,
// Once reentrancy) over the patterns corpus, where it must find exactly
// the six seeded blocking bugs and stay silent on their negative pairs.
func BenchmarkDetectBlocking(b *testing.B) {
	prog, diags, err := corpus.Load(corpus.GroupPatterns)
	if err != nil {
		b.Fatal(err)
	}
	bodies := lower.Program(prog, diags)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ctx := detect.NewContext(prog, bodies)
		b.StartTimer()
		findings := blocking.New().Run(ctx)
		if len(findings) != study.BlockingBugsFound {
			b.Fatalf("findings = %d", len(findings))
		}
	}
}

// BenchmarkSummaryFixpoint isolates the SCC-fixpoint summary framework
// both detectors build on: a lockset-style union transfer over the whole
// corpus call graph (including the recursive registry_cycle SCC).
func BenchmarkSummaryFixpoint(b *testing.B) {
	prog, diags, err := corpus.Load(corpus.GroupAll)
	if err != nil {
		b.Fatal(err)
	}
	bodies := lower.Program(prog, diags)
	g := callgraph.Build(bodies)
	prob := &summary.Problem[map[string]bool]{
		Bottom: func(string) map[string]bool { return nil },
		Transfer: func(fn string, get summary.Lookup[map[string]bool]) map[string]bool {
			out := map[string]bool{fn: true}
			for _, e := range g.Callees[fn] {
				s, _ := get(e.Callee)
				for k := range s {
					out[k] = true
				}
			}
			return out
		},
		Equal: func(a, b map[string]bool) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if !b[k] {
					return false
				}
			}
			return true
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := summary.Compute(g, prob)
		if len(res.Summaries) == 0 || res.TruncatedSCCs != 0 {
			b.Fatalf("summaries = %d, truncated SCCs = %d", len(res.Summaries), res.TruncatedSCCs)
		}
	}
}

// BenchmarkFrontend times the full parse+resolve+lower pipeline over the
// whole corpus (the compiler-side cost of an analysis run).
func BenchmarkFrontend(b *testing.B) {
	files, err := corpus.Files(corpus.GroupAll)
	if err != nil {
		b.Fatal(err)
	}
	total := 0
	for _, f := range files {
		total += len(f.Content)
	}
	b.SetBytes(int64(total))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := corpus.Load(corpus.GroupAll); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullAnalysis times end-to-end analysis incl. every detector.
func BenchmarkFullAnalysis(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := rustprobe.AnalyzeCorpus("all")
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Detect()) == 0 {
			b.Fatal("no findings on the buggy corpus")
		}
	}
}

// --- concurrent analysis engine ---------------------------------------------

// engineJobSet is the shared workload for the serial-vs-parallel engine
// comparison: every corpus group plus each group resubmitted under a
// narrowed detector selection, i.e. independent jobs of uneven cost.
func engineJobSet() []engine.Request {
	groups := []string{"detector-eval", "patterns", "unsafe", "apps"}
	var jobs []engine.Request
	for _, g := range groups {
		jobs = append(jobs,
			engine.Request{Corpus: g},
			engine.Request{Corpus: g, Detectors: []string{"use-after-free", "double-lock"}},
		)
	}
	return jobs
}

// BenchmarkEngineSerial analyzes the job set one request at a time on the
// plain pipeline — the baseline the engine's worker pool must beat.
func BenchmarkEngineSerial(b *testing.B) {
	jobs := engineJobSet()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			res, err := rustprobe.AnalyzeCorpus(j.Corpus)
			if err != nil {
				b.Fatal(err)
			}
			res.Detect(j.Detectors...)
			res.ScanUnsafe()
		}
	}
}

// BenchmarkEngineParallel pushes the same job set through the concurrent
// engine (one worker per core, caching disabled so every job really
// runs). On a multi-core machine this demonstrates >1.5x the serial
// throughput; jobs parallelize across the pool and detectors within one
// job overlap.
func BenchmarkEngineParallel(b *testing.B) {
	jobs := engineJobSet()
	eng := engine.New(engine.Config{
		Workers:       runtime.GOMAXPROCS(0),
		QueueDepth:    len(jobs),
		CacheCapacity: -1, // disabled: measure analysis, not memoization
	})
	defer eng.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, j := range jobs {
			wg.Add(1)
			go func(j engine.Request) {
				defer wg.Done()
				if _, err := eng.Analyze(context.Background(), j); err != nil {
					b.Error(err)
				}
			}(j)
		}
		wg.Wait()
	}
}

// BenchmarkEngineCached measures the content-hash cache fast path:
// steady-state resubmission of unchanged code.
func BenchmarkEngineCached(b *testing.B) {
	eng := engine.New(engine.Config{Workers: 1})
	defer eng.Close()
	req := engine.Request{Corpus: "detector-eval"}
	if _, err := eng.Analyze(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := eng.Analyze(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.CacheHit {
			b.Fatal("expected a cache hit")
		}
	}
}

// --- incremental sessions ---------------------------------------------------

// bodyOnlyTwin is a gen program and its buggy/clean twin, both without
// the generated header line: it names the variant, so with it a twin
// swap would edit text outside function bodies.
type bodyOnlyTwin struct {
	path      string
	main, alt string
	swapped   bool
}

func (p *bodyOnlyTwin) src() string {
	if p.swapped {
		return p.alt
	}
	return p.main
}

// declaredName matches the identifier each top-level item declares.
var declaredName = regexp.MustCompile(`(?m)^\s*(?:(?:pub|unsafe|async|const)\s+)*(?:fn|struct|trait|enum|impl)\s+([A-Za-z_][A-Za-z0-9_]*)`)

// bodyOnlyTree returns a tree of the patterns and apps corpus groups
// plus up to n gen programs whose declared names are disjoint from each
// other and from the corpus (a tree is one program, so shared names
// would resolve across files), and the programs it holds.
func bodyOnlyTree(b *testing.B, seed int64, n int) (map[string]string, []*bodyOnlyTwin) {
	b.Helper()
	tree := map[string]string{}
	taken := map[string]bool{}
	for _, g := range []corpus.Group{corpus.GroupPatterns, corpus.GroupApps} {
		files, err := corpus.Files(g)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range files {
			tree[f.Path] = f.Content
			for _, m := range declaredName.FindAllStringSubmatch(f.Content, -1) {
				taken[m[1]] = true
			}
		}
	}
	strip := func(s string) string {
		if i := strings.Index(s, "\n"); i >= 0 && strings.HasPrefix(s, "// generated:") {
			return s[i+1:]
		}
		return s
	}
	var progs []*bodyOnlyTwin
	for sub := int64(0); sub < 400 && len(progs) < n; sub++ {
		main := gen.Generate(seed*1000 + sub)
		twin := gen.New(main.Seed, main.Kind, !main.Buggy)
		names := declaredName.FindAllStringSubmatch(main.Source+"\n"+twin.Source, -1)
		if slices.ContainsFunc(names, func(m []string) bool { return taken[m[1]] }) {
			continue
		}
		for _, m := range names {
			taken[m[1]] = true
		}
		p := &bodyOnlyTwin{path: fmt.Sprintf("gen/g%02d.rs", len(progs)), main: strip(main.Source), alt: strip(twin.Source)}
		tree[p.path] = p.main
		progs = append(progs, p)
	}
	return tree, progs
}

// BenchmarkSessionBodyOnlyPush times one warm session push that swaps a
// gen program for its twin, plus the snapshot a daemon persists after
// it (ExportState and Encode). Only programs whose swap edits nothing
// outside function bodies rotate, so every timed round is incremental
// but the full round the session makes when it compacts its FileSet
// (full/op counts them).
func BenchmarkSessionBodyOnlyPush(b *testing.B) {
	tree, all := bodyOnlyTree(b, 1, 24)
	s := rustprobe.NewSession()
	if _, err := s.Analyze(tree); err != nil {
		b.Fatal(err)
	}
	push := func(p *bodyOnlyTwin) *rustprobe.Update {
		p.swapped = !p.swapped
		tree[p.path] = p.src()
		up, err := s.Analyze(tree)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := incrstate.Encode(s.ExportState()); err != nil {
			b.Fatal(err)
		}
		return up
	}
	// Swap each program there and back once: a swap that edits an
	// interface makes a full round, so that program does not rotate.
	var progs []*bodyOnlyTwin
	for _, p := range all {
		there, back := push(p), push(p)
		if !there.Stats.Full && !back.Stats.Full {
			progs = append(progs, p)
		}
	}
	if len(progs) < 2 {
		b.Fatalf("only %d of %d gen programs have body-only twins", len(progs), len(all))
	}
	b.ReportAllocs()
	b.ResetTimer()
	full := 0
	for i := 0; i < b.N; i++ {
		if up := push(progs[i%len(progs)]); up.Stats.Full {
			full++
		}
	}
	b.ReportMetric(float64(full)/float64(b.N), "full/op")
}
