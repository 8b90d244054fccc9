// Command bench is rustprobe's benchmark. For each workload it builds
// cmd/rustprobed, starts it as a child process, drives it over loopback
// HTTP from closed-loop clients with seeded, labelled programs, checks
// every verdict against the generator's labels, and prints the metrics
// BENCHMARK.json names. With -trace it then replays the workload's first
// requests in-process through each layer's public functions and prints
// per-layer metrics instead. See README.md.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload batch-cold -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -runs 10 -o out/change
//	bash bench/run.sh -compare out/parent out/change
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is what one invocation runs with.
type config struct {
	root     string // checkout holding BENCHMARK.json and cmd/rustprobed
	buildDir string // binaries and stores
	outDir   string // result, trace and daemon log files
	window   time.Duration
	warmup   time.Duration
	sz       sizes
	spec     *spec
}

// result is one run's outcome, written to the output directory.
type result struct {
	Workload      string             `json:"workload"`
	Seed          int64              `json:"seed"`
	Trace         bool               `json:"trace"`
	Started       int64              `json:"started_unix_ns"`
	Clients       int                `json:"clients"`
	Correct       bool               `json:"correct"`
	Attempted     int                `json:"attempted"`
	Failed        int                `json:"failed"`
	WrongVerdicts int                `json:"wrong_verdicts"`
	Samples       int                `json:"latency_samples"`
	BeyondP95     int                `json:"latency_samples_beyond_p95"`
	Metrics       map[string]float64 `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
		seed     = fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", 0, "length of the measured window (default: BENCHMARK.json run_seconds)")
		trace    = fs.Bool("trace", false, "print per-layer metrics from an in-process traced replay (also accepts -trace 0|1)")
		outDir   = fs.String("o", "", "directory for result and trace files (default <build dir>/results)")
		runs     = fs.Int("runs", 1, "run each selected workload this many times, seeds seed..seed+runs-1, and print the spread of every end-to-end metric")
		cmpDir   = fs.String("compare", "", "compare the results in this parent directory with those in the directory given as the next argument, and exit")
	)
	if err := fs.Parse(normalizeTraceArg(args)); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}

	cfg, err := newConfig(*outDir, *seconds)
	if err != nil {
		return fail(err)
	}
	if *cmpDir != "" {
		if fs.NArg() != 1 {
			return fail(errors.New("-compare takes a parent and a change directory"))
		}
		parent, err := loadResults(*cmpDir)
		if err != nil {
			return fail(err)
		}
		change, err := loadResults(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		if compare(stdout, parent, change, cfg.spec.EndToEnd) > 0 {
			return 1
		}
		return 0
	}

	workloads := workloadNames
	if *workload != "all" {
		if _, ok := listedClients[*workload]; !ok {
			return fail(fmt.Errorf("unknown workload %q (want one of %s, or all)", *workload, strings.Join(workloadNames, ", ")))
		}
		workloads = []string{*workload}
	}
	bin, err := buildDaemon(cfg.root, filepath.Join(cfg.buildDir, "bin"))
	if err != nil {
		return fail(err)
	}

	status := 0
	var all []*result
	for i := 0; i < *runs; i++ {
		for _, w := range workloads {
			res, err := runOnce(cfg, bin, w, *seed+int64(i), *trace, stderr)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", w, err))
			}
			if err := report(cfg, res, stdout); err != nil {
				return fail(err)
			}
			if !res.Correct {
				status = 1
			}
			all = append(all, res)
		}
	}
	if *runs > 1 && !*trace {
		fmt.Fprintln(stdout)
		if repeatability(stdout, all, cfg.spec.EndToEnd) > 0 {
			status = 1
		}
	}
	return status
}

// normalizeTraceArg rewrites "-trace 0|1" into "-trace=0|1": the flag
// package would read the value as the first positional argument of a
// boolean flag.
func normalizeTraceArg(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// newConfig finds the repository root: the working directory or its
// parent, whichever holds BENCHMARK.json.
func newConfig(outDir string, seconds float64) (*config, error) {
	root := ""
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			root = dir
			break
		}
	}
	if root == "" {
		return nil, errors.New("no BENCHMARK.json in . or ..; run from the repository root or bench/")
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	s, err := loadSpec(root)
	if err != nil {
		return nil, err
	}
	// Everything the benchmark writes stays under the build directory of
	// the checkout (CARGO_TARGET_DIR when set, relative to the root).
	buildDir := os.Getenv("CARGO_TARGET_DIR")
	if buildDir == "" {
		buildDir = ".bench_build"
	}
	if !filepath.IsAbs(buildDir) {
		buildDir = filepath.Join(root, buildDir)
	}
	if outDir == "" {
		outDir = filepath.Join(buildDir, "results")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if seconds <= 0 {
		seconds = float64(s.RunSeconds)
	}
	return &config{
		root:     root,
		buildDir: buildDir,
		outDir:   outDir,
		window:   time.Duration(seconds * float64(time.Second)),
		warmup:   5 * time.Second,
		sz:       defaultSizes,
		spec:     s,
	}, nil
}

// runOnce sets the workload up sz.setups times (timing each), measures
// the last set-up's daemon for the window, checks every response, and,
// when traced, replays the stream in-process.
func runOnce(cfg *config, bin, workload string, seed int64, trace bool, logw io.Writer) (*result, error) {
	clients := min(listedClients[workload], runtime.NumCPU())
	tmp, err := os.MkdirTemp(cfg.buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	logPath := filepath.Join(cfg.outDir, "daemon-"+workload+".log")

	var (
		d        *daemon
		in       *inputs
		storeDir string
		setups   []float64
	)
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	for s := 0; s < max(1, cfg.sz.setups); s++ {
		if d != nil {
			d.stop()
			d = nil
			os.RemoveAll(storeDir)
		}
		storeDir = filepath.Join(tmp, fmt.Sprintf("store-%d", s))
		start := time.Now()
		if in, err = buildInputs(workload, seed, clients, cfg.sz); err != nil {
			return nil, err
		}
		if d, err = startDaemon(bin, storeDir, logPath); err != nil {
			return nil, err
		}
		if err := sendPrep(d.base, in); err != nil {
			return nil, err
		}
		if in.restart {
			d.stop()
			if d, err = startDaemon(bin, storeDir, logPath); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	res := &result{Workload: workload, Seed: seed, Trace: trace, Started: time.Now().UnixNano(), Clients: clients, Metrics: map[string]float64{}}
	// A fresh daemon serves measurably slower for its first seconds, so
	// the same closed loop first runs untimed. Its responses are checked
	// with the window's.
	next := make([]int, clients)
	warm, _ := drive(d.base, in, next, cfg.warmup, 0)
	runtime.GC() // the bench's own garbage so far is not the window's
	before, err := d.stats()
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpuMS()
	if err != nil {
		return nil, err
	}
	samples, elapsed := drive(d.base, in, next, cfg.window, cfg.sz.maxReqs)
	cpu1, err := d.cpuMS()
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	after, err := d.stats()
	if err != nil {
		return nil, err
	}
	d.stop()
	d = nil

	n := len(samples)
	if n == 0 {
		return nil, errors.New("no request completed in the window")
	}
	checked := append(warm, samples...)
	failed, wrong, problem := verdicts(checked)
	if problem != "" {
		fmt.Fprintf(logw, "bench: %s: %s\n", workload, problem)
	}
	lat := make([]float64, n)
	for i, s := range samples {
		lat[i] = s.ms
	}
	lat = sorted(lat)
	p95 := quantile(lat, 0.95)
	for _, v := range lat {
		if v > p95 {
			res.BeyondP95++
		}
	}
	res.Attempted, res.Failed, res.WrongVerdicts, res.Samples = len(checked), failed, wrong, n
	res.Correct = failed == 0 && wrong == 0
	m := res.Metrics
	m["throughput_rps"] = float64(n) / elapsed.Seconds()
	m["latency_p50_ms"] = quantile(lat, 0.5)
	m["latency_p95_ms"] = p95
	m["cpu_ms_per_req"] = (cpu1 - cpu0) / float64(n)
	m["peak_rss_mb"] = rss
	m["setup_s"] = median(setups)
	m["failed_frac"] = float64(failed) / float64(len(checked))
	m["wrong_verdicts"] = float64(wrong)

	// Engine counters around the window's untimed edges.
	perReq := func(d uint64) float64 { return float64(d) / float64(n) }
	frac := func(hit, miss uint64) float64 {
		if hit+miss == 0 {
			return 0
		}
		return float64(hit) / float64(hit+miss)
	}
	m["engine.jobs_per_req"] = perReq(after.JobsSubmitted - before.JobsSubmitted)
	m["engine.cache_hit_frac"] = frac(after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses)
	m["engine.store_hit_frac"] = frac(after.StoreHits-before.StoreHits, after.StoreMisses-before.StoreMisses)
	m["engine.analyze_ms"] = (after.AnalyzeMSTotal - before.AnalyzeMSTotal) / float64(n)
	m["engine.queue_rejected"] = float64(after.QueueRejected - before.QueueRejected)
	m["engine.dedup_hits"] = float64(after.DedupHits - before.DedupHits)

	if trace {
		replayStore := storeDir
		if workload != batchWarm {
			replayStore = filepath.Join(tmp, "replay-store")
		}
		layers, err := replayTrace(in, replayStore, cfg.sz.replay, filepath.Join(cfg.outDir, "trace-"+workload+".json"))
		if err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		for k, v := range layers {
			m[k] = v
		}
	}
	return res, nil
}

// report prints every metric by name and unit, writes the result file,
// and ends with the one-line JSON summary: the end-to-end metrics of
// BENCHMARK.json, or its per-layer metrics for a traced run.
func report(cfg *config, res *result, w io.Writer) error {
	units := map[string]string{"failed_frac": "frac", "wrong_verdicts": "count"}
	for _, m := range append(append([]metricSpec(nil), cfg.spec.EndToEnd...), cfg.spec.PerLayer...) {
		units[m.Name] = m.Unit
	}
	fmt.Fprintf(w, "workload %s seed %d clients %d: %d requests checked, failed %d, wrong_verdicts %d; %d latency samples, %d beyond p95\n",
		res.Workload, res.Seed, res.Clients, res.Attempted, res.Failed, res.WrongVerdicts, res.Samples, res.BeyondP95)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", name, res.Metrics[name], units[name])
	}

	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if res.Trace {
		trace = 1
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-s%d-t%d-%d.json", res.Workload, res.Seed, trace, res.Started))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}

	listed := cfg.spec.EndToEnd
	if res.Trace {
		listed = cfg.spec.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, m := range listed {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s of BENCHMARK.json was not measured", m.Name)
		}
		summary.Metrics[m.Name] = value{v, m.Unit}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}
