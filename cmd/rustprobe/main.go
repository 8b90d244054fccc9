// Command rustprobe parses Rust-subset sources, lowers them to MIR, and
// runs the paper's static bug detectors over them.
//
// Usage:
//
//	rustprobe [flags] [path ...]
//
//	rustprobe file.rs                 # run all detectors on one file
//	rustprobe -detect uaf,double-lock src/
//	rustprobe -corpus detector-eval   # run on the embedded §7 corpus
//	rustprobe -mir 'Engine::step' file.rs   # dump a function's MIR
//	rustprobe -fail-on-findings src/  # CI gate: exit 2 when findings exist
//	rustprobe -selftest               # differential self-check over 200 seeds
//	rustprobe -incremental src/       # re-analyze only what changed since last run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"rustprobe"
	"rustprobe/internal/difftest"
	"rustprobe/internal/incrstate"
	"rustprobe/internal/interp"
	"rustprobe/internal/visualize"
)

func main() {
	var (
		detectors = flag.String("detect", "", "comma-separated detector names (default: all); available: "+strings.Join(rustprobe.DetectorNames(), ", "))
		corpusGrp = flag.String("corpus", "", "analyze an embedded corpus group (detector-eval, patterns, unsafe, all) instead of paths")
		mirDump   = flag.String("mir", "", "dump the MIR of the named function and exit")
		explain   = flag.String("explain", "", "render the named function's source annotated with lifetime events (acquire/implicit-unlock/drop) and exit")
		dynamic   = flag.Bool("dynamic", false, "run the bounded dynamic explorer (Miri-style) instead of the static detectors")
		asJSON    = flag.Bool("json", false, "emit findings as JSON")
		failOn    = flag.Bool("fail-on-findings", false, "exit with code 2 when any finding (or dynamic error) is reported, for use as a CI gate")
		list      = flag.Bool("list", false, "list available detectors and exit")
		selftest  = flag.Bool("selftest", false, "run the differential self-check (seeded bug-injecting generator vs static detectors vs dynamic oracle) and exit; non-zero on any violation")
		seeds     = flag.Int64("seeds", 200, "seed count for -selftest")
		incr      = flag.Bool("incremental", false, "analyze a directory incrementally, persisting hashes and findings to a state file so unchanged functions are not re-analyzed on the next run")
		stateFile = flag.String("state", "", "state file for -incremental (default: <dir>/.rustprobe-state.json)")
		precise   = flag.Bool("precise", false, "enable the SafeDrop-style path-sensitive precise mode: memory-detector findings refuted by the shared drop-and-alias analysis are suppressed (also applies to -selftest)")
	)
	flag.Parse()

	if *list {
		for _, n := range rustprobe.DetectorNames() {
			fmt.Println(n)
		}
		return
	}

	if *selftest {
		s := difftest.RunMode(0, *seeds, *precise)
		fmt.Print(s.Table())
		if v := s.Violations(); len(v) > 0 {
			fmt.Fprintf(os.Stderr, "rustprobe: selftest failed with %d violation(s)\n", len(v))
			os.Exit(2)
		}
		return
	}

	if *incr {
		if *detectors != "" || *dynamic || *mirDump != "" || *explain != "" || *corpusGrp != "" {
			fmt.Fprintln(os.Stderr, "rustprobe: -incremental always runs the full detector suite over a directory; it cannot be combined with -detect, -dynamic, -mir, -explain or -corpus")
			os.Exit(1)
		}
		if len(flag.Args()) != 1 {
			fmt.Fprintln(os.Stderr, "rustprobe: -incremental needs exactly one directory argument")
			os.Exit(1)
		}
		dir := flag.Arg(0)
		statePath := *stateFile
		if statePath == "" {
			statePath = filepath.Join(dir, ".rustprobe-state.json")
		}
		findings, note, err := runIncremental(dir, statePath, os.Stderr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *asJSON {
			emitJSON(os.Stdout, findings)
		} else {
			for _, f := range findings {
				fmt.Println(f.Format())
			}
			fmt.Printf("%d finding(s); %s\n", len(findings), note)
		}
		if *failOn && len(findings) > 0 {
			os.Exit(2)
		}
		return
	}

	res, err := load(*corpusGrp, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res.Precise = *precise

	if *mirDump != "" {
		body := res.MIR(*mirDump)
		if body == nil {
			fmt.Fprintf(os.Stderr, "rustprobe: no function %q; available:\n", *mirDump)
			for _, fd := range res.Program.SortedFuncs() {
				fmt.Fprintf(os.Stderr, "  %s\n", fd.Qualified)
			}
			os.Exit(1)
		}
		fmt.Print(body.String())
		return
	}

	if *explain != "" {
		body := res.MIR(*explain)
		if body == nil {
			fmt.Fprintf(os.Stderr, "rustprobe: no function %q\n", *explain)
			os.Exit(1)
		}
		fmt.Print(visualize.Render(body, res.Fset))
		for lock, rng := range visualize.CriticalSections(body, res.Fset) {
			fmt.Printf("critical section of %q: lines %d-%d\n", lock, rng[0], rng[1])
		}
		return
	}

	if *dynamic {
		total := 0
		for _, r := range interp.RunAll(res.Bodies, interp.Config{}) {
			for _, e := range r.Errors {
				pos := res.Fset.Position(e.Span.Start)
				fmt.Printf("%s: %s\n", pos, e)
				total++
			}
		}
		fmt.Printf("%d dynamic error(s)\n", total)
		if *failOn && total > 0 {
			os.Exit(2)
		}
		return
	}

	var names []string
	if *detectors != "" {
		names = strings.Split(*detectors, ",")
	}
	findings := res.Detect(names...)
	if *asJSON {
		emitJSON(os.Stdout, rustprobe.ResolveFindings(res.Fset, findings))
	} else {
		for _, f := range findings {
			fmt.Println(f.Format(res.Fset))
		}
		fmt.Printf("%d finding(s)\n", len(findings))
	}
	if *failOn && len(findings) > 0 {
		os.Exit(2)
	}
}

// emitJSON writes resolved findings as the indented JSON array -json
// prints.
func emitJSON(w io.Writer, findings []incrstate.Finding) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(findings); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

func load(corpusGrp string, paths []string) (*rustprobe.Result, error) {
	if corpusGrp != "" {
		return rustprobe.AnalyzeCorpus(corpusGrp)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("rustprobe: no input; pass .rs files, a directory, or -corpus")
	}
	files := map[string]string{}
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if info.IsDir() {
			return rustprobe.AnalyzeDir(p)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		files[p] = string(data)
	}
	return rustprobe.AnalyzeFiles(files)
}
