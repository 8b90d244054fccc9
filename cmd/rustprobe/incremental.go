package main

import (
	"fmt"
	"io"

	"rustprobe"
	"rustprobe/internal/incrstate"
)

// runIncremental is the -incremental entry point: analyze dir reusing as
// much of the previous run (recorded in the state file) as the diff
// allows. The heavy lifting lives in rustprobe.Session — the same
// restore path the daemon's session service uses — and the state file is
// the shared incrstate codec, versioned on the analyzer + detector set
// (rustprobe.StateVersion()). Three outcomes:
//
//   - nothing changed: replay the cached findings without analyzing;
//   - only function bodies changed (every file's interface hash is
//     intact): rebuild the frontend, mark a function changed when its
//     body hash or declaration position differs from the state's (the
//     one rule a live Session round uses too), then re-run the local
//     detectors only over the dirty callgraph closure and merge cached
//     findings for every other root;
//   - anything else (first run, state version bump, file added/removed,
//     interface edit): full analysis, which reseeds the state.
//
// Whatever the path, the returned findings equal a from-scratch
// `rustprobe dir` of the same tree; the state file is advisory and a
// corrupt or stale one only costs a full run.
func runIncremental(dir, statePath string, out io.Writer) ([]incrstate.Finding, string, error) {
	files, err := rustprobe.LoadDir(dir)
	if err != nil {
		return nil, "", err
	}
	prev := incrstate.Load(statePath, rustprobe.StateVersion())
	if prev.UnchangedFrom(files) {
		return prev.Findings, fmt.Sprintf("unchanged: replayed %d cached finding(s), 0 functions re-analyzed", len(prev.Findings)), nil
	}

	s := rustprobe.NewSession()
	if prev != nil {
		if err := s.Restore(prev); err != nil {
			prev = nil
		}
	}
	up, err := s.Analyze(files)
	if err != nil {
		return nil, "", err
	}
	st := s.ExportState()
	if err := incrstate.Save(statePath, st); err != nil {
		fmt.Fprintf(out, "rustprobe: warning: could not save state: %v\n", err)
	}

	var note string
	if up.Stats.Full {
		reason := "no prior state"
		if prev != nil {
			reason = "structure changed"
		}
		note = fmt.Sprintf("full analysis (%s): %d function(s)", reason, up.Stats.FuncsTotal)
	} else {
		note = fmt.Sprintf("incremental: %d function(s) changed, %d of %d re-analyzed, %d finding(s) reused",
			up.Stats.ChangedFns, up.Stats.RootsDetected, up.Stats.FuncsTotal, up.Stats.FindingsReused)
	}
	return st.Findings, note, nil
}
