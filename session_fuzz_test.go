package rustprobe

import (
	"errors"
	"fmt"
	"testing"

	"rustprobe/internal/incrstate"
)

// stepRestore is the fuzz script's fifth step: a fresh session restored
// from the snapshot a given number of rounds back analyzes the current
// tree, as after a daemon restart that lost the newest snapshots.
const stepRestore = numHistorySteps

// maxFuzzSteps bounds a fuzz script.
const maxFuzzSteps = 12

// FuzzSessionEquivalence is the native-fuzzing entry point behind the CI
// session smoke step (go test -run=^$ -fuzz=FuzzSessionEquivalence
// -fuzztime=20s .). The input picks a seed for the gen programs of a
// historyTree and a script of up to 12 steps — twin swap, newline pad,
// same-length pad, revert, restore — and every round's resolved findings
// must equal a stateless AnalyzeFiles+Detect of the whole tree, with the
// patched call graph cross-checked against a rebuild on every round.
func FuzzSessionEquivalence(f *testing.F) {
	f.Setenv("RUSTPROBE_GRAPH_CHECK", "1")
	// A script byte b is step b%5 on file b/5%3, with argument b/15.
	f.Add(int64(0), []byte{0, 1, 2, 3, 4})
	f.Add(int64(1), []byte{5, 7, 8, 12, 0, 3, 19, 4, 34})
	f.Add(int64(2), []byte{2, 17, 32, 7, 22, 37, 9, 64, 0, 6})
	f.Add(int64(3), []byte{1, 16, 2, 17, 4, 9, 14, 29, 3, 18, 44, 0})
	f.Add(int64(7), []byte{10, 25, 40, 12, 27, 4, 19, 49, 1, 33, 8, 250})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > maxFuzzSteps {
			script = script[:maxFuzzSteps]
		}
		h := newHistoryTree(seed)
		files := h.render()
		s := NewSession()
		var snaps []*incrstate.State
		round := func(step string) {
			t.Helper()
			up, err := s.Analyze(files)
			want, wantErr := statelessResolved(files)
			var se, we *SyntaxError
			switch {
			case errors.As(err, &se) && errors.As(wantErr, &we):
				if se.Diags != we.Diags {
					t.Fatalf("%s: session diagnostics diverge\n got: %s\nwant: %s", step, se.Diags, we.Diags)
				}
				return
			case err != nil || wantErr != nil:
				t.Fatalf("%s: session error %v, stateless error %v", step, err, wantErr)
			}
			if got := resolvedStrings(up.Resolved); !equalStrings(got, want) {
				t.Fatalf("%s (stats %+v): session findings diverge from a stateless analysis\n got: %v\nwant: %v",
					step, up.Stats, got, want)
			}
			snaps = append(snaps, s.ExportState())
		}
		round("base")
		for i, b := range script {
			kind, file, arg := int(b)%5, int(b)/5%3, int(b)/15
			if kind == stepRestore {
				if len(snaps) == 0 {
					continue
				}
				s = NewSession()
				if err := s.Restore(snaps[len(snaps)-1-arg%len(snaps)]); err != nil {
					t.Fatal(err)
				}
			} else {
				files = h.step(kind, file, arg)
			}
			round(fmt.Sprintf("step %d (byte %d)", i, b))
		}
	})
}

// statelessResolved is the fuzz oracle: a from-scratch analysis of files,
// its findings resolved and rendered like resolvedStrings.
func statelessResolved(files map[string]string) ([]string, error) {
	res, err := AnalyzeFiles(files)
	if err != nil {
		return nil, err
	}
	return resolvedStrings(ResolveFindings(res.Fset, res.Detect())), nil
}
