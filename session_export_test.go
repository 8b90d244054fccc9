package rustprobe

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rustprobe/internal/gen"
	"rustprobe/internal/incrstate"
)

// exportProgram is one gen program and its buggy/clean twin, both
// without the generated header line (it names the variant, so with it a
// twin swap would be an interface edit instead of a body-only one).
type exportProgram struct{ main, twin string }

func exportPrograms(seed int64, n int) []exportProgram {
	strip := func(s string) string {
		if i := strings.Index(s, "\n"); i >= 0 && strings.HasPrefix(s, "// generated:") {
			return s[i+1:]
		}
		return s
	}
	out := make([]exportProgram, n)
	for i := range out {
		p := gen.Generate(seed*100 + int64(i))
		out[i] = exportProgram{strip(p.Source), strip(gen.New(p.Seed, p.Kind, !p.Buggy).Source)}
	}
	return out
}

// historyTree is a three-file tree of gen programs that mutation steps
// edit. Every step is body-only, so a session diffs it incrementally.
type historyTree struct {
	progs []exportProgram
	state []historyFile
	saved [][]historyFile // the state of every tree rendered so far
}

// historyFile is one file's edits: which twin it shows, how many pad
// lines open its first function body, and how the pad is spelled.
type historyFile struct {
	alt   bool
	pad   int
	spell bool
}

// The history steps. A newline pad shifts the lines of every later
// function in the file; a respelling of the pad is a same-length edit
// that keeps every later function's offset, line and column.
const (
	stepSwap = iota
	stepPad
	stepSpell
	stepRevert
	numHistorySteps
)

func newHistoryTree(seed int64) *historyTree {
	progs := exportPrograms(seed, 3)
	return &historyTree{progs: progs, state: make([]historyFile, len(progs))}
}

// step applies one mutation to file (mod the file count); arg picks the
// pad growth or the earlier tree a revert goes back to. It returns the
// rendered tree.
func (h *historyTree) step(kind, file, arg int) map[string]string {
	st := &h.state[file%len(h.state)]
	switch kind {
	case stepSwap:
		st.alt = !st.alt
	case stepPad:
		st.pad = (st.pad + 1 + arg%2) % 4
	case stepSpell:
		st.spell = !st.spell
	case stepRevert:
		copy(h.state, h.saved[arg%len(h.saved)])
	}
	return h.render()
}

// render returns the current tree and records its state for reverts.
func (h *historyTree) render() map[string]string {
	h.saved = append(h.saved, append([]historyFile(nil), h.state...))
	files := make(map[string]string, len(h.progs))
	for i, p := range h.progs {
		st := h.state[i]
		src := p.main
		if st.alt {
			src = p.twin
		}
		if st.pad > 0 {
			unit := "  \n"
			if st.spell {
				unit = " \n "
			}
			if j := strings.Index(src, "fn "); j >= 0 {
				if k := strings.Index(src[j:], "{\n"); k >= 0 {
					at := j + k + 2
					src = src[:at] + strings.Repeat(unit, st.pad) + src[at:]
				}
			}
		}
		files[fmt.Sprintf("f%d.rs", i)] = src
	}
	return files
}

// exportHistory is a seeded mutation history over a historyTree: twin
// swaps, newline pads, pad respellings and reverts. Entry 0 is the base.
func exportHistory(seed int64, steps int) []map[string]string {
	rng := rand.New(rand.NewSource(seed))
	h := newHistoryTree(seed)
	history := []map[string]string{h.render()}
	kinds := []int{stepSwap, stepSwap, stepPad, stepSpell, stepRevert}
	for len(history) <= steps {
		history = append(history, h.step(kinds[rng.Intn(len(kinds))], rng.Intn(len(h.progs)), rng.Intn(1<<16)))
	}
	return history
}

func mustEncode(t *testing.T, st *incrstate.State) []byte {
	t.Helper()
	b, err := incrstate.Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// throughCodec returns st as a later process reads it: encoded, then
// decoded under this build's StateVersion.
func throughCodec(t *testing.T, st *incrstate.State) *incrstate.State {
	t.Helper()
	dec := incrstate.Decode(mustEncode(t, st), StateVersion())
	if dec == nil {
		t.Fatal("an exported snapshot did not decode")
	}
	return dec
}

// TestExportStateMatchesFullRound is the export oracle: at every round
// of a mutation history, a live session's ExportState must equal that of
// a fresh session's full round over the same files, field by field, and
// encode to the same bytes. The live session
// assembles its snapshot from hashes and resolved findings kept since
// the round that computed them, so this pins that the kept values never
// go stale. It also pins live/restored parity: restoring the previous
// round's snapshot and analyzing the round must change, detect and find
// exactly what the live round did.
func TestExportStateMatchesFullRound(t *testing.T) {
	t.Setenv("RUSTPROBE_GRAPH_CHECK", "1")
	seeds, steps := 6, 8
	if testing.Short() {
		seeds = 2
	}
	incremental := 0
	for seed := int64(0); seed < int64(seeds); seed++ {
		live := NewSession()
		var prev *incrstate.State
		for round, files := range exportHistory(seed, steps) {
			up, err := live.Analyze(files)
			if err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			if !up.Stats.Full {
				incremental++
			}
			fresh := NewSession()
			if _, err := fresh.Analyze(files); err != nil {
				t.Fatalf("seed %d round %d oracle: %v", seed, round, err)
			}
			got, want := live.ExportState(), fresh.ExportState()
			gv, wv := reflect.ValueOf(*got), reflect.ValueOf(*want)
			for i := 0; i < gv.NumField(); i++ {
				name := gv.Type().Field(i).Name
				if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
					t.Fatalf("seed %d round %d (full=%t %s): ExportState.%s diverges from a full round\n got: %v\nwant: %v",
						seed, round, up.Stats.Full, up.Stats.FullReason, name, gv.Field(i).Interface(), wv.Field(i).Interface())
				}
			}
			if !bytes.Equal(mustEncode(t, got), mustEncode(t, want)) {
				t.Fatalf("seed %d round %d: encoded snapshot diverges from a full round's", seed, round)
			}

			// The round restored from the previous round's snapshot
			// diffs under the same rule, so it does the same work and
			// gives the same findings as the live round.
			if round > 0 {
				rs := NewSession()
				if err := rs.Restore(throughCodec(t, prev)); err != nil {
					t.Fatal(err)
				}
				rup, err := rs.Analyze(files)
				if err != nil {
					t.Fatalf("seed %d round %d restored: %v", seed, round, err)
				}
				if rup.Stats.ChangedFns != up.Stats.ChangedFns || rup.Stats.RootsDetected != up.Stats.RootsDetected {
					t.Fatalf("seed %d round %d: restored round changed %d fns, detected %d roots; live round %d, %d",
						seed, round, rup.Stats.ChangedFns, rup.Stats.RootsDetected, up.Stats.ChangedFns, up.Stats.RootsDetected)
				}
				if !reflect.DeepEqual(rup.Resolved, up.Resolved) {
					t.Fatalf("seed %d round %d: restored round's findings diverge from the live round's\n got: %v\nwant: %v",
						seed, round, resolvedStrings(rup.Resolved), resolvedStrings(up.Resolved))
				}
			}
			prev = got
		}
	}
	if incremental == 0 {
		t.Fatal("history never ran an incremental round")
	}
	t.Logf("%d seeds x %d rounds, %d incremental", seeds, steps+1, incremental)
}

// TestStaleSnapshotRestoreMatchesStateless: a snapshot may be rounds
// older than the tree it is restored against (write-behind persistence
// can lose the newest rounds to a crash). Snapshots go through the
// codec, as a restarted process reads them. Restoring round k's snapshot
// and analyzing round k+n must still give exactly the stateless
// AnalyzeFiles+Detect findings: every function whose body or position
// differs from the snapshot is dirty, and structural drift runs full.
func TestStaleSnapshotRestoreMatchesStateless(t *testing.T) {
	seeds, steps := 4, 6
	if testing.Short() {
		seeds = 2
	}
	restoredIncremental := 0
	for seed := int64(0); seed < int64(seeds); seed++ {
		history := exportHistory(seed+50, steps)
		live := NewSession()
		snaps := make([]*incrstate.State, len(history))
		for k, files := range history {
			if _, err := live.Analyze(files); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, k, err)
			}
			snaps[k] = throughCodec(t, live.ExportState())
		}
		for k := range history {
			for _, n := range []int{1, 3, 5} {
				if k+n >= len(history) {
					continue
				}
				files := history[k+n]
				s := NewSession()
				if err := s.Restore(snaps[k]); err != nil {
					t.Fatal(err)
				}
				up, err := s.Analyze(files)
				if err != nil {
					t.Fatalf("seed %d: restore %d, analyze %d: %v", seed, k, k+n, err)
				}
				if !up.Stats.Full {
					restoredIncremental++
				}
				if got, want := sessionStrings(up), fullDetect(t, files); !equalStrings(got, want) {
					t.Fatalf("seed %d: snapshot of round %d restored at round %d diverges (stats %+v)\n got: %v\nwant: %v",
						seed, k, k+n, up.Stats, got, want)
				}
				if got, want := resolvedStrings(up.Resolved), sessionStrings(up); !equalStrings(got, want) {
					t.Fatalf("seed %d: Update.Resolved does not match Findings\n got: %v\nwant: %v", seed, got, want)
				}
			}
		}
	}
	if restoredIncremental == 0 {
		t.Fatal("no stale restore ran incrementally")
	}
	t.Logf("%d stale restores ran incrementally", restoredIncremental)
}

// TestExportStateIsImmutable: a caller mutating a round's Update (its
// resolved findings included) must not change the session's snapshot,
// and a later round must not change a snapshot already handed out.
func TestExportStateIsImmutable(t *testing.T) {
	history := exportHistory(7, 4)
	s := NewSession()
	up, err := s.Analyze(history[0])
	if err != nil {
		t.Fatal(err)
	}
	st := s.ExportState()
	before := mustEncode(t, s.ExportState())
	for i := range up.Resolved {
		up.Resolved[i].Message = "mutated"
		up.Resolved[i].Notes = append(up.Resolved[i].Notes, "extra")
	}
	if after := mustEncode(t, s.ExportState()); !bytes.Equal(before, after) {
		t.Fatal("mutating Update.Resolved changed the session's snapshot")
	}
	for _, files := range history[1:] {
		if _, err := s.Analyze(files); err != nil {
			t.Fatal(err)
		}
	}
	if b, err := incrstate.Encode(st); err != nil || !bytes.Equal(b, before) {
		t.Fatalf("later rounds changed a snapshot already exported (err %v)", err)
	}
}

// resolvedStrings renders resolved findings like sessionStrings renders
// live ones, sorted.
func resolvedStrings(fs []incrstate.Finding) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Format()
	}
	sort.Strings(out)
	return out
}
