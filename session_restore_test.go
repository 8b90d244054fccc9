package rustprobe

import (
	"encoding/json"
	"maps"
	"strings"
	"testing"

	"rustprobe/internal/gen"
	"rustprobe/internal/incrstate"
)

// restoreBase is a three-file repo with a planted UAF in util.rs, a
// double-lock in lib.rs, and an independent clean function in main.rs —
// enough findings spread across files that a restore round has both
// findings to replay and a closure to recompute.
func restoreBase() map[string]string {
	return map[string]string{
		"lib.rs": `struct Shared { mu: Mutex<i32> }
impl Shared {
    fn twice(&self) {
        let a = self.mu.lock().unwrap();
        let b = self.mu.lock().unwrap();
    }
}
`,
		"util.rs": `fn stale(v: Vec<i32>) {
    let p = v.as_ptr();
    drop(v);
    unsafe { let x = *p; }
}
fn helper(x: i32) -> i32 {
    x + 1
}
`,
		"main.rs": `fn main() {
    let y = helper(2);
}
`,
	}
}

// exportThrough runs one full round in a throwaway session and returns
// its exported state — the "previous daemon epoch".
func exportThrough(t *testing.T, files map[string]string) *incrstate.State {
	t.Helper()
	s := NewSession()
	if _, err := s.Analyze(files); err != nil {
		t.Fatalf("seed round: %v", err)
	}
	st := s.ExportState()
	if st == nil {
		t.Fatal("ExportState returned nil after a successful round")
	}
	return st
}

// TestSessionRestoreBodyDiff is the dirty-closure pin the issue asks
// for: after a restore, a 1-file body-only diff must run detection over
// only the dirty closure (RootsDetected < FuncsTotal), replay the
// untouched roots' findings (FindingsReused > 0), and still produce
// exactly the findings a from-scratch analysis of the edited tree does.
func TestSessionRestoreBodyDiff(t *testing.T) {
	base := restoreBase()
	st := exportThrough(t, base)

	edited := clone(base)
	edited["util.rs"] = strings.Replace(base["util.rs"], "x + 1", "x + 2", 1)

	s := NewSession()
	if err := s.Restore(st); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	up, err := s.Analyze(edited)
	if err != nil {
		t.Fatal(err)
	}
	if up.Stats.Full {
		t.Fatalf("restored body-diff round ran full (%q); stats %+v", up.Stats.FullReason, up.Stats)
	}
	if !up.Stats.Restored {
		t.Fatalf("round not marked restored: %+v", up.Stats)
	}
	if up.Stats.RootsDetected >= up.Stats.FuncsTotal {
		t.Fatalf("restored round detected %d of %d roots — not dirty-closure-only", up.Stats.RootsDetected, up.Stats.FuncsTotal)
	}
	if up.Stats.FindingsReused == 0 {
		t.Fatalf("restored round replayed no findings: %+v", up.Stats)
	}
	if up.Stats.ChangedFns != 1 {
		t.Fatalf("ChangedFns = %d, want 1 (only helper's body changed)", up.Stats.ChangedFns)
	}
	got := sessionStrings(up)
	want := fullDetect(t, edited)
	if !equalStrings(got, want) {
		t.Fatalf("restored round diverges from full analysis\n got: %v\nwant: %v", got, want)
	}

	// The session is live now: a follow-up edit takes the normal
	// in-memory incremental path.
	again := clone(edited)
	again["util.rs"] = strings.Replace(edited["util.rs"], "x + 2", "x + 3", 1)
	up2, err := s.Analyze(again)
	if err != nil {
		t.Fatal(err)
	}
	if up2.Stats.Full || up2.Stats.Restored || up2.Stats.FilesReparsed != 1 {
		t.Fatalf("post-restore round should be plain incremental: %+v", up2.Stats)
	}
	if !equalStrings(sessionStrings(up2), fullDetect(t, again)) {
		t.Fatal("post-restore incremental round diverges from full analysis")
	}
}

// TestSessionRestoreSnapshotWithGlobalFacts: snapshots once carried a
// global_facts manifest of the detectors' fact caches. A snapshot that
// still carries one decodes, restores and diffs like any other: the
// round after it runs the dirty closure, inherits no facts (a restored
// round has none) and matches a from-scratch analysis.
func TestSessionRestoreSnapshotWithGlobalFacts(t *testing.T) {
	base := restoreBase()
	var raw map[string]any
	if err := json.Unmarshal(mustEncode(t, exportThrough(t, base)), &raw); err != nil {
		t.Fatal(err)
	}
	raw["global_facts"] = map[string]int{"race": 4, "blocking": 4}
	data, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	st := incrstate.Decode(data, StateVersion())
	if st == nil {
		t.Fatal("a snapshot with global_facts did not decode")
	}

	edited := clone(base)
	edited["util.rs"] = strings.Replace(base["util.rs"], "x + 1", "x + 2", 1)
	s := NewSession()
	if err := s.Restore(st); err != nil {
		t.Fatal(err)
	}
	up, err := s.Analyze(edited)
	if err != nil {
		t.Fatal(err)
	}
	if up.Stats.Full || !up.Stats.Restored || up.Stats.GlobalFactsReused != 0 {
		t.Fatalf("restored round stats %+v, want an incremental restored round inheriting nothing", up.Stats)
	}
	if got, want := sessionStrings(up), fullDetect(t, edited); !equalStrings(got, want) {
		t.Fatalf("restored round diverges from full analysis\n got: %v\nwant: %v", got, want)
	}
}

// TestSessionRestoreUnchangedTree: re-pushing the identical tree after a
// restore replays every cached finding and recomputes no roots.
func TestSessionRestoreUnchangedTree(t *testing.T) {
	base := restoreBase()
	st := exportThrough(t, base)

	s := NewSession()
	if err := s.Restore(st); err != nil {
		t.Fatal(err)
	}
	up, err := s.Analyze(base)
	if err != nil {
		t.Fatal(err)
	}
	if up.Stats.Full || !up.Stats.Restored || up.Stats.ChangedFns != 0 || up.Stats.RootsDetected != 0 {
		t.Fatalf("unchanged restore round stats: %+v", up.Stats)
	}
	if !equalStrings(sessionStrings(up), fullDetect(t, base)) {
		t.Fatal("unchanged restore round diverges from full analysis")
	}
}

// TestSessionRestoreStructuralFallback: structural drift — a file
// added, an interface edit — must fall back to a clean full round, not
// replay stale findings.
func TestSessionRestoreStructuralFallback(t *testing.T) {
	base := restoreBase()

	t.Run("file added", func(t *testing.T) {
		st := exportThrough(t, base)
		edited := clone(base)
		edited["extra.rs"] = "fn extra() {}\n"
		s := NewSession()
		if err := s.Restore(st); err != nil {
			t.Fatal(err)
		}
		up, err := s.Analyze(edited)
		if err != nil {
			t.Fatal(err)
		}
		if !up.Stats.Full || !up.Stats.Restored {
			t.Fatalf("want full+restored fallback, got %+v", up.Stats)
		}
		if !equalStrings(sessionStrings(up), fullDetect(t, edited)) {
			t.Fatal("fallback round diverges from full analysis")
		}
	})

	t.Run("interface changed", func(t *testing.T) {
		st := exportThrough(t, base)
		edited := clone(base)
		edited["util.rs"] = strings.Replace(base["util.rs"], "fn helper(x: i32)", "fn helper(x: i64)", 1)
		s := NewSession()
		if err := s.Restore(st); err != nil {
			t.Fatal(err)
		}
		up, err := s.Analyze(edited)
		if err != nil {
			t.Fatal(err)
		}
		if !up.Stats.Full {
			t.Fatalf("interface edit after restore should run full, got %+v", up.Stats)
		}
		if !equalStrings(sessionStrings(up), fullDetect(t, edited)) {
			t.Fatal("fallback round diverges from full analysis")
		}
	})
}

// TestSessionRestoreErrors: Restore rejects nil state, legacy state,
// and live sessions; a syntax-error round keeps the armed state usable.
func TestSessionRestoreErrors(t *testing.T) {
	base := restoreBase()
	st := exportThrough(t, base)

	s := NewSession()
	if err := s.Restore(nil); err == nil {
		t.Fatal("Restore(nil) succeeded")
	}
	legacy := *st
	legacy.Files = maps.Clone(st.Files)
	for name, f := range legacy.Files {
		rec := f.V
		rec.FnPos = nil
		legacy.Files[name] = &incrstate.Sealed[incrstate.File]{V: rec}
		break
	}
	if err := s.Restore(&legacy); err == nil {
		t.Fatal("Restore accepted a legacy fn_pos-less state")
	}
	if err := s.Restore(st); err != nil {
		t.Fatal(err)
	}

	// A broken push consumes nothing: the armed state still powers an
	// incremental round once the sources are fixed.
	broken := clone(base)
	broken["util.rs"] = "fn oops( {"
	if _, err := s.Analyze(broken); err == nil {
		t.Fatal("syntax-error round succeeded")
	}
	up, err := s.Analyze(base)
	if err != nil {
		t.Fatal(err)
	}
	if up.Stats.Full || !up.Stats.Restored {
		t.Fatalf("round after failed restore push: %+v", up.Stats)
	}

	// Live session: Restore must refuse.
	if err := s.Restore(st); err == nil {
		t.Fatal("Restore succeeded on a live session")
	}
}

// TestSessionRestoreGeneratedSeeds round-trips generated programs
// through export/restore with a body edit, checking findings against
// the from-scratch oracle each time.
func TestSessionRestoreGeneratedSeeds(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		p := gen.Generate(seed)
		files := map[string]string{"gen.rs": p.Source}
		st := exportThrough(t, files)

		s := NewSession()
		if err := s.Restore(st); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		up, err := s.Analyze(files)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if up.Stats.Full || !up.Stats.Restored {
			t.Fatalf("seed %d: unchanged restore round stats %+v", seed, up.Stats)
		}
		if !equalStrings(sessionStrings(up), fullDetect(t, files)) {
			t.Fatalf("seed %d: restored findings diverge from full analysis", seed)
		}
	}
}

// TestExportStateShape: the exported record is versioned, carries the
// position fingerprints, and round-trips through the codec.
func TestExportStateShape(t *testing.T) {
	base := restoreBase()
	st := exportThrough(t, base)
	if st.Version != StateVersion() {
		t.Fatalf("exported version %q, want %q", st.Version, StateVersion())
	}
	fnPos, fnBodies := 0, 0
	for _, f := range st.Files {
		fnPos += len(f.V.FnPos)
		fnBodies += len(f.V.FnBodies)
	}
	if len(st.Files) != len(base) || fnPos == 0 || fnBodies == 0 {
		t.Fatalf("exported state incomplete: %d files, %d fn_pos, %d fn_bodies", len(st.Files), fnPos, fnBodies)
	}
	if !st.UnchangedFrom(base) {
		t.Fatal("exported content hashes do not match the exported tree")
	}
	data, err := incrstate.Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	if incrstate.Decode(data, StateVersion()) == nil {
		t.Fatal("exported state does not survive the codec round-trip")
	}
	if incrstate.Decode(data, "other-version") != nil {
		t.Fatal("codec accepted a mismatched version")
	}

	if NewSession().ExportState() != nil {
		t.Fatal("ExportState on an empty session should return nil")
	}
}
