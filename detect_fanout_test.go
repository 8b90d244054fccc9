package rustprobe

// White-box tests for the detector runner: panic isolation (a panicking
// pass becomes a typed *PanicError instead of killing the process or a
// pool worker), cancellation (a dead request stops the round at the next
// detector boundary), and the session's all-or-nothing rounds on top of
// both. These live in package rustprobe to reach the testDetectors
// seam.

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"rustprobe/internal/detect"
)

type panickyDetector struct{}

func (panickyDetector) Name() string                  { return "test-panic" }
func (panickyDetector) Run(*detect.Context) []Finding { panic("injected pass panic") }

type countingDetector struct{ ran *bool }

func (countingDetector) Name() string                    { return "test-count" }
func (d countingDetector) Run(*detect.Context) []Finding { *d.ran = true; return nil }

// namedPanicDetector panics with its own name.
type namedPanicDetector string

func (d namedPanicDetector) Name() string                  { return string(d) }
func (d namedPanicDetector) Run(*detect.Context) []Finding { panic(string(d)) }

// cancellingDetector cancels the round's ctx from inside its pass.
type cancellingDetector struct{ cancel context.CancelFunc }

func (cancellingDetector) Name() string { return "test-cancel" }
func (d cancellingDetector) Run(*detect.Context) []Finding {
	d.cancel()
	return nil
}

func analyzeClean(t *testing.T) *Result {
	t.Helper()
	res, err := AnalyzeSource("clean.rs", "fn add(a: i32, b: i32) -> i32 { a + b }\n")
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDetectCtxPanicIsolation(t *testing.T) {
	testDetectors = []Detector{panickyDetector{}}
	defer func() { testDetectors = nil }()

	res := analyzeClean(t)
	fs, times, err := res.DetectCtx(context.Background())
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Detector != "test-panic" {
		t.Errorf("Detector = %q", pe.Detector)
	}
	if pe.Value != "injected pass panic" {
		t.Errorf("Value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "panickyDetector") {
		t.Errorf("stack not captured: %q", pe.Stack)
	}
	if !strings.Contains(pe.Error(), "test-panic") {
		t.Errorf("Error() = %q", pe.Error())
	}
	if fs != nil {
		t.Errorf("findings returned alongside a panic: %+v", fs)
	}
	// The healthy passes still ran and were timed.
	if _, ok := times["use-after-free"]; !ok {
		t.Errorf("times missing healthy detectors: %+v", times)
	}
}

func TestDetectCtxCancelled(t *testing.T) {
	ran := false
	testDetectors = []Detector{countingDetector{ran: &ran}}
	defer func() { testDetectors = nil }()

	res := analyzeClean(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already dead before the first detector
	fs, _, err := res.DetectCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if fs != nil {
		t.Errorf("cancelled round returned findings: %+v", fs)
	}
	if ran {
		t.Error("detector ran despite pre-cancelled context")
	}
}

// TestDetectCtxCancelledMidRound: a ctx cancelled while a detector runs
// stops the round at the next detector boundary: the detector after it
// never runs, and the round returns context.Canceled and no findings.
func TestDetectCtxCancelledMidRound(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := false
	testDetectors = []Detector{cancellingDetector{cancel: cancel}, countingDetector{ran: &ran}}
	defer func() { testDetectors = nil }()

	res := analyzeClean(t)
	fs, times, err := res.DetectCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if fs != nil {
		t.Errorf("cancelled round returned findings: %+v", fs)
	}
	if ran {
		t.Error("the detector after the cancelling one ran")
	}
	if _, ok := times["test-cancel"]; !ok {
		t.Errorf("the cancelling detector was not timed: %+v", times)
	}
	if _, ok := times["use-after-free"]; !ok {
		t.Errorf("the detectors before the cancellation were not timed: %+v", times)
	}
}

// TestDetectCtxFirstPanicInRegistryOrder: with several panicking
// detectors, every run reports the first of them in registry order, and
// the detectors after it still run.
func TestDetectCtxFirstPanicInRegistryOrder(t *testing.T) {
	ran := false
	testDetectors = []Detector{namedPanicDetector("test-panic-b"), namedPanicDetector("test-panic-a"), countingDetector{ran: &ran}}
	defer func() { testDetectors = nil }()

	res := analyzeClean(t)
	for i := 0; i < 20; i++ {
		ran = false
		_, times, err := res.DetectCtx(context.Background())
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("run %d: err = %v, want *PanicError", i, err)
		}
		if pe.Detector != "test-panic-b" || pe.Value != "test-panic-b" {
			t.Fatalf("run %d: reported %s (%v), want the first in registry order, test-panic-b", i, pe.Detector, pe.Value)
		}
		if !ran {
			t.Fatalf("run %d: the detector after the panicking ones did not run", i)
		}
		if _, ok := times["test-panic-a"]; !ok {
			t.Fatalf("run %d: the second panicking detector was not timed: %+v", i, times)
		}
	}
}

// TestDetectRepanics: the non-context entry point keeps the historical
// contract — a detector panic surfaces as a panic to the caller, not as
// a silently dropped error.
func TestDetectRepanics(t *testing.T) {
	testDetectors = []Detector{panickyDetector{}}
	defer func() { testDetectors = nil }()

	res := analyzeClean(t)
	defer func() {
		if recover() == nil {
			t.Error("Detect swallowed a detector panic")
		}
	}()
	res.Detect()
}

// TestSessionFailedRoundKeepsState: a round that fails in detection — a
// detector panic or a cancelled ctx — returns the error instead of
// panicking and leaves the session exactly at its last good round:
// byte-equal exported state, the same FileSet size, the same Context
// with its facts untouched, so the retry inherits exactly what the same
// push inherits without the failure. Re-sending the same push then
// matches a stateless analysis, with the patched-call-graph cross-check
// on. Both round
// shapes are covered: a body-only edit (incremental) and an interface
// edit (full rebuild).
func TestSessionFailedRoundKeepsState(t *testing.T) {
	t.Setenv("RUSTPROBE_GRAPH_CHECK", "1")
	base := map[string]string{
		"util.rs": "fn stale(v: Vec<i32>) {\n    let p = v.as_ptr();\n    drop(v);\n    unsafe { let x = *p; }\n}\nfn helper(x: i32) -> i32 {\n    x + 1\n}\n",
		"lib.rs":  "struct Shared { mu: Mutex<i32> }\nimpl Shared {\n    fn twice(&self) {\n        let a = self.mu.lock().unwrap();\n        let b = self.mu.lock().unwrap();\n    }\n}\n",
	}
	edits := map[string]map[string]string{
		"body edit":      {"util.rs": strings.Replace(base["util.rs"], "x + 1", "x + 2", 1)},
		"interface edit": {"util.rs": base["util.rs"] + "fn added() {}\n"},
	}
	failures := map[string]func() (context.Context, func()){
		"detector panic": func() (context.Context, func()) {
			testDetectors = []Detector{panickyDetector{}}
			return context.Background(), func() { testDetectors = nil }
		},
		"cancelled": func() (context.Context, func()) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx, func() {}
		},
	}
	for editName, edit := range edits {
		for failName, fail := range failures {
			t.Run(editName+"/"+failName, func(t *testing.T) {
				s := NewSession()
				if _, err := s.Analyze(base); err != nil {
					t.Fatal(err)
				}
				next := clone(base)
				for k, v := range edit {
					next[k] = v
				}
				stateBefore := mustEncode(t, s.ExportState())
				sizeBefore := s.prev.fset.Size()
				ctxBefore := s.prev.res.Context()

				ctx, restore := fail()
				up, err := s.AnalyzeCtx(ctx, next)
				restore()
				var pe *PanicError
				if failName == "detector panic" && !errors.As(err, &pe) {
					t.Fatalf("err = %v, want *PanicError", err)
				}
				if failName == "cancelled" && !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if up != nil {
					t.Fatalf("failed round returned an update: %+v", up.Stats)
				}

				if after := mustEncode(t, s.ExportState()); !bytes.Equal(after, stateBefore) {
					t.Errorf("failed round changed the exported state\nbefore: %s\n after: %s", stateBefore, after)
				}
				if got := s.prev.fset.Size(); got != sizeBefore {
					t.Errorf("failed round changed the FileSet size: %d -> %d", sizeBefore, got)
				}
				if s.prev.res.Context() != ctxBefore {
					t.Error("failed round replaced the last good round's Context")
				}

				up, err = s.Analyze(next)
				if err != nil {
					t.Fatal(err)
				}
				if wantFull := editName == "interface edit"; up.Stats.Full != wantFull {
					t.Errorf("retry round Full = %t, want %t: %+v", up.Stats.Full, wantFull, up.Stats)
				}
				clean := NewSession()
				if _, err := clean.Analyze(base); err != nil {
					t.Fatal(err)
				}
				cup, err := clean.Analyze(next)
				if err != nil {
					t.Fatal(err)
				}
				if up.Stats.GlobalFactsReused != cup.Stats.GlobalFactsReused {
					t.Errorf("retry inherited %d facts, the same push without the failure %d", up.Stats.GlobalFactsReused, cup.Stats.GlobalFactsReused)
				}
				if got, want := sessionStrings(up), fullDetect(t, next); !equalStrings(got, want) {
					t.Fatalf("retry round diverged\n got: %v\nwant: %v", got, want)
				}
			})
		}
	}
}
