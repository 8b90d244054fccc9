package engine_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"rustprobe/internal/engine"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// uniqueReq builds a request whose content (and therefore cache /
// singleflight key) is unique per (tag, i).
func uniqueReq(tag string, i int) engine.Request {
	return engine.Request{Files: map[string]string{
		tag + ".rs": fmt.Sprintf("// %s %d\nfn f() { let x = %d; }\n", tag, i, i),
	}}
}

// TestEnginePanicIsolation: a panicking analysis pass must cost only its
// own request — the pool stays at configured size, the client gets a
// typed InternalError, and Stats counts the panic. More panics than
// workers proves no worker is ever lost.
func TestEnginePanicIsolation(t *testing.T) {
	eng := engine.New(engine.Config{
		Workers:       2,
		CacheCapacity: -1,
		TestDetectHook: func(_ context.Context, req engine.Request) {
			if _, ok := req.Files["panic.rs"]; ok {
				panic("injected detector panic")
			}
		},
	})
	defer eng.Close()

	const panics = 8 // 4x the pool size
	for i := 0; i < panics; i++ {
		_, err := eng.Analyze(context.Background(), uniqueReq("panic", i))
		var intErr *engine.InternalError
		if !errors.As(err, &intErr) {
			t.Fatalf("panic request %d: err = %v, want InternalError", i, err)
		}
		if intErr.Panic == "" || intErr.Stack == "" {
			t.Fatalf("InternalError missing panic value or stack: %+v", intErr)
		}
	}

	// The pool must still have both workers: more concurrent normal
	// jobs than one worker could serve before the test deadline hang.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := eng.Analyze(context.Background(), uniqueReq("ok", i)); err != nil {
				t.Errorf("post-panic request %d failed: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	s := eng.Stats()
	if s.Panics != panics {
		t.Errorf("Panics = %d, want %d", s.Panics, panics)
	}
	if s.JobsFailed != panics {
		t.Errorf("JobsFailed = %d, want %d", s.JobsFailed, panics)
	}
	if s.JobsCompleted != 4 {
		t.Errorf("JobsCompleted = %d, want 4", s.JobsCompleted)
	}
	if s.JobsInFlight != 0 {
		t.Errorf("JobsInFlight = %d after drain", s.JobsInFlight)
	}
}

// TestEngineQueueFullFastFail: with QueueReject, a saturated queue must
// return ErrQueueFull immediately instead of blocking the caller.
func TestEngineQueueFullFastFail(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	eng := engine.New(engine.Config{
		Workers:       1,
		QueueDepth:    1,
		QueueReject:   true,
		CacheCapacity: -1,
		TestDetectHook: func(_ context.Context, req engine.Request) {
			if _, ok := req.Files["slow.rs"]; ok {
				<-gate
			}
		},
	})
	defer eng.Close()
	defer release() // a waitFor failure must not deadlock the deferred Close

	// Occupy the single worker first, THEN fill the single queue slot:
	// submitting both at once races the worker's queue pop, and the
	// second request could be rejected while the first is still queued.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := eng.Analyze(context.Background(), uniqueReq("slow", i)); err != nil {
				t.Errorf("blocked request %d failed: %v", i, err)
			}
		}(i)
		if i == 0 {
			waitFor(t, "worker busy", func() bool { return eng.Stats().JobsInFlight == 1 })
		}
	}
	waitFor(t, "queue full", func() bool { return eng.Stats().QueueDepth == 1 })

	start := time.Now()
	_, err := eng.Analyze(context.Background(), uniqueReq("rejected", 0))
	elapsed := time.Since(start)
	if !errors.Is(err, engine.ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if elapsed > 250*time.Millisecond {
		t.Errorf("queue-full rejection took %s, want fast fail", elapsed)
	}
	if s := eng.Stats(); s.QueueRejected != 1 {
		t.Errorf("QueueRejected = %d, want 1", s.QueueRejected)
	}

	release()
	wg.Wait()
}

// TestEngineSingleflight: N concurrent identical submissions run exactly
// one analysis; every waiter gets its own deep-copied response.
func TestEngineSingleflight(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	eng := engine.New(engine.Config{
		Workers:        4,
		TestDetectHook: func(context.Context, engine.Request) { <-gate },
	})
	defer eng.Close()
	defer release()

	req := engine.Request{Files: map[string]string{"uaf.rs": uafSrc}}
	const clients = 16
	resps := make([]*engine.Response, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := eng.Analyze(context.Background(), req)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			resps[i] = resp
		}(i)
	}
	// Release the one real analysis only once all 15 followers have
	// coalesced onto it, so the count below is deterministic.
	waitFor(t, "15 dedup hits", func() bool { return eng.Stats().DedupHits == clients-1 })
	release()
	wg.Wait()

	s := eng.Stats()
	if s.JobsCompleted != 1 {
		t.Errorf("JobsCompleted = %d, want exactly 1 analysis for %d identical requests", s.JobsCompleted, clients)
	}
	if s.DedupHits != clients-1 {
		t.Errorf("DedupHits = %d, want %d", s.DedupHits, clients-1)
	}
	for i := 1; i < clients; i++ {
		if !reflect.DeepEqual(resps[i].Findings, resps[0].Findings) {
			t.Fatalf("client %d findings diverge: %+v vs %+v", i, resps[i].Findings, resps[0].Findings)
		}
	}
	// Deep-copy isolation across waiters, down to the Notes backing
	// arrays.
	if len(resps[0].Findings) == 0 || len(resps[0].Findings[0].Notes) == 0 {
		t.Fatal("test needs a finding with notes")
	}
	resps[0].Findings[0].Notes[0] = "vandalized"
	resps[0].Findings[0].Message = "vandalized"
	if resps[1].Findings[0].Notes[0] == "vandalized" || resps[1].Findings[0].Message == "vandalized" {
		t.Error("singleflight waiters share response backing arrays")
	}
}

// TestEngineCancellationFreesWorker: a timed-out client must cancel its
// job — the worker observes ctx.Done, skips the detectors, and is
// free for the next request instead of burning to completion.
func TestEngineCancellationFreesWorker(t *testing.T) {
	cancelled := make(chan struct{}, 1)
	eng := engine.New(engine.Config{
		Workers:       1,
		CacheCapacity: -1,
		TestDetectHook: func(ctx context.Context, req engine.Request) {
			if _, ok := req.Files["slow.rs"]; !ok {
				return
			}
			<-ctx.Done() // stall until the client gives up
			cancelled <- struct{}{}
		},
	})
	defer eng.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := eng.Analyze(ctx, uniqueReq("slow", 0))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled Analyze returned after %s", elapsed)
	}
	select {
	case <-cancelled:
		// the stalled job really observed the cancellation
	case <-time.After(10 * time.Second):
		t.Fatal("job never observed ctx cancellation")
	}

	// The (single) worker is free again: a normal request completes.
	if _, err := eng.Analyze(context.Background(), uniqueReq("ok", 0)); err != nil {
		t.Fatalf("post-cancel request failed: %v", err)
	}
	waitFor(t, "canceled counter", func() bool { return eng.Stats().JobsCanceled == 1 })
	if s := eng.Stats(); s.JobsCompleted != 1 {
		t.Errorf("JobsCompleted = %d, want 1 (the cancelled job must not complete)", s.JobsCompleted)
	}
}

// TestEngineCancelledWhileQueued: a job whose only waiter gives up while
// it is still in the queue is skipped entirely by the worker.
func TestEngineCancelledWhileQueued(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	eng := engine.New(engine.Config{
		Workers:       1,
		QueueDepth:    4,
		CacheCapacity: -1,
		TestDetectHook: func(_ context.Context, req engine.Request) {
			if _, ok := req.Files["slow.rs"]; ok {
				<-gate
			}
		},
	})
	defer eng.Close()
	defer release()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := eng.Analyze(context.Background(), uniqueReq("slow", 0)); err != nil {
			t.Errorf("slow request failed: %v", err)
		}
	}()
	waitFor(t, "worker busy", func() bool { return eng.Stats().JobsInFlight == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := eng.Analyze(ctx, uniqueReq("queued", 0))
		errc <- err
	}()
	waitFor(t, "job queued", func() bool { return eng.Stats().QueueDepth == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued client err = %v, want Canceled", err)
	}

	release()
	wg.Wait()
	waitFor(t, "queued job skipped", func() bool { return eng.Stats().JobsCanceled == 1 })
	if s := eng.Stats(); s.JobsCompleted != 1 {
		t.Errorf("JobsCompleted = %d, want 1 (abandoned job must be skipped, not analyzed)", s.JobsCompleted)
	}
}

// TestEngineCloseRejectThenDrain pins Close's ordering: new submissions
// fail fast with ErrClosed while already-queued jobs drain to completion
// and their waiting clients get real responses.
func TestEngineCloseRejectThenDrain(t *testing.T) {
	gate := make(chan struct{})
	eng := engine.New(engine.Config{
		Workers:       1,
		QueueDepth:    4,
		CacheCapacity: -1,
		TestDetectHook: func(_ context.Context, req engine.Request) {
			if _, ok := req.Files["slow.rs"]; ok {
				<-gate
			}
		},
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := eng.Analyze(context.Background(), uniqueReq("slow", 0)); err != nil {
			t.Errorf("in-flight request failed across Close: %v", err)
		}
	}()
	waitFor(t, "worker busy", func() bool { return eng.Stats().JobsInFlight == 1 })

	queuedResp := make(chan *engine.Response, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := eng.Analyze(context.Background(), uniqueReq("queued", 0))
		if err != nil {
			t.Errorf("queued request failed across Close: %v", err)
			return
		}
		queuedResp <- resp
	}()
	waitFor(t, "job queued", func() bool { return eng.Stats().QueueDepth == 1 })

	closed := make(chan struct{})
	go func() {
		eng.Close()
		close(closed)
	}()
	// Reject: once Close has begun, new submissions fail fast even
	// while the queue still holds work. A probe issued in the window
	// before Close flips the flag can still be accepted (and would then
	// block on the gated worker), so each probe carries its own short
	// deadline and key.
	probe := 0
	waitFor(t, "ErrClosed on new submissions", func() bool {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		_, err := eng.Analyze(ctx, uniqueReq("late", probe))
		probe++
		return errors.Is(err, engine.ErrClosed)
	})
	select {
	case <-closed:
		t.Fatal("Close returned before queued jobs drained")
	default:
	}

	// Drain: release the worker; the queued client gets its response.
	close(gate)
	wg.Wait()
	select {
	case resp := <-queuedResp:
		if resp == nil {
			t.Error("queued client got a nil response")
		}
	default:
		t.Error("queued client never received its response")
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned")
	}
}

// TestEngineCacheNotesDeepCopy pins the Notes deep copy: responses
// handed out on cache hits (and the original miss) must not share Notes
// backing arrays, so one client appending or rewriting notes cannot
// corrupt another client's response or the cached value. Run under
// -race, the concurrent section also proves the absence of data races.
func TestEngineCacheNotesDeepCopy(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2})
	defer eng.Close()
	req := engine.Request{Files: map[string]string{"uaf.rs": uafSrc}}

	first, err := eng.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Findings) == 0 || len(first.Findings[0].Notes) == 0 {
		t.Fatalf("test needs a finding with notes, got %+v", first.Findings)
	}
	wantNote := first.Findings[0].Notes[0]

	// Vandalize the miss response's notes in place: the cached value
	// must be unaffected.
	first.Findings[0].Notes[0] = "mutated"
	first.Findings[0].Notes = append(first.Findings[0].Notes, "extra")

	hit, err := eng.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Fatal("resubmission was not a cache hit")
	}
	if got := hit.Findings[0].Notes; len(got) != 1 || got[0] != wantNote {
		t.Errorf("miss-response mutation leaked into the cache: notes = %q", got)
	}

	// Two hits must not share backing arrays with each other either.
	other, err := eng.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	hit.Findings[0].Notes[0] = "scribbled"
	if other.Findings[0].Notes[0] != wantNote {
		t.Error("two cache hits share the same Notes backing array")
	}

	// Concurrent clients appending/sorting their own notes: -race
	// proves the isolation.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := eng.Analyze(context.Background(), req)
			if err != nil {
				t.Error(err)
				return
			}
			for j := range r.Findings {
				r.Findings[j].Notes = append(r.Findings[j].Notes, "local")
				for k := range r.Findings[j].Notes {
					r.Findings[j].Notes[k] = fmt.Sprintf("client-%d", i)
				}
			}
		}(i)
	}
	wg.Wait()
	final, err := eng.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got := final.Findings[0].Notes; len(got) != 1 || got[0] != wantNote {
		t.Errorf("concurrent note mutation leaked into the cache: %q", got)
	}
}
