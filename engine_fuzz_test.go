package rustprobe_test

// FuzzEngineAnalyze drives arbitrary source text through the full
// serving path — validation, singleflight, queue, worker pool, frontend,
// detectors, cache — and fails on the two regressions this
// engine was hardened against: an analysis that panics past the
// isolation layer (surfacing as *engine.InternalError) and a request
// that hangs past its deadline (worker loss).

import (
	"context"
	"errors"
	"testing"
	"time"

	"rustprobe"
	"rustprobe/internal/engine"
)

func FuzzEngineAnalyze(f *testing.F) {
	f.Add("clean.rs", "fn add(a: i32, b: i32) -> i32 { a + b }\n")
	f.Add("dlock.rs", `fn double(m: Mutex<i32>) {
    let a = m.lock().unwrap();
    let b = m.lock().unwrap();
}
`)
	f.Add("uaf.rs", `fn grow(v: Vec<i32>) {
    let p = v.as_ptr();
    drop(v);
    unsafe { let x = *p; }
}
`)
	f.Add("weird.rs", "fn \x00\xff{unsafe{")

	eng := engine.New(engine.Config{Workers: 2, QueueDepth: 8, CacheCapacity: 64})
	f.Cleanup(eng.Close)

	f.Fuzz(func(t *testing.T, name, src string) {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		resp, err := eng.Analyze(ctx, engine.Request{Files: map[string]string{name: src}})
		if err == nil {
			if resp == nil {
				t.Fatal("nil response with nil error")
			}
			return
		}
		// Malformed inputs are rejected with typed, recoverable errors;
		// anything else is a robustness regression.
		var reqErr *engine.RequestError
		var synErr *rustprobe.SyntaxError
		var intErr *engine.InternalError
		switch {
		case errors.As(err, &reqErr), errors.As(err, &synErr):
		case errors.As(err, &intErr):
			t.Fatalf("analysis panicked on %q: %s\n%s", name, intErr.Panic, intErr.Stack)
		case errors.Is(err, context.DeadlineExceeded):
			t.Fatalf("analysis hung past 60s on %q", name)
		default:
			t.Fatalf("unexpected error class on %q: %v", name, err)
		}
	})
}
