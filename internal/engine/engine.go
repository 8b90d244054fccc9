// Package engine wraps the rustprobe pipeline in a concurrent analysis
// engine: a bounded worker pool serves independent analysis requests in
// parallel, each job running start to finish on its worker, and a
// content-hash LRU cache answers repeated submissions of unchanged code
// without re-analysis. cmd/rustprobed fronts this engine with an
// HTTP JSON API; cmd and library clients can embed it directly.
package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"rustprobe"
	"rustprobe/internal/corpus"
	"rustprobe/internal/detect"
	"rustprobe/internal/incrstate"
	"rustprobe/internal/source"
	"rustprobe/internal/store"
)

// StoreVersion derives the persistent result-store entry version from
// the analyzer release and the detector registry: a new analyzer version
// or any detector-set change produces a new version string, so entries
// written by an older build self-invalidate (quarantine on read) instead
// of serving stale findings.
func StoreVersion() string {
	h := sha256.New()
	fmt.Fprintf(h, "analyzer\x00%s\x00", rustprobe.AnalyzerVersion)
	for _, n := range rustprobe.DetectorNames() {
		fmt.Fprintf(h, "detector\x00%s\x00", n)
	}
	return "rustprobe-" + rustprobe.AnalyzerVersion + "-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// Config sizes the engine.
type Config struct {
	// Workers is the analysis pool size; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the pending-job buffer; 0 means 64.
	QueueDepth int
	// CacheCapacity is the LRU entry bound; 0 means 256, negative
	// disables caching entirely (used by benchmarks).
	CacheCapacity int
	// QueueReject makes Analyze fail fast with ErrQueueFull when the
	// pending-job queue is saturated, instead of blocking for a slot.
	// Servers enable it to convert saturation into 503 backpressure.
	QueueReject bool
	// Store, when non-nil, is the persistent content-addressed result
	// tier under the in-memory LRU: read-through on an LRU miss,
	// write-behind on completion. It survives restarts and may be shared
	// by several engines (replicas on one volume). Open it with
	// store.Open(dir, StoreVersion()).
	Store *store.Store
	// TestDetectHook, when non-nil, runs on the worker goroutine after
	// the frontend and before the detectors. Tests use it to
	// inject panics and stalls into a job; production never sets it.
	TestDetectHook func(ctx context.Context, req Request)
}

// Request is one unit of analysis work: either an inline file set or the
// name of an embedded corpus group, plus an optional detector selection
// (empty means the full static suite, as in rustprobe.Result.Detect).
type Request struct {
	Files     map[string]string `json:"files,omitempty"`
	Corpus    string            `json:"corpus,omitempty"`
	Detectors []string          `json:"detectors,omitempty"`
	// Precise selects the path-sensitive (dropflow-refuting) variants of
	// the memory detectors. It is part of the cache key: default and
	// precise results for the same sources are distinct entries.
	Precise bool `json:"precise,omitempty"`
}

// Finding is a fully resolved, serializable detector report (positions
// are materialized so cached responses need no FileSet). It is the one
// resolved shape shared with sessions and the state file.
type Finding = incrstate.Finding

// UnsafeSummary condenses the §4 unsafe-usage scan of the analyzed code.
type UnsafeSummary struct {
	Regions int `json:"regions"`
	Fns     int `json:"fns"`
	Traits  int `json:"traits"`
	Total   int `json:"total"`
}

// Response is the result of one analysis request. Every caller gets its
// own deep copy (see clone), so responses are safe to mutate.
type Response struct {
	Findings []Finding     `json:"findings"`
	Unsafe   UnsafeSummary `json:"unsafe"`
	CacheHit bool          `json:"cache_hit"`
	// StoreHit marks a CacheHit that was served from the persistent
	// store tier (disk) rather than the in-memory LRU — e.g. the first
	// resubmission after a daemon restart.
	StoreHit bool          `json:"store_hit,omitempty"`
	Elapsed  time.Duration `json:"-"`
}

// clone deep-copies the response: a fresh Findings slice and fresh Notes
// backing arrays, so a caller sorting, truncating, or appending to its
// response cannot race or corrupt another caller's view of the shared
// cached/singleflighted value.
func (r *Response) clone() *Response {
	out := *r
	if r.Findings != nil {
		out.Findings = make([]Finding, len(r.Findings))
		copy(out.Findings, r.Findings)
		for i := range out.Findings {
			if notes := out.Findings[i].Notes; notes != nil {
				out.Findings[i].Notes = append([]string(nil), notes...)
			}
		}
	}
	return &out
}

// RequestError reports an invalid request (bad shape, unknown corpus
// group or detector name); servers map it to 400.
type RequestError struct{ msg string }

func (e *RequestError) Error() string { return "engine: " + e.msg }

// ErrQueueFull reports that the pending-job queue was saturated and the
// engine was configured to reject rather than block (Config.QueueReject);
// servers map it to 503 with a Retry-After hint.
var ErrQueueFull = errors.New("engine: analysis queue is full")

// ErrClosed reports a submission after Close; servers map it to 503.
var ErrClosed = errors.New("engine: closed")

// InternalError reports that an analysis pass panicked. The panic was
// recovered on the worker, the pool stays at full strength, and only the
// offending request fails; servers map it to 500 and log the stack.
type InternalError struct {
	Panic string // rendered recover() value
	Stack string // stack of the panicking goroutine
}

func (e *InternalError) Error() string {
	return "engine: internal error: analysis panicked: " + e.Panic
}

// Engine is the concurrent analysis engine. Create with New, submit
// with Analyze, snapshot activity with Stats, stop with Close.
type Engine struct {
	cfg     Config
	jobs    chan *job
	cache   *lru[*Response] // nil when disabled
	ctr     counters
	puts    chan string    // keys with a queued write-behind put; nil without a store
	storeWG sync.WaitGroup // the store writers

	// putsMu guards putsClosed vs. sends on puts. It is not mu: a
	// submit blocked on a full job queue holds mu.RLock, so a worker
	// waiting on mu behind Close's Lock would stop the pool draining.
	putsMu     sync.RWMutex
	putsClosed bool

	putMu   sync.Mutex            // guards queued and writing
	queued  map[string]storeWrite // per key, the latest write not yet started
	writing map[string]bool       // keys a writer is putting now

	flightMu sync.Mutex // guards flights
	flights  map[string]*flight

	mu     sync.RWMutex // guards closed vs. sends on jobs
	closed bool
	wg     sync.WaitGroup
}

// job is one admitted unit of work: an Analyze leader's analysis or a
// session round. run executes on a worker under job ctx; done receives
// its outcome exactly once — including a skip (ctx already dead when the
// job reached a worker) and a recovered panic (*InternalError).
type job struct {
	ctx  context.Context
	run  func(ctx context.Context) error
	done func(err error)
}

// New starts an engine with cfg's pool and cache sizes.
func New(cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	e := &Engine{cfg: cfg, jobs: make(chan *job, cfg.QueueDepth), flights: make(map[string]*flight)}
	cacheCap := cfg.CacheCapacity
	if cacheCap == 0 {
		cacheCap = 256
	}
	if cacheCap > 0 {
		e.cache = newLRU(cacheCap, (*Response).clone)
	}
	if cfg.Store != nil {
		e.puts = make(chan string, storeQueue)
		e.queued = make(map[string]storeWrite)
		e.writing = make(map[string]bool)
		for i := 0; i < storeWriters; i++ {
			e.storeWG.Add(1)
			go func() {
				defer e.storeWG.Done()
				for key := range e.puts {
					e.drain(key)
				}
			}()
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			for j := range e.jobs {
				e.work(j)
			}
		}()
	}
	return e
}

// Close shuts the engine down reject-then-drain, deterministically:
// first new submissions start failing fast with ErrClosed, then the
// workers drain every already-queued job to completion (a client waiting
// on a queued job gets its real response, not an error), and finally
// Close returns once the pool is idle. Calling Close twice is a no-op.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	close(e.jobs)
	e.mu.Unlock()
	e.wg.Wait()
	// Flush write-behind puts so a restart (or a replica) sees every
	// result and session snapshot this engine completed. Later puts are
	// refused (storePut checks putsClosed under the same lock).
	if e.puts != nil {
		e.putsMu.Lock()
		e.putsClosed = true
		close(e.puts)
		e.putsMu.Unlock()
	}
	e.storeWG.Wait()
}

// Analyze submits a request and blocks until its response, a request
// error, or ctx cancellation. Identical concurrent submissions are
// singleflighted on the content-hash key: one analysis runs and every
// waiter receives its own deep copy of the result. The underlying job
// is cancelled only when the last waiter gives up, so a cancelled
// client frees its worker instead of burning it to completion. With
// Config.QueueReject set, a saturated queue fails fast with ErrQueueFull
// instead of blocking.
func (e *Engine) Analyze(ctx context.Context, req Request) (*Response, error) {
	start := time.Now()
	if err := validate(req); err != nil {
		return nil, err
	}
	e.ctr.submitted.Add(1)
	key := req.Key()
	if e.cache != nil {
		if cached, ok := e.cache.get(key); ok {
			e.ctr.cacheHits.Add(1)
			cached.CacheHit = true
			cached.Elapsed = time.Since(start)
			return cached, nil
		}
		e.ctr.cacheMisses.Add(1)
	}
	// Read-through to the persistent tier: a result computed before the
	// last restart (or by another replica sharing the store) is served
	// from disk and promoted into the LRU.
	if hit, ok := e.storeGet(key); ok {
		out := hit.clone()
		out.CacheHit = true
		out.StoreHit = true
		out.Elapsed = time.Since(start)
		return out, nil
	}

	f, leader := e.joinFlight(key)
	if !leader {
		// An identical request is already in flight: wait for its
		// result instead of analyzing the same content again.
		e.ctr.dedupHits.Add(1)
		return e.await(ctx, f, start)
	}

	var resp *Response
	err := e.submit(ctx, &job{
		ctx: f.ctx,
		run: func(ctx context.Context) (err error) {
			resp, err = e.analyze(ctx, req, key)
			return err
		},
		done: func(err error) {
			if err != nil && !isCancel(err) {
				e.ctr.failed.Add(1)
			}
			e.finishFlight(f, key, resp, err)
		},
	})
	if err != nil {
		e.finishFlight(f, key, nil, err)
	}
	return e.await(ctx, f, start)
}

// Do runs fn on a pool worker, admitted exactly like an Analyze job, and
// blocks until it has finished. It fails fast with ErrClosed after Close
// and with ErrQueueFull on a saturated queue under Config.QueueReject;
// otherwise it waits for a queue slot until ctx is done. Once admitted,
// fn runs under ctx unless ctx is already done when a worker picks it up
// (then Do returns ctx.Err() without running it), and Do waits for it
// even if ctx expires meanwhile: callers such as session rounds hold
// state that fn mutates. A panic in fn is recovered on the worker and
// returned as *InternalError, as is a *rustprobe.PanicError from fn.
func (e *Engine) Do(ctx context.Context, fn func(ctx context.Context) error) error {
	result := make(chan error, 1)
	if err := e.submit(ctx, &job{ctx: ctx, run: fn, done: func(err error) { result <- err }}); err != nil {
		return err
	}
	return <-result
}

// submit is the one admission path into the worker pool: the closed
// check, then the bounded queue — fail fast with ErrQueueFull under
// Config.QueueReject, otherwise wait for a slot until ctx is done. On a
// non-nil return the job was not admitted and its done is never called.
func (e *Engine) submit(ctx context.Context, j *job) error {
	// The read lock is held across the send so Close cannot close the
	// channel mid-send; workers keep draining, so the send cannot block
	// Close indefinitely.
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	if e.cfg.QueueReject {
		select {
		case e.jobs <- j:
			return nil
		default:
			e.ctr.queueRejected.Add(1)
			return ErrQueueFull
		}
	}
	select {
	case e.jobs <- j:
		return nil
	case <-ctx.Done():
		e.ctr.canceled.Add(1)
		return ctx.Err()
	}
}

// work executes one admitted job on a worker goroutine. A job whose ctx
// died while it sat in the queue is skipped; a panic anywhere in it —
// or a detector panic the detector runner isolated — becomes an
// *InternalError.
// Either way done runs exactly once, so callers never block on a lost
// worker and the pool never shrinks.
func (e *Engine) work(j *job) {
	e.ctr.inFlight.Add(1)
	err := j.ctx.Err()
	if err == nil {
		err = runRecovered(j)
	}
	var pe *rustprobe.PanicError
	var ie *InternalError
	switch {
	case errors.As(err, &pe):
		err = &InternalError{Panic: fmt.Sprintf("detector %s: %v", pe.Detector, pe.Value), Stack: string(pe.Stack)}
		e.ctr.panics.Add(1)
	case errors.As(err, &ie):
		e.ctr.panics.Add(1)
	case isCancel(err):
		// Skipped in the queue or stopped early: nobody is waiting for
		// the result.
		e.ctr.canceled.Add(1)
	}
	// Settle the counters before done wakes the caller, so a caller that
	// reads Stats right after its job returns sees them final.
	e.ctr.inFlight.Add(-1)
	j.done(err)
}

// runRecovered runs j, turning a panic into an *InternalError.
func runRecovered(j *job) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &InternalError{Panic: fmt.Sprint(v), Stack: string(debug.Stack())}
		}
	}()
	return j.run(j.ctx)
}

func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// analyze is an Analyze job's body: frontend, detectors, then the §4
// unsafe scan, all on the worker. A panic in the frontend or the scan
// reaches runRecovered; a detector's comes back as a
// *rustprobe.PanicError. work turns either into an *InternalError.
func (e *Engine) analyze(ctx context.Context, req Request, key string) (*Response, error) {
	start := time.Now()
	res, err := analyzeFrontend(req)
	e.ctr.frontendNs.Add(int64(time.Since(start)))
	if err != nil {
		return nil, err
	}

	if hook := e.cfg.TestDetectHook; hook != nil {
		hook(ctx, req)
	}

	t := time.Now()
	findings, times, err := res.DetectCtx(ctx, req.Detectors...)
	e.ctr.detectNs.Add(int64(time.Since(t)))
	e.ctr.addDetectorTimes(times)
	if err != nil {
		return nil, err
	}

	t = time.Now()
	rep := res.ScanUnsafe()
	scan := UnsafeSummary{Regions: rep.Regions, Fns: rep.Fns, Traits: rep.Traits, Total: rep.TotalUsages()}
	e.ctr.scanNs.Add(int64(time.Since(t)))

	resp := &Response{Findings: rustprobe.ResolveFindings(res.Fset, findings), Unsafe: scan}
	if e.cache != nil {
		e.cache.put(key, resp)
	}
	e.storePut(key, storeWrite{encode: func() ([]byte, error) { return json.Marshal(resp) }})
	e.ctr.completed.Add(1)
	e.ctr.analyzeNs.Add(int64(time.Since(start)))
	return resp, nil
}

// storeGet consults the persistent tier (read-through). A hit is
// promoted into the LRU so repeat traffic stays in memory.
func (e *Engine) storeGet(key string) (*Response, bool) {
	if e.cfg.Store == nil {
		return nil, false
	}
	payload, ok := e.cfg.Store.Get(key)
	if !ok {
		return nil, false
	}
	var resp Response
	if err := json.Unmarshal(payload, &resp); err != nil {
		// The entry passed its checksum but no longer decodes — a
		// same-version engine with a different Response shape wrote it.
		// Treat as a miss; the fresh result overwrites it.
		return nil, false
	}
	if e.cache != nil {
		e.cache.put(key, &resp)
	}
	return &resp, true
}

// storeWriters goroutines drain up to storeQueue pending write-behind
// puts; a job that finds the queue full waits for a slot. The queue is
// sized so the jobs rarely wait: on a fresh store the first seconds of
// cold batches leave about a thousand puts pending.
const (
	storeWriters = 4
	storeQueue   = 1024
)

// storeWrite is one queued write-behind put. encode runs on a writer,
// so the job that queued it does not pay for serialization; done, when
// set, learns the outcome exactly once: nil once the payload is stored,
// ErrSuperseded if a newer write to the same key replaced this one
// before it started, or the encode or store error.
type storeWrite struct {
	encode func() ([]byte, error)
	done   func(error)
}

// ErrSuperseded is a write-behind put's outcome when a newer write to
// the same key replaced it while it was still queued.
var ErrSuperseded = errors.New("engine: superseded by a newer write to the same key")

// storePut queues w write-behind under key, and Close drains the
// pending writes. Writes are latest-wins per key: w replaces a write to
// key that is still queued, and at most one write per key is in flight,
// so the last write of a key is always its newest. A key whose write is
// in flight is picked up again by that writer. When the queue is full
// the caller, a worker job, waits for a writer to take a key, so pending
// writes never outgrow the queue. After Close the write is dropped with
// ErrClosed.
func (e *Engine) storePut(key string, w storeWrite) {
	if e.puts == nil {
		return
	}
	// The read lock is held across the send so Close cannot close puts
	// mid-send; the writers keep draining and take no lock Close holds,
	// so the send cannot block Close indefinitely.
	e.putsMu.RLock()
	if e.putsClosed {
		e.putsMu.RUnlock()
		if w.done != nil {
			w.done(ErrClosed)
		}
		return
	}
	e.putMu.Lock()
	prev, pending := e.queued[key]
	e.queued[key] = w
	send := !pending && !e.writing[key]
	e.putMu.Unlock()
	if send {
		e.puts <- key
	}
	e.putsMu.RUnlock()
	if pending && prev.done != nil {
		prev.done(ErrSuperseded)
	}
}

// drain writes key's queued writes until none is left, so one writer
// owns a key from its first queued write to its last.
func (e *Engine) drain(key string) {
	for {
		e.putMu.Lock()
		w, ok := e.queued[key]
		if !ok {
			delete(e.writing, key)
			e.putMu.Unlock()
			return
		}
		delete(e.queued, key)
		e.writing[key] = true
		e.putMu.Unlock()

		payload, err := w.encode()
		if err == nil {
			err = e.cfg.Store.Put(key, payload) // failures are also counted by the store
		}
		if w.done != nil {
			w.done(err)
		}
	}
}

// PersistState queues a session snapshot for the write-behind writers
// under key: incrstate.Encode and the store put run on a writer, with
// storePut's latest-wins rule, and Close flushes it. st must not change
// after the call. done, when set, receives the outcome as described on
// storeWrite, or ErrClosed after Close. Without a store PersistState
// does nothing and never calls done.
func (e *Engine) PersistState(key string, st *incrstate.State, done func(error)) {
	e.storePut(key, storeWrite{encode: func() ([]byte, error) { return incrstate.Encode(st) }, done: done})
}

// Store returns the persistent tier the engine reads through and writes
// behind, or nil without one.
func (e *Engine) Store() *store.Store { return e.cfg.Store }

// analyzeFrontend runs the request's frontend. Unparseable sources come
// back as *rustprobe.SyntaxError; servers map it to 422.
func analyzeFrontend(req Request) (*rustprobe.Result, error) {
	var res *rustprobe.Result
	var err error
	if req.Corpus != "" {
		res, err = rustprobe.AnalyzeCorpus(req.Corpus)
	} else {
		res, err = rustprobe.AnalyzeFiles(req.Files)
	}
	if err != nil {
		return nil, err
	}
	res.Precise = req.Precise
	return res, nil
}

func validate(req Request) error {
	if len(req.Files) == 0 && req.Corpus == "" {
		return &RequestError{"empty request: provide files or a corpus group"}
	}
	if len(req.Files) > 0 && req.Corpus != "" {
		return &RequestError{"files and corpus are mutually exclusive"}
	}
	if req.Corpus != "" {
		switch corpus.Group(req.Corpus) {
		case corpus.GroupDetectorEval, corpus.GroupPatterns, corpus.GroupUnsafe, corpus.GroupApps, corpus.GroupAll:
		default:
			return &RequestError{fmt.Sprintf("unknown corpus group %q", req.Corpus)}
		}
	}
	known := map[string]bool{}
	for _, n := range rustprobe.DetectorNames() {
		known[n] = true
	}
	for _, n := range req.Detectors {
		if !known[n] {
			return &RequestError{fmt.Sprintf("unknown detector %q", n)}
		}
	}
	return nil
}

// Key content-hashes the request: SHA-256 over the sorted filename+source
// pairs (length-prefixed so boundaries cannot collide), the corpus group,
// and the sorted detector selection. It is the cache key at both tiers
// (LRU and persistent store), exported so tools can address stored
// entries for a known input.
func (r Request) Key() string {
	h := sha256.New()
	fmt.Fprintf(h, "corpus\x00%s\x00", r.Corpus)
	names := make([]string, 0, len(r.Files))
	for n := range r.Files {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		src := r.Files[n]
		fmt.Fprintf(h, "file\x00%d\x00%s\x00%d\x00%s\x00", len(n), n, len(src), src)
	}
	ds := append([]string(nil), r.Detectors...)
	sort.Strings(ds)
	for _, d := range ds {
		fmt.Fprintf(h, "detector\x00%s\x00", d)
	}
	if r.Precise {
		fmt.Fprintf(h, "precise\x00")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// FindingsFrom resolves detector findings against fset into the
// serializable engine shape; it is rustprobe.ResolveFindings.
func FindingsFrom(fset *source.FileSet, fs []detect.Finding) []Finding {
	return rustprobe.ResolveFindings(fset, fs)
}
