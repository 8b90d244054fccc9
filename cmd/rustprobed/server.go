package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"net/url"

	"rustprobe"
	"rustprobe/internal/engine"
	"rustprobe/internal/incrstate"
	"rustprobe/internal/sessionpool"
)

// maxBodyBytes bounds a single /v1/analyze payload (sources are text;
// 32 MiB is far beyond any crate the subset frontend will see).
const maxBodyBytes = 32 << 20

// serverOptions configures the daemon's HTTP handler.
type serverOptions struct {
	timeout time.Duration // per-request analysis budget; 0 = none
	pprof   bool          // mount net/http/pprof under /debug/pprof/
	precise bool          // force path-sensitive detectors on every request

	// pool, when non-nil, serves the stateful session API under
	// /v1/sessions/; nil (e.g. -sessions 0) leaves the route unmounted.
	pool *sessionpool.Pool
}

// server routes the rustprobed HTTP API onto an engine.
type server struct {
	eng     *engine.Engine
	opts    serverOptions
	started time.Time
}

// newServer builds the daemon's HTTP handler; tests mount it on
// net/http/httptest listeners. Every request gets an X-Request-ID and
// one structured access-log line.
func newServer(eng *engine.Engine, opts serverOptions) http.Handler {
	s := &server{eng: eng, opts: opts, started: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/analyze", s.handleAnalyze)
	mux.HandleFunc("/v1/analyze-batch", s.handleAnalyzeBatch)
	if opts.pool != nil {
		mux.HandleFunc("/v1/sessions/", s.handleSessions)
	}
	mux.HandleFunc("/v1/detectors", s.handleDetectors)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	if opts.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return withRequestID(mux)
}

// --- request IDs + access log ----------------------------------------------

type requestIDKey struct{}

// reqPrefix distinguishes daemon restarts in aggregated logs; reqSeq
// orders requests within one process.
var (
	reqPrefix = func() string {
		var b [4]byte
		rand.Read(b[:])
		return hex.EncodeToString(b[:])
	}()
	reqSeq atomic.Uint64
)

// statusWriter captures the response status for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// withRequestID stamps every request with a unique ID (echoed in the
// X-Request-ID response header and threaded through the context for
// handler logs) and emits one key=value access-log line per request.
func withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("%s-%06d", reqPrefix, reqSeq.Add(1))
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id)))
		log.Printf("rustprobed: req=%s method=%s path=%s status=%d elapsed=%s",
			id, r.Method, r.URL.Path, sw.status, time.Since(start).Round(time.Microsecond))
	})
}

// requestID recovers the middleware's ID for handler-level log lines.
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// --- handlers ---------------------------------------------------------------

// analyzeResponse is the wire shape of a successful analysis.
type analyzeResponse struct {
	Findings []engine.Finding     `json:"findings"`
	Unsafe   engine.UnsafeSummary `json:"unsafe"`
	CacheHit bool                 `json:"cache_hit"`
	// StoreHit marks a result read from the persistent store rather
	// than recomputed — the restart/replica fast path.
	StoreHit  bool    `json:"store_hit,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// errorResponse is the wire shape of every failure.
type errorResponse struct {
	Error       string `json:"error"`
	Diagnostics string `json:"diagnostics,omitempty"`
}

// decodePost is the request prologue every analysis endpoint shares: it
// answers 405 to anything but POST, then decodes the size-bounded JSON
// body into v, rejecting unknown fields with 400. It reports whether the
// handler should go on; on false the error response is already written.
func decodePost(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only", "")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid JSON: %v", err), "")
		return false
	}
	return true
}

// analysisContext bounds one request's analysis by the -timeout budget
// (none when it is 0). The caller must call the returned cancel.
func (s *server) analysisContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.opts.timeout > 0 {
		return context.WithTimeout(r.Context(), s.opts.timeout)
	}
	return r.Context(), func() {}
}

func (s *server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req engine.Request
	if !decodePost(w, r, &req) {
		return
	}
	if s.opts.precise {
		req.Precise = true
	}
	ctx, cancel := s.analysisContext(r)
	defer cancel()
	resp, err := s.eng.Analyze(ctx, req)
	if err != nil {
		writeFailure(w, r, "analysis", err)
		return
	}
	writeJSON(w, http.StatusOK, analyzeResponse{
		Findings:  resp.Findings,
		Unsafe:    resp.Unsafe,
		CacheHit:  resp.CacheHit,
		StoreHit:  resp.StoreHit,
		ElapsedMS: float64(resp.Elapsed) / float64(time.Millisecond),
	})
}

// batchResponse is the wire shape of a batch analysis: per-file results
// (findings or an isolated error classification), never a partial map.
type batchResponse struct {
	Results   map[string]*engine.BatchEntry `json:"results"`
	Files     int                           `json:"files"`
	Errors    int                           `json:"errors"`
	ElapsedMS float64                       `json:"elapsed_ms"`
}

// handleAnalyzeBatch serves POST /v1/analyze-batch: many named files in
// one request, analyzed independently. Request-level failures (bad JSON,
// empty set, unknown detector, timeout, shutdown) map through
// writeFailure like every endpoint; per-file failures are isolated inside
// their entries with an error_kind clients can branch on.
func (s *server) handleAnalyzeBatch(w http.ResponseWriter, r *http.Request) {
	var req engine.BatchRequest
	if !decodePost(w, r, &req) {
		return
	}
	if s.opts.precise {
		req.Precise = true
	}
	ctx, cancel := s.analysisContext(r)
	defer cancel()
	resp, err := s.eng.AnalyzeBatch(ctx, req)
	if err != nil {
		writeFailure(w, r, "batch analysis", err)
		return
	}
	writeJSON(w, http.StatusOK, batchResponse{
		Results:   resp.Results,
		Files:     resp.Files,
		Errors:    resp.Errors,
		ElapsedMS: float64(resp.Elapsed) / float64(time.Millisecond),
	})
}

// sessionPushRequest is the wire shape of POST /v1/sessions/{repo}/push.
// Exactly one of two forms: a full file map ("files"), or a diff
// ("changed" and/or "removed") applied over the repo's last successfully
// pushed tree. A diff push against a repo with no live session (first
// contact, evicted, daemon restarted) fails with 409 — the client then
// re-pushes the full map.
type sessionPushRequest struct {
	Files   map[string]string `json:"files,omitempty"`
	Changed map[string]string `json:"changed,omitempty"`
	Removed []string          `json:"removed,omitempty"`
}

// sessionPushResponse is one session round: resolved findings plus the
// round's stats (dirty-closure size, replayed findings, full/incremental,
// restore and hit flags).
type sessionPushResponse struct {
	Findings  []incrstate.Finding   `json:"findings"`
	Stats     sessionpool.PushStats `json:"stats"`
	ElapsedMS float64               `json:"elapsed_ms"`
}

// handleSessions serves the stateful session API:
//
//	POST /v1/sessions/{repo}/push
//
// {repo} is URL-escaped and may contain slashes ("org/repo"). Unlike the
// stateless endpoints, repeated pushes for one repo land on the same
// live Session, so a re-push with a small diff pays one dirty-closure
// detection instead of a per-file sweep. Route errors (404, or 400 for
// an oversized repo name) are answered before the method and body.
func (s *server) handleSessions(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/sessions/")
	repo, ok := strings.CutSuffix(rest, "/push")
	if !ok || repo == "" {
		writeError(w, http.StatusNotFound, "unknown session endpoint; use POST /v1/sessions/{repo}/push", "")
		return
	}
	if unescaped, err := url.PathUnescape(repo); err == nil {
		repo = unescaped
	}
	if len(repo) > 512 {
		writeError(w, http.StatusBadRequest, "repo name exceeds 512 bytes", "")
		return
	}

	var req sessionPushRequest
	if !decodePost(w, r, &req) {
		return
	}
	fullPush := req.Files != nil
	diffPush := req.Changed != nil || req.Removed != nil
	switch {
	case fullPush && diffPush:
		writeError(w, http.StatusBadRequest, `push either "files" (full map) or "changed"/"removed" (diff), not both`, "")
		return
	case !fullPush && !diffPush:
		writeError(w, http.StatusBadRequest, `empty push: provide "files" or "changed"/"removed"`, "")
		return
	case fullPush && len(req.Files) == 0:
		writeError(w, http.StatusBadRequest, "full push with no files", "")
		return
	}

	ctx, cancel := s.analysisContext(r)
	defer cancel()
	start := time.Now()
	var res *sessionpool.Result
	var err error
	if fullPush {
		res, err = s.opts.pool.Push(ctx, repo, req.Files)
	} else {
		res, err = s.opts.pool.PushDiff(ctx, repo, req.Changed, req.Removed)
	}
	if err != nil {
		writeFailure(w, r, "session push", err)
		return
	}
	writeJSON(w, http.StatusOK, sessionPushResponse{
		Findings:  res.Findings,
		Stats:     res.Stats,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// writeFailure is the one error-to-status mapping every analysis
// endpoint shares; what names the work in the timeout message. A
// recovered panic's stack goes to the server log, never to the client.
func writeFailure(w http.ResponseWriter, r *http.Request, what string, err error) {
	var reqErr *engine.RequestError
	var synErr *rustprobe.SyntaxError
	var intErr *engine.InternalError
	switch {
	case errors.As(err, &reqErr):
		writeError(w, http.StatusBadRequest, reqErr.Error(), "")
	case errors.As(err, &synErr):
		writeError(w, http.StatusUnprocessableEntity, engine.SyntaxErrorMessage, synErr.Diags)
	case errors.Is(err, sessionpool.ErrNoSession):
		writeError(w, http.StatusConflict, "no live session for this repo; push the full file map", "")
	case errors.Is(err, engine.ErrQueueFull):
		// Backpressure, not failure: tell the client to retry.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "analysis queue is full, retry later", "")
	case errors.Is(err, engine.ErrClosed), errors.Is(err, sessionpool.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "server is shutting down", "")
	case errors.As(err, &intErr):
		// The panic was isolated to this request; the worker pool is
		// intact.
		log.Printf("rustprobed: req=%s %s panicked: %s\n%s",
			requestID(r.Context()), what, intErr.Panic, intErr.Stack)
		writeError(w, http.StatusInternalServerError, "internal error: analysis pass panicked", "")
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, what+" timed out", "")
	case errors.Is(err, context.Canceled):
		// Client went away; 499 is the de-facto code for that.
		writeError(w, 499, "client closed request", "")
	default:
		writeError(w, http.StatusInternalServerError, err.Error(), "")
	}
}

func (s *server) handleDetectors(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only", "")
		return
	}
	writeJSON(w, http.StatusOK, map[string][]string{"detectors": rustprobe.DetectorNames()})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only", "")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_ms": time.Since(s.started).Milliseconds(),
	})
}

// statsResponse embeds the engine stats (flat, wire-compatible with
// pre-session clients) and adds the session pool's counters when the
// session service is mounted.
type statsResponse struct {
	engine.Stats
	Sessions *sessionpool.Stats `json:"sessions,omitempty"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only", "")
		return
	}
	resp := statsResponse{Stats: s.eng.Stats()}
	if s.opts.pool != nil {
		ps := s.opts.pool.Stats()
		resp.Sessions = &ps
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics renders the engine counters in the Prometheus text
// exposition format (hand-rolled: the repo takes no dependencies).
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only", "")
		return
	}
	st := s.eng.Stats()
	var b strings.Builder
	metric := func(name, typ, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, typ, name, v)
	}
	metric("rustprobed_jobs_submitted_total", "counter", "Requests accepted after validation.", float64(st.JobsSubmitted))
	metric("rustprobed_jobs_completed_total", "counter", "Analyses run to completion.", float64(st.JobsCompleted))
	metric("rustprobed_jobs_failed_total", "counter", "Jobs failed (frontend errors and panics).", float64(st.JobsFailed))
	metric("rustprobed_jobs_canceled_total", "counter", "Jobs abandoned by every waiter before completion.", float64(st.JobsCanceled))
	metric("rustprobed_panics_total", "counter", "Analysis passes that panicked (isolated per request; pool intact).", float64(st.Panics))
	metric("rustprobed_queue_rejected_total", "counter", "Submissions fast-failed with 503 because the queue was full.", float64(st.QueueRejected))
	metric("rustprobed_dedup_hits_total", "counter", "Submissions coalesced onto an identical in-flight analysis.", float64(st.DedupHits))
	metric("rustprobed_queue_depth", "gauge", "Jobs waiting in the queue.", float64(st.QueueDepth))
	metric("rustprobed_queue_capacity", "gauge", "Queue slot capacity.", float64(st.QueueCapacity))
	metric("rustprobed_workers", "gauge", "Analysis worker pool size.", float64(st.Workers))
	metric("rustprobed_jobs_in_flight", "gauge", "Jobs currently on a worker.", float64(st.JobsInFlight))
	metric("rustprobed_cache_hits_total", "counter", "Result-cache hits.", float64(st.CacheHits))
	metric("rustprobed_cache_misses_total", "counter", "Result-cache misses.", float64(st.CacheMisses))
	ratio := 0.0
	if st.CacheHits+st.CacheMisses > 0 {
		ratio = float64(st.CacheHits) / float64(st.CacheHits+st.CacheMisses)
	}
	metric("rustprobed_cache_hit_ratio", "gauge", "Cache hits / lookups since start.", ratio)
	metric("rustprobed_cache_size", "gauge", "Result-cache entries.", float64(st.CacheSize))
	metric("rustprobed_cache_entries", "gauge", "Result-cache entries (alias of rustprobed_cache_size).", float64(st.CacheEntries))
	metric("rustprobed_cache_capacity", "gauge", "Result-cache entry bound.", float64(st.CacheCapacity))
	metric("rustprobed_cache_evictions_total", "counter", "LRU entries evicted under capacity pressure.", float64(st.CacheEvictions))
	metric("rustprobed_store_hits_total", "counter", "Persistent-store hits (results served from disk, e.g. after a restart).", float64(st.StoreHits))
	metric("rustprobed_store_misses_total", "counter", "Persistent-store misses.", float64(st.StoreMisses))
	metric("rustprobed_store_puts_total", "counter", "Results persisted write-behind to the store.", float64(st.StorePuts))
	metric("rustprobed_store_put_errors_total", "counter", "Failed store writes.", float64(st.StorePutErrors))
	metric("rustprobed_store_quarantined_total", "counter", "Corrupt, truncated, or version-mismatched store entries quarantined at read.", float64(st.StoreQuarantined))
	metric("rustprobed_store_entries", "gauge", "Entries in the persistent store (this handle's view).", float64(st.StoreEntries))
	metric("rustprobed_batch_requests_total", "counter", "Batch submissions accepted.", float64(st.BatchSubmitted))
	metric("rustprobed_batch_files_total", "counter", "Files fanned out by batch requests.", float64(st.BatchFiles))
	metric("rustprobed_batch_file_errors_total", "counter", "Per-file errors isolated inside batch responses.", float64(st.BatchFileErrors))
	metric("rustprobed_frontend_ms_total", "counter", "Cumulative frontend wall time (ms).", st.FrontendMSTotal)
	metric("rustprobed_detect_ms_total", "counter", "Cumulative detector wall time (ms).", st.DetectMSTotal)
	metric("rustprobed_unsafe_scan_ms_total", "counter", "Cumulative unsafe-scan wall time (ms).", st.UnsafeScanMSTotal)
	metric("rustprobed_analyze_ms_total", "counter", "Cumulative end-to-end analysis wall time (ms).", st.AnalyzeMSTotal)
	metric("rustprobed_uptime_seconds", "gauge", "Seconds since the daemon started.", time.Since(s.started).Seconds())
	if s.opts.pool != nil {
		ps := s.opts.pool.Stats()
		metric("rustprobed_sessions_live", "gauge", "Live repo sessions in the pool.", float64(ps.Live))
		metric("rustprobed_session_pushes_total", "counter", "Session pushes accepted (full map or diff).", float64(ps.Pushes))
		metric("rustprobed_session_hits_total", "counter", "Pushes served by an already-live session.", float64(ps.Hits))
		metric("rustprobed_session_misses_total", "counter", "Pushes that created a session entry.", float64(ps.Misses))
		metric("rustprobed_session_restores_total", "counter", "Sessions seeded from persisted store state (survived a restart or eviction).", float64(ps.Restores))
		metric("rustprobed_session_evictions_lru_total", "counter", "Sessions evicted by the LRU cap.", float64(ps.EvictionsLRU))
		metric("rustprobed_session_evictions_ttl_total", "counter", "Sessions evicted after idling past the TTL.", float64(ps.EvictionsTTL))
		metric("rustprobed_session_full_rounds_total", "counter", "Session rounds that ran a full from-scratch analysis.", float64(ps.FullRounds))
		metric("rustprobed_session_incremental_rounds_total", "counter", "Session rounds that reused prior state (dirty-closure or replay).", float64(ps.IncrementalRounds))
		metric("rustprobed_session_roots_detected_total", "counter", "Function roots re-detected across incremental session rounds (dirty-closure size).", float64(ps.RootsDetected))
		metric("rustprobed_session_findings_replayed_total", "counter", "Cached findings replayed instead of recomputed across session rounds.", float64(ps.FindingsReplayed))
		metric("rustprobed_session_state_saves_total", "counter", "Session snapshots written to the store (write-behind).", float64(ps.StateSaves))
		metric("rustprobed_session_state_saves_coalesced_total", "counter", "Session snapshots replaced by a newer round of the same repo before they were written.", float64(ps.StateSavesCoalesced))
		metric("rustprobed_session_state_save_errors_total", "counter", "Failed persists of session state to the store.", float64(ps.StateSaveErrors))
		metric("rustprobed_session_global_facts_reused_total", "counter", "Per-function facts session rounds inherited from the previous round instead of rebuilding.", float64(ps.GlobalFactsReused))
		metric("rustprobed_session_graph_patched_total", "counter", "Session rounds whose call graph was patched from the previous round instead of rebuilt.", float64(ps.GraphPatchedRounds))
	}
	if len(st.DetectorMSTotal) > 0 {
		fmt.Fprintf(&b, "# HELP rustprobed_detector_wall_ms_total Cumulative wall time per detector pass (ms).\n")
		fmt.Fprintf(&b, "# TYPE rustprobed_detector_wall_ms_total counter\n")
		names := make([]string, 0, len(st.DetectorMSTotal))
		for name := range st.DetectorMSTotal {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "rustprobed_detector_wall_ms_total{detector=%q} %g\n", name, st.DetectorMSTotal[name])
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := fmt.Fprint(w, b.String()); err != nil {
		log.Printf("rustprobed: metrics write failed: %v", err)
	}
}

// writeJSON answers with v as compact JSON: clients parse the body, so
// no endpoint spends CPU or bytes on indentation.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The status header and any partial body are already on the
		// wire; logging is all that makes the truncation diagnosable.
		log.Printf("rustprobed: response encode failed (status=%d): %v", status, err)
	}
}

func writeError(w http.ResponseWriter, status int, msg, diags string) {
	writeJSON(w, status, errorResponse{Error: msg, Diagnostics: diags})
}
