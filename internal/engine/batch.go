package engine

import (
	"context"
	"errors"
	"sort"
	"time"

	"rustprobe"
)

// BatchRequest is one repo-shaped unit of traffic: many named files
// analyzed independently in a single call. Each file becomes its own
// engine job with its own content-hash cache key, so an unchanged file
// in a re-pushed tree is a cache (or store) hit even when its siblings
// changed.
type BatchRequest struct {
	Files     map[string]string `json:"files"`
	Detectors []string          `json:"detectors,omitempty"`
	// Precise selects the path-sensitive detector variants for every file
	// in the set; like Detectors it is part of every per-file cache key.
	Precise bool `json:"precise,omitempty"`
}

// SyntaxErrorMessage is the one-line error every serving path reports
// for a *rustprobe.SyntaxError; the rendered diagnostics travel in a
// separate field.
const SyntaxErrorMessage = "sources failed to parse or resolve"

// Batch error kinds, classifying per-file failures for clients deciding
// whether to retry.
const (
	BatchErrSource   = "source"   // syntax errors: deterministic, do not retry
	BatchErrRequest  = "request"  // invalid sub-request: deterministic
	BatchErrOverload = "overload" // queue full / shutting down: retry later
	BatchErrCanceled = "canceled" // the batch's context expired mid-set
	BatchErrInternal = "internal" // analysis panicked on this file
)

// BatchEntry is one file's isolated result: either findings or an
// error, never both. One unparseable (or panicking) file costs only its
// own entry — every other file in the set still gets its result.
type BatchEntry struct {
	Findings []Finding     `json:"findings,omitempty"`
	Unsafe   UnsafeSummary `json:"unsafe"`
	CacheHit bool          `json:"cache_hit"`
	StoreHit bool          `json:"store_hit,omitempty"`

	Error       string `json:"error,omitempty"`
	ErrorKind   string `json:"error_kind,omitempty"`
	Diagnostics string `json:"diagnostics,omitempty"`
}

// BatchResponse maps each submitted file name to its isolated result.
type BatchResponse struct {
	Results map[string]*BatchEntry `json:"results"`
	Files   int                    `json:"files"`
	Errors  int                    `json:"errors"`
	Elapsed time.Duration          `json:"-"`
}

// batchEntryFor maps one sub-analysis outcome onto an isolated entry.
func batchEntryFor(resp *Response, err error) *BatchEntry {
	if err == nil {
		return &BatchEntry{
			Findings: resp.Findings,
			Unsafe:   resp.Unsafe,
			CacheHit: resp.CacheHit,
			StoreHit: resp.StoreHit,
		}
	}
	e := &BatchEntry{Error: err.Error()}
	var reqErr *RequestError
	var synErr *rustprobe.SyntaxError
	switch {
	case errors.As(err, &synErr):
		e.Error = SyntaxErrorMessage
		e.ErrorKind = BatchErrSource
		e.Diagnostics = synErr.Diags
	case errors.As(err, &reqErr):
		e.ErrorKind = BatchErrRequest
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed):
		e.ErrorKind = BatchErrOverload
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		e.ErrorKind = BatchErrCanceled
	default:
		e.ErrorKind = BatchErrInternal
	}
	return e
}

// AnalyzeBatch analyzes every file in the request independently and
// returns one response with per-file findings and per-file error
// isolation. Each file rides the normal single-file path — content-hash
// LRU + persistent store lookup, singleflight dedup against identical
// concurrent submissions (including duplicates inside one fleet's
// burst), queue backpressure, and cancellation — so the semantics under
// load are exactly the engine's: resubmitting an unchanged tree runs no
// new analysis, and every entry reports cache_hit.
//
// The batch fails as a whole only for malformed requests (nil/empty
// Files, unknown detector) or when ctx dies; per-file problems are
// reported in their entries.
func (e *Engine) AnalyzeBatch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	start := time.Now()
	if len(req.Files) == 0 {
		return nil, &RequestError{"empty batch: provide files"}
	}
	// Detector names gate the whole batch: a typo should be a 400, not
	// len(Files) identical per-file errors.
	if err := validate(Request{Files: map[string]string{"probe.rs": ""}, Detectors: req.Detectors}); err != nil {
		return nil, err
	}
	e.ctr.batchSubmitted.Add(1)

	names := make([]string, 0, len(req.Files))
	for n := range req.Files {
		names = append(names, n)
	}
	sort.Strings(names)

	// Fan out with bounded concurrency: enough to fill the pool, never
	// so much that one huge batch floods the queue past the backpressure
	// limit for everyone else.
	maxConc := e.cfg.Workers
	if maxConc > len(names) {
		maxConc = len(names)
	}
	if maxConc < 1 {
		maxConc = 1
	}
	sem := make(chan struct{}, maxConc)
	entries := make([]*BatchEntry, len(names))
	done := make(chan int, len(names))
	for i, name := range names {
		sem <- struct{}{}
		go func(i int, name string) {
			defer func() { <-sem; done <- i }()
			resp, err := e.Analyze(ctx, Request{
				Files:     map[string]string{name: req.Files[name]},
				Detectors: req.Detectors,
				Precise:   req.Precise,
			})
			entries[i] = batchEntryFor(resp, err)
		}(i, name)
	}
	for range names {
		<-done
	}
	if err := ctx.Err(); err != nil {
		// The whole batch's budget expired; a partial map would be
		// mistaken for a complete answer.
		return nil, err
	}

	resp := &BatchResponse{Results: make(map[string]*BatchEntry, len(names)), Files: len(names)}
	for i, name := range names {
		resp.Results[name] = entries[i]
		if entries[i].Error != "" {
			resp.Errors++
		}
	}
	e.ctr.batchFiles.Add(uint64(len(names)))
	e.ctr.batchFileErrors.Add(uint64(resp.Errors))
	resp.Elapsed = time.Since(start)
	return resp, nil
}
