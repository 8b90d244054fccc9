package engine

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stats is a point-in-time snapshot of engine activity, cheap enough to
// serve from a hot /stats endpoint. Cumulative per-stage latencies are
// reported in milliseconds; divide by JobsCompleted for averages.
type Stats struct {
	Workers       int `json:"workers"`
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	// JobsInFlight, JobsCanceled, Panics and QueueRejected cover every
	// admitted job, session rounds (Do) included; JobsSubmitted,
	// JobsCompleted and JobsFailed count Analyze requests only.
	JobsInFlight  int64  `json:"jobs_in_flight"`
	JobsSubmitted uint64 `json:"jobs_submitted"`
	JobsCompleted uint64 `json:"jobs_completed"`
	JobsFailed    uint64 `json:"jobs_failed"`
	// JobsCanceled counts jobs abandoned by every waiter (timeout or
	// disconnect) before completion; their analysis work was skipped or
	// cut short at a detector boundary.
	JobsCanceled uint64 `json:"jobs_canceled"`
	// Panics counts analysis passes that panicked; each cost only its
	// own request (HTTP 500), never a pool worker.
	Panics uint64 `json:"panics"`
	// QueueRejected counts fast-fail ErrQueueFull rejections
	// (Config.QueueReject backpressure).
	QueueRejected uint64 `json:"queue_rejected"`
	// DedupHits counts submissions coalesced onto an identical
	// in-flight analysis (singleflight) instead of running their own.
	DedupHits uint64 `json:"dedup_hits"`

	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	CacheSize     int    `json:"cache_size"`
	CacheCapacity int    `json:"cache_capacity"`
	// CacheEntries mirrors CacheSize under the name the eviction metrics
	// use; CacheEvictions counts entries pushed out by LRU pressure
	// since start (0 until the working set exceeds CacheCapacity).
	CacheEntries   int    `json:"cache_entries"`
	CacheEvictions uint64 `json:"cache_evictions"`

	// Store* snapshot the persistent content-addressed tier (zero when
	// no store is configured). StoreHits are cold-start/replica hits
	// served from disk; StoreQuarantined counts corrupt, truncated, or
	// version-mismatched entries moved aside at read time.
	StoreHits        uint64 `json:"store_hits"`
	StoreMisses      uint64 `json:"store_misses"`
	StorePuts        uint64 `json:"store_puts"`
	StorePutErrors   uint64 `json:"store_put_errors"`
	StoreQuarantined uint64 `json:"store_quarantined"`
	StoreEntries     int64  `json:"store_entries"`

	// Batch API activity: whole-set submissions, per-file fan-out
	// volume and isolated per-file failures.
	BatchSubmitted  uint64 `json:"batch_submitted"`
	BatchFiles      uint64 `json:"batch_files"`
	BatchFileErrors uint64 `json:"batch_file_errors"`

	FrontendMSTotal   float64 `json:"frontend_ms_total"`
	DetectMSTotal     float64 `json:"detect_ms_total"`
	UnsafeScanMSTotal float64 `json:"unsafe_scan_ms_total"`
	AnalyzeMSTotal    float64 `json:"analyze_ms_total"`

	// DetectorMSTotal breaks DetectMSTotal down by detector name
	// (cumulative wall time per pass across all completed jobs).
	DetectorMSTotal map[string]float64 `json:"detector_ms_total"`
}

// counters is the engine-internal atomic backing for Stats.
type counters struct {
	inFlight      atomic.Int64
	submitted     atomic.Uint64
	completed     atomic.Uint64
	failed        atomic.Uint64
	canceled      atomic.Uint64
	panics        atomic.Uint64
	queueRejected atomic.Uint64
	dedupHits     atomic.Uint64

	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64

	batchSubmitted  atomic.Uint64
	batchFiles      atomic.Uint64
	batchFileErrors atomic.Uint64

	frontendNs atomic.Int64
	detectNs   atomic.Int64
	scanNs     atomic.Int64
	analyzeNs  atomic.Int64

	detectorMu sync.Mutex
	detectorNs map[string]int64
}

// addDetectorTimes folds one job's per-detector wall times into the
// cumulative breakdown.
func (c *counters) addDetectorTimes(times map[string]time.Duration) {
	if len(times) == 0 {
		return
	}
	c.detectorMu.Lock()
	defer c.detectorMu.Unlock()
	if c.detectorNs == nil {
		c.detectorNs = make(map[string]int64, len(times))
	}
	for name, d := range times {
		c.detectorNs[name] += int64(d)
	}
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Workers:       e.cfg.Workers,
		QueueDepth:    len(e.jobs),
		QueueCapacity: cap(e.jobs),
		JobsInFlight:  e.ctr.inFlight.Load(),
		JobsSubmitted: e.ctr.submitted.Load(),
		JobsCompleted: e.ctr.completed.Load(),
		JobsFailed:    e.ctr.failed.Load(),
		JobsCanceled:  e.ctr.canceled.Load(),
		Panics:        e.ctr.panics.Load(),
		QueueRejected: e.ctr.queueRejected.Load(),
		DedupHits:     e.ctr.dedupHits.Load(),
		CacheHits:     e.ctr.cacheHits.Load(),
		CacheMisses:   e.ctr.cacheMisses.Load(),

		BatchSubmitted:  e.ctr.batchSubmitted.Load(),
		BatchFiles:      e.ctr.batchFiles.Load(),
		BatchFileErrors: e.ctr.batchFileErrors.Load(),

		FrontendMSTotal:   float64(e.ctr.frontendNs.Load()) / 1e6,
		DetectMSTotal:     float64(e.ctr.detectNs.Load()) / 1e6,
		UnsafeScanMSTotal: float64(e.ctr.scanNs.Load()) / 1e6,
		AnalyzeMSTotal:    float64(e.ctr.analyzeNs.Load()) / 1e6,
	}
	e.ctr.detectorMu.Lock()
	if len(e.ctr.detectorNs) > 0 {
		s.DetectorMSTotal = make(map[string]float64, len(e.ctr.detectorNs))
		for name, ns := range e.ctr.detectorNs {
			s.DetectorMSTotal[name] = float64(ns) / 1e6
		}
	}
	e.ctr.detectorMu.Unlock()
	if e.cache != nil {
		s.CacheSize = e.cache.len()
		s.CacheEntries = s.CacheSize
		s.CacheCapacity = e.cache.cap
		s.CacheEvictions = e.cache.evicted()
	}
	if st := e.cfg.Store; st != nil {
		ss := st.Stats()
		s.StoreHits = ss.Hits
		s.StoreMisses = ss.Misses
		s.StorePuts = ss.Puts
		s.StorePutErrors = ss.PutErrors
		s.StoreQuarantined = ss.Quarantined
		s.StoreEntries = ss.Entries
	}
	return s
}
