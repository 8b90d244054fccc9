// Package sessionpool holds live rustprobe.Sessions keyed by repository
// name — the daemon's stateful tier. Where the engine's caches make
// identical content cheap, the pool makes *evolving* content cheap: a CI
// fleet re-pushing a tree with a 1-file diff hits the repo's live
// session and pays one dirty-closure detection instead of a per-file
// cache sweep.
//
// Concurrency contract: pushes to the same repo serialize on the
// session entry's lock (a session round mutates shared reuse state;
// interleaving two rounds would diff against a moving base), while
// pushes to distinct repos run in parallel. A round takes the entry lock
// first and only then submits itself to the engine's worker pool, so
// rounds get the engine's admission rules (closed check, queue bound and
// ErrQueueFull backpressure, skip-if-cancelled, panic recovery into
// *engine.InternalError) and pushes queued behind the same repo never
// park a worker. The pool lock guards only the entry table and is never
// held across an analysis round.
//
// Lifecycle: entries are created on first push, touched on every push,
// and evicted LRU once the pool exceeds MaxSessions or idle past
// IdleTTL — but never while a push holds a reference. When the engine
// has a persistent store, every successful round hands the session's
// exported state (the shared incrstate codec, same format as the CLI's
// .rustprobe-state.json) to the engine's write-behind writers: the push
// returns without waiting for the encode or the disk, a newer snapshot
// of the same repo replaces one still queued (latest wins), and
// Pool.Close followed by Engine.Close flushes what is pending. An
// evicted or restarted session's next push restores hashes + findings
// from disk and still runs only the dirty closure. A snapshot older
// than the last round (lost to a crash before the flush) costs work,
// not correctness: the restore treats every function whose body or
// position differs from the snapshot as dirty, and any structural drift
// means a full round. A corrupt, stale, or version-bumped snapshot only
// costs that one push a full round.
package sessionpool

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"rustprobe"
	"rustprobe/internal/engine"
	"rustprobe/internal/incrstate"
)

// ErrNoSession is returned for a diff push to a repo the pool holds no
// live session for (never pushed, evicted, or daemon restarted): a diff
// needs a base tree to apply against, so the client must re-push the
// full file map.
var ErrNoSession = errors.New("sessionpool: no live session for repo; push the full file map")

// ErrClosed is returned for pushes after Close.
var ErrClosed = errors.New("sessionpool: pool is closed")

// DefaultMaxSessions bounds the pool when Config.MaxSessions is unset.
const DefaultMaxSessions = 64

// Config parameterizes a Pool.
type Config struct {
	// MaxSessions caps live sessions; past it the least-recently-used
	// idle entry is evicted. 0 means DefaultMaxSessions.
	MaxSessions int

	// IdleTTL evicts sessions idle longer than this. 0 disables TTL
	// eviction.
	IdleTTL time.Duration

	// Precise selects path-sensitive sessions (rustprobe.NewPreciseSession).
	Precise bool

	// Now is the clock (tests tighten TTL races with it); nil means
	// time.Now.
	Now func() time.Time

	// TestRoundHook, when set, is called at the start of every analysis
	// round, on the engine worker while the entry lock is held; the
	// returned func runs at round end. Tests use it to assert same-repo
	// serialization and to inject panics and stalls into a round.
	TestRoundHook func(repo string) func()
}

// Stats is a point-in-time snapshot of pool counters.
type Stats struct {
	Live              int    `json:"live"`
	Pushes            uint64 `json:"pushes"`
	Hits              uint64 `json:"hits"`
	Misses            uint64 `json:"misses"`
	Restores          uint64 `json:"restores"`
	EvictionsLRU      uint64 `json:"evictions_lru"`
	EvictionsTTL      uint64 `json:"evictions_ttl"`
	FullRounds        uint64 `json:"full_rounds"`
	IncrementalRounds uint64 `json:"incremental_rounds"`
	RootsDetected     uint64 `json:"roots_detected"`
	FindingsReplayed  uint64 `json:"findings_replayed"`
	StateSaveErrors   uint64 `json:"state_save_errors"`

	// StateSaves counts session snapshots written to the store;
	// StateSavesCoalesced counts snapshots a newer round of the same
	// repo replaced before they were written. Every round queues one
	// snapshot, which ends in exactly one of these two counters or in
	// StateSaveErrors.
	StateSaves          uint64 `json:"state_saves"`
	StateSavesCoalesced uint64 `json:"state_saves_coalesced"`

	// GlobalFactsReused sums, over all rounds, the per-function facts
	// rounds inherited from the previous round instead of rebuilding;
	// GraphPatchedRounds counts rounds whose call graph was patched from
	// the previous round instead of rebuilt.
	GlobalFactsReused  uint64 `json:"global_facts_reused"`
	GraphPatchedRounds uint64 `json:"graph_patched_rounds"`
}

// PushStats is the per-round stat block a push returns: the session's
// own round stats (dirty-closure size in RootsDetected, replayed
// findings in FindingsReused, ...) plus pool-level context.
type PushStats struct {
	rustprobe.UpdateStats

	// SessionHit marks a push served by an already-live session.
	SessionHit bool `json:"session_hit"`
}

// Result is one successful push: resolved findings (position-
// materialized, sorted) and the round's stats.
type Result struct {
	Findings []incrstate.Finding `json:"findings"`
	Stats    PushStats           `json:"stats"`
}

type entry struct {
	repo string

	// mu serializes analysis rounds for this repo. Held across the whole
	// round (restore, analyze, persist) — that is the single-writer
	// guarantee.
	mu           sync.Mutex
	sess         *rustprobe.Session
	src          map[string]string // last successfully pushed tree (diff base)
	restoreTried bool

	// Guarded by the pool lock, not mu:
	lastUsed time.Time
	refs     int
}

// Pool is a repo-keyed session pool. Safe for concurrent use.
type Pool struct {
	cfg Config
	eng *engine.Engine

	mu      sync.Mutex
	entries map[string]*entry
	closed  bool

	pushes              atomic.Uint64
	hits                atomic.Uint64
	misses              atomic.Uint64
	restores            atomic.Uint64
	evictionsLRU        atomic.Uint64
	evictionsTTL        atomic.Uint64
	fullRounds          atomic.Uint64
	incrementalRounds   atomic.Uint64
	rootsDetected       atomic.Uint64
	findingsReplayed    atomic.Uint64
	stateSaveErrors     atomic.Uint64
	stateSaves          atomic.Uint64
	stateSavesCoalesced atomic.Uint64
	globalFactsReused   atomic.Uint64
	graphPatchedRounds  atomic.Uint64
}

// New builds a pool from cfg whose rounds run on eng's workers.
func New(eng *engine.Engine, cfg Config) *Pool {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Pool{cfg: cfg, eng: eng, entries: make(map[string]*entry)}
}

// SessionKey names a repo's persisted session state in the store. The
// repo name is hashed (store keys have a restricted alphabet; repo
// names don't) under a fixed domain prefix so session snapshots can
// never collide with the engine's content-addressed result entries.
func SessionKey(repo string) string {
	sum := sha256.Sum256([]byte("session\x00" + repo))
	return "sess-" + hex.EncodeToString(sum[:])
}

// Push runs one session round for repo over the full file map and
// returns the resolved findings plus round stats. Concurrent pushes to
// the same repo serialize; distinct repos run in parallel.
func (p *Pool) Push(ctx context.Context, repo string, files map[string]string) (*Result, error) {
	if repo == "" {
		return nil, errors.New("sessionpool: empty repo name")
	}
	// The session retains the submitted map as its diff base; copy so a
	// caller mutating its map can't corrupt later rounds.
	owned := make(map[string]string, len(files))
	for k, v := range files {
		owned[k] = v
	}
	return p.run(ctx, repo, func(e *entry) (map[string]string, error) {
		return owned, nil
	})
}

// PushDiff runs one round over the last successfully pushed tree with
// changed overlaid and removed deleted. Without a live session (first
// push, eviction, restart) it fails with ErrNoSession: the diff base is
// the daemon's in-memory tree, which no longer exists.
func (p *Pool) PushDiff(ctx context.Context, repo string, changed map[string]string, removed []string) (*Result, error) {
	if repo == "" {
		return nil, errors.New("sessionpool: empty repo name")
	}
	return p.run(ctx, repo, func(e *entry) (map[string]string, error) {
		if e.src == nil {
			return nil, ErrNoSession
		}
		files := make(map[string]string, len(e.src)+len(changed))
		for k, v := range e.src {
			files[k] = v
		}
		for k, v := range changed {
			files[k] = v
		}
		for _, k := range removed {
			delete(files, k)
		}
		return files, nil
	})
}

// run is the shared push core: acquire/create the entry, run one round
// on it, release. A failed round (including a panic, which the engine
// turns into *engine.InternalError) still releases the entry, so it stays
// evictable. Eviction runs on both acquire and release, so the cap holds
// once pushes drain even when every excess entry was busy at acquire.
func (p *Pool) run(ctx context.Context, repo string, mkFiles func(*entry) (map[string]string, error)) (*Result, error) {
	now := p.cfg.Now()

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	e, hit := p.entries[repo]
	if !hit {
		e = &entry{repo: repo, lastUsed: now}
		if p.cfg.Precise {
			e.sess = rustprobe.NewPreciseSession()
		} else {
			e.sess = rustprobe.NewSession()
		}
		p.entries[repo] = e
		p.misses.Add(1)
	} else {
		p.hits.Add(1)
	}
	e.refs++
	e.lastUsed = now
	p.evictLocked(now)
	p.mu.Unlock()

	defer func() {
		p.mu.Lock()
		e.refs--
		e.lastUsed = p.cfg.Now()
		// Entries that were mid-push when the cap was last enforced are
		// evictable now.
		p.evictLocked(e.lastUsed)
		p.mu.Unlock()
	}()

	p.pushes.Add(1)
	res, err := p.round(ctx, e, mkFiles)

	if res != nil {
		res.Stats.SessionHit = hit
	}
	return res, err
}

// round serializes on the entry lock, then runs the round as one engine
// job.
func (p *Pool) round(ctx context.Context, e *entry, mkFiles func(*entry) (map[string]string, error)) (*Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var res *Result
	err := p.eng.Do(ctx, func(ctx context.Context) error {
		if p.cfg.TestRoundHook != nil {
			done := p.cfg.TestRoundHook(e.repo)
			defer done()
		}
		var err error
		res, err = p.analyze(ctx, e, mkFiles)
		return err
	})
	return res, err
}

// analyze is one round's work on an engine worker: restore, analyze,
// persist. The session leaves its state untouched on failure, and e.src
// moves only after a successful round.
func (p *Pool) analyze(ctx context.Context, e *entry, mkFiles func(*entry) (map[string]string, error)) (*Result, error) {
	// First round of this entry: seed from the persisted snapshot, if
	// any. Decode failures (corrupt payload past the store's checksum,
	// stale version) and Restore refusals just mean a full round.
	if !e.restoreTried {
		e.restoreTried = true
		if store := p.eng.Store(); store != nil {
			if payload, ok := store.Get(SessionKey(e.repo)); ok {
				if st := incrstate.Decode(payload, rustprobe.StateVersion()); st != nil {
					if err := e.sess.Restore(st); err == nil {
						p.restores.Add(1)
					}
				}
			}
		}
	}

	files, err := mkFiles(e)
	if err != nil {
		return nil, err
	}
	up, err := e.sess.AnalyzeCtx(ctx, files)
	if err != nil {
		return nil, err
	}
	e.src = files

	if up.Stats.Full {
		p.fullRounds.Add(1)
	} else {
		p.incrementalRounds.Add(1)
	}
	p.rootsDetected.Add(uint64(up.Stats.RootsDetected))
	p.findingsReplayed.Add(uint64(up.Stats.FindingsReused))
	p.globalFactsReused.Add(uint64(up.Stats.GlobalFactsReused))
	if up.Stats.GraphPatched {
		p.graphPatchedRounds.Add(1)
	}

	// Persist write-behind. This runs inside the round's engine job, so
	// the snapshot is queued before Engine.Close stops the writers. An
	// unsaveable state only degrades the next epoch's first push to a
	// full round, so it is counted, not fatal.
	if p.eng.Store() != nil {
		if st := e.sess.ExportState(); st != nil {
			p.eng.PersistState(SessionKey(e.repo), st, p.saved)
		}
	}

	return &Result{Findings: up.Resolved, Stats: PushStats{UpdateStats: up.Stats}}, nil
}

// saved counts one snapshot's write-behind outcome.
func (p *Pool) saved(err error) {
	switch {
	case err == nil:
		p.stateSaves.Add(1)
	case errors.Is(err, engine.ErrSuperseded):
		p.stateSavesCoalesced.Add(1)
	default:
		p.stateSaveErrors.Add(1)
	}
}

// evictLocked enforces TTL then the LRU cap. Callers hold p.mu. Entries
// with in-flight pushes (refs > 0) are never evicted — eviction would
// not abort their round anyway, and re-creating the entry concurrently
// would break same-repo serialization.
func (p *Pool) evictLocked(now time.Time) {
	if p.cfg.IdleTTL > 0 {
		for repo, e := range p.entries {
			if e.refs == 0 && now.Sub(e.lastUsed) > p.cfg.IdleTTL {
				delete(p.entries, repo)
				p.evictionsTTL.Add(1)
			}
		}
	}
	for len(p.entries) > p.cfg.MaxSessions {
		var oldest *entry
		for _, e := range p.entries {
			if e.refs > 0 {
				continue
			}
			if oldest == nil || e.lastUsed.Before(oldest.lastUsed) {
				oldest = e
			}
		}
		if oldest == nil {
			return // every excess entry is mid-push; retry on the next push
		}
		delete(p.entries, oldest.repo)
		p.evictionsLRU.Add(1)
	}
}

// Len reports the number of live sessions.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	live := len(p.entries)
	p.mu.Unlock()
	return Stats{
		Live:                live,
		Pushes:              p.pushes.Load(),
		Hits:                p.hits.Load(),
		Misses:              p.misses.Load(),
		Restores:            p.restores.Load(),
		EvictionsLRU:        p.evictionsLRU.Load(),
		EvictionsTTL:        p.evictionsTTL.Load(),
		FullRounds:          p.fullRounds.Load(),
		IncrementalRounds:   p.incrementalRounds.Load(),
		RootsDetected:       p.rootsDetected.Load(),
		FindingsReplayed:    p.findingsReplayed.Load(),
		StateSaveErrors:     p.stateSaveErrors.Load(),
		StateSaves:          p.stateSaves.Load(),
		StateSavesCoalesced: p.stateSavesCoalesced.Load(),
		GlobalFactsReused:   p.globalFactsReused.Load(),
		GraphPatchedRounds:  p.graphPatchedRounds.Load(),
	}
}

// Close rejects further pushes and drops the entry table. In-flight
// rounds finish normally (their entries are simply no longer reachable)
// and queue their snapshots like any other round. Close does not wait
// for the store: snapshots are written by the engine's write-behind
// writers, and Engine.Close, called after Close, flushes them.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.entries = make(map[string]*entry)
}
