package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rustprobe/internal/incrstate"
	"rustprobe/internal/store"
)

func writeBehindEngine(t *testing.T) (*Engine, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir(), StoreVersion())
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Workers: 1, Store: st})
	t.Cleanup(e.Close)
	return e, st
}

// TestStorePutLatestWinsPerKey pins the write-behind contract for one
// key: a write queued behind an in-flight one is replaced by a newer
// write (its done sees ErrSuperseded), at most one write of the key is
// in flight, and the last write to land is the newest.
func TestStorePutLatestWinsPerKey(t *testing.T) {
	e, st := writeBehindEngine(t)
	const key = "k1"
	started, release := make(chan struct{}), make(chan struct{})
	var inFlight, maxInFlight atomic.Int32
	outcomes := make([]error, 4)
	var wg sync.WaitGroup
	write := func(i int, block bool) storeWrite {
		wg.Add(1)
		return storeWrite{
			encode: func() ([]byte, error) {
				n := inFlight.Add(1)
				defer inFlight.Add(-1)
				for {
					m := maxInFlight.Load()
					if n <= m || maxInFlight.CompareAndSwap(m, n) {
						break
					}
				}
				if block {
					close(started)
					<-release
				}
				return []byte(fmt.Sprintf(`{"round":%d}`, i)), nil
			},
			done: func(err error) {
				outcomes[i] = err
				wg.Done()
			},
		}
	}

	e.storePut(key, write(0, true))
	<-started // round 0 is being written
	for i := 1; i < 4; i++ {
		e.storePut(key, write(i, false))
	}
	close(release)
	wg.Wait()

	if outcomes[0] != nil || outcomes[3] != nil {
		t.Fatalf("first and last writes must land: outcomes %v", outcomes)
	}
	for i := 1; i < 3; i++ {
		if !errors.Is(outcomes[i], ErrSuperseded) {
			t.Fatalf("write %d queued behind a newer one: outcome %v, want ErrSuperseded", i, outcomes[i])
		}
	}
	if m := maxInFlight.Load(); m != 1 {
		t.Fatalf("%d writes of one key were in flight at once, want 1", m)
	}
	if got, ok := st.Get(key); !ok || string(got) != `{"round":3}` {
		t.Fatalf("stored %q (ok=%v), want the newest write", got, ok)
	}
	if n := st.Stats().Puts; n != 2 {
		t.Fatalf("%d puts, want 2 (the superseded writes are never written)", n)
	}
}

// TestStorePutWaitsOnFullQueue: with every writer blocked and the queue
// full, storePut makes its caller wait for a slot instead of returning,
// so the goroutines holding pending writes do not grow with the number
// of queued keys; once the writers are released every write lands.
func TestStorePutWaitsOnFullQueue(t *testing.T) {
	e, st := writeBehindEngine(t)
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseWriters := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(releaseWriters) // before the engine's Close, which waits for the writers
	started := make(chan struct{}, storeWriters)
	var outcomes sync.WaitGroup
	var failed atomic.Int32
	write := func(key string) storeWrite {
		outcomes.Add(1)
		return storeWrite{
			encode: func() ([]byte, error) {
				select {
				case started <- struct{}{}:
				default:
				}
				<-release
				return []byte(`"` + key + `"`), nil
			},
			done: func(err error) {
				if err != nil {
					failed.Add(1)
				}
				outcomes.Done()
			},
		}
	}

	// One blocked write per writer, then a full queue behind them.
	var keys []string
	put := func(key string) {
		keys = append(keys, key)
		e.storePut(key, write(key))
	}
	for i := 0; i < storeWriters; i++ {
		put(fmt.Sprintf("busy%d", i))
		<-started
	}
	for i := 0; i < storeQueue; i++ {
		put(fmt.Sprintf("queued%d", i))
	}

	const extra = 64
	base := runtime.NumGoroutine()
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		for i := 0; i < extra; i++ {
			put(fmt.Sprintf("extra%d", i))
		}
	}()
	full := "storePut returned although the queue was full and every writer blocked"
	for queued := false; !queued; runtime.Gosched() {
		select {
		case <-returned:
			t.Fatal(full)
		default:
		}
		e.putMu.Lock()
		_, queued = e.queued["extra0"]
		e.putMu.Unlock()
	}
	select {
	case <-returned:
		t.Fatal(full)
	case <-time.After(100 * time.Millisecond):
	}
	if n := runtime.NumGoroutine(); n > base+2 {
		t.Fatalf("%d goroutines while %d writes wait for a full queue, %d before", n, extra, base)
	}

	releaseWriters()
	<-returned
	outcomes.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d writes failed", n)
	}
	for _, key := range keys {
		if got, ok := st.Get(key); !ok || string(got) != `"`+key+`"` {
			t.Fatalf("%s holds %q (ok=%v) after the writers were released", key, got, ok)
		}
	}
}

// goroutineIn reports whether some goroutine's stack holds every one of
// frames, so a test can wait until a goroutine is parked where it wants.
func goroutineIn(frames ...string) bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
next:
	for _, g := range strings.Split(string(buf), "\n\n") {
		for _, f := range frames {
			if !strings.Contains(g, f) {
				continue next
			}
		}
		return true
	}
	return false
}

// TestCloseWithStoreWhileSubmitBlocked: Close returns while a caller
// with a context that never ends is blocked in submit on a full job
// queue, on a store-backed engine. That caller holds the admission read
// lock and Close waits for the write lock, so a worker whose write-behind
// put waited on the same lock would stop draining the queue and Close
// would never return.
func TestCloseWithStoreWhileSubmitBlocked(t *testing.T) {
	st, err := store.Open(t.TempDir(), StoreVersion())
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	defer openGate()
	e := New(Config{
		Workers:       1,
		QueueDepth:    1,
		CacheCapacity: -1,
		Store:         st,
		TestDetectHook: func(_ context.Context, req Request) {
			if _, ok := req.Files["held.rs"]; ok {
				<-gate
			}
		},
	})
	wait := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	var wg sync.WaitGroup
	analyze := func(name string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := Request{Files: map[string]string{name + ".rs": "// " + name + "\nfn f() {}\n"}}
			if _, err := e.Analyze(context.Background(), req); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}()
	}
	analyze("held")
	wait("the worker to hold a job", func() bool { return e.Stats().JobsInFlight == 1 })
	analyze("queued")
	wait("a full job queue", func() bool { return len(e.jobs) == 1 })
	analyze("blocked")
	wait("a caller blocked in submit", func() bool { return goroutineIn("engine.(*Engine).submit(") })

	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	wait("Close to wait for the admission lock", func() bool {
		return goroutineIn("sync.(*RWMutex).Lock(", "engine.(*Engine).Close(")
	})
	openGate()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return: the pool stopped draining while a submit was blocked")
	}
	wg.Wait()
	if n := st.Stats().Puts; n != 3 {
		t.Fatalf("store took %d puts by Close, want 3", n)
	}
}

// TestPersistStateRacesClose: a snapshot queued while Close runs is
// either stored, its done seeing nil, or refused with ErrClosed; the
// race never sends on the closed queue.
func TestPersistStateRacesClose(t *testing.T) {
	st, err := store.Open(t.TempDir(), StoreVersion())
	if err != nil {
		t.Fatal(err)
	}
	const rounds, writers = 20, 8
	for r := 0; r < rounds; r++ {
		e := New(Config{Workers: 1, Store: st})
		outcomes := make([]error, writers)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				key := fmt.Sprintf("r%dw%d", r, w)
				e.PersistState(key, &incrstate.State{Version: key}, func(err error) { outcomes[w] = err })
			}(w)
		}
		e.Close()
		wg.Wait()
		for w, err := range outcomes {
			key := fmt.Sprintf("r%dw%d", r, w)
			_, stored := st.Get(key)
			switch {
			case err == nil && !stored:
				t.Fatalf("%s reported stored but is not in the store", key)
			case errors.Is(err, ErrClosed) && stored:
				t.Fatalf("%s reported ErrClosed but was stored", key)
			case err != nil && !errors.Is(err, ErrClosed):
				t.Fatalf("%s: outcome %v, want nil or ErrClosed", key, err)
			}
		}
	}
}

// TestPersistStateFlushesOnClose: snapshots queued with PersistState are
// on disk once Close returns, the newest per key, and every queued
// snapshot reports exactly one outcome.
func TestPersistStateFlushesOnClose(t *testing.T) {
	e, st := writeBehindEngine(t)
	const rounds, keys = 40, 3
	var saved, superseded atomic.Int32
	done := func(err error) {
		switch {
		case err == nil:
			saved.Add(1)
		case errors.Is(err, ErrSuperseded):
			superseded.Add(1)
		default:
			t.Errorf("write failed: %v", err)
		}
	}
	state := func(k, r int) *incrstate.State {
		return &incrstate.State{Version: "v", Files: map[string]*incrstate.Sealed[incrstate.File]{
			fmt.Sprintf("k%d.rs", k): incrstate.Seal(incrstate.File{Content: fmt.Sprint(r)}),
		}}
	}
	for r := 0; r < rounds; r++ {
		for k := 0; k < keys; k++ {
			e.PersistState(fmt.Sprintf("key%d", k), state(k, r), done)
		}
	}
	e.Close()
	if got := saved.Load() + superseded.Load(); got != rounds*keys {
		t.Fatalf("%d outcomes for %d snapshots", got, rounds*keys)
	}
	for k := 0; k < keys; k++ {
		want, err := incrstate.Encode(state(k, rounds-1))
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := st.Get(fmt.Sprintf("key%d", k)); !ok || string(got) != string(want) {
			t.Fatalf("key%d holds %s after Close, want the last round %s", k, got, want)
		}
	}
}

// TestPersistStateWithoutStore: an engine without a store drops
// snapshots and never reports an outcome.
func TestPersistStateWithoutStore(t *testing.T) {
	e := New(Config{Workers: 1})
	e.PersistState("k", &incrstate.State{}, func(error) { t.Error("done called without a store") })
	e.Close()
	if e.Store() != nil {
		t.Fatal("Store() non-nil without a store")
	}
}

// TestPersistStateAfterClose: a snapshot queued after Close is refused
// with ErrClosed instead of racing the writers' shutdown.
func TestPersistStateAfterClose(t *testing.T) {
	e, st := writeBehindEngine(t)
	e.Close()
	var got error
	e.PersistState("late", &incrstate.State{Version: "v"}, func(err error) { got = err })
	if !errors.Is(got, ErrClosed) {
		t.Fatalf("outcome after Close = %v, want ErrClosed", got)
	}
	if _, ok := st.Get("late"); ok {
		t.Fatal("a snapshot queued after Close was written")
	}
}
