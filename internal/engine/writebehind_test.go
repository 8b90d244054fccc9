package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

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

// TestStorePutOverflowsFullQueue: when the queue has no room for a key,
// storePut hands it to a goroutine of its own, which writes it as a
// writer would and which the store wait group covers.
func TestStorePutOverflowsFullQueue(t *testing.T) {
	st, err := store.Open(t.TempDir(), StoreVersion())
	if err != nil {
		t.Fatal(err)
	}
	// No writers and an unbuffered queue: every send finds it full.
	e := &Engine{cfg: Config{Store: st}, puts: make(chan string), queued: map[string]storeWrite{}, writing: map[string]bool{}}
	outcome := errors.New("no outcome")
	e.storePut("k", storeWrite{
		encode: func() ([]byte, error) { return []byte(`{"v":1}`), nil },
		done:   func(err error) { outcome = err },
	})
	e.storeWG.Wait()
	if outcome != nil {
		t.Fatalf("overflow put outcome: %v", outcome)
	}
	if got, ok := st.Get("k"); !ok || string(got) != `{"v":1}` {
		t.Fatalf("stored %q (ok=%v), want the overflow write", got, ok)
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
