package detect

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMemoComputesOncePerKey: concurrent callers for one key wait for a
// single computation and all receive its value.
func TestMemoComputesOncePerKey(t *testing.T) {
	var m memo[string, *int]
	var calls atomic.Int32
	const n = 16
	got := make([]*int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = m.get("k", func() *int {
				calls.Add(1)
				time.Sleep(5 * time.Millisecond) // hold the computation open
				v := 42
				return &v
			})
		}(i)
	}
	wg.Wait()
	if c := calls.Load(); c != 1 {
		t.Fatalf("compute ran %d times, want 1", c)
	}
	for i, p := range got {
		if p != got[0] || *p != 42 {
			t.Fatalf("caller %d got %p, want %p", i, p, got[0])
		}
	}
	if other := m.get("other", func() *int { v := 7; return &v }); *other != 7 {
		t.Fatalf("second key = %d, want 7", *other)
	}
}

// TestMemoPanicCachesNothing: a computation that panics leaves no value
// behind, so the next caller computes again instead of reading a nil.
func TestMemoPanicCachesNothing(t *testing.T) {
	var m memo[string, *int]
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic was swallowed")
			}
		}()
		m.get("k", func() *int { panic("boom") })
	}()
	calls := 0
	v := m.get("k", func() *int { calls++; x := 1; return &x })
	if v == nil || *v != 1 || calls != 1 {
		t.Fatalf("after a panic: value %v, %d computations; want 1 and 1", v, calls)
	}
	if again := m.get("k", func() *int { calls++; return nil }); again != v || calls != 1 {
		t.Fatal("value computed after the panic was not cached")
	}
}
