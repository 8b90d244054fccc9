package sessionpool

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolConcurrentStress is the pool's -race gauntlet: 16 clients
// interleave pushes to a handful of repo keys (heavy same-repo
// contention plus distinct-repo parallelism) while a tiny LRU cap and a
// racing TTL clock force evictions against in-flight pushes.
//
// Three invariants:
//
//  1. Serialized same-repo rounds — at no instant do two analysis
//     rounds for one repo run concurrently (checked by a per-repo
//     in-round counter from the round hook, which fires under the
//     entry lock).
//  2. No torn Updates — every response's findings must byte-match one
//     of the per-variant full-analysis oracles; a response assembled
//     from two interleaved rounds' state would match neither. Clients
//     also mutate the returned slices afterwards, which must not
//     corrupt other clients' responses (the defensive-copy contract).
//  3. The pool survives: no deadlock (the test finishes), no lost
//     counters (pushes == successes since every push here is valid).
func TestPoolConcurrentStress(t *testing.T) {
	const (
		clients = 16
		rounds  = 12
		repos   = 5
	)

	// Two content variants per repo; each has a distinct planted-bug mix
	// so a torn merge of variant A's replayed findings with variant B's
	// fresh ones cannot accidentally equal either oracle.
	variant := func(repo, v int) map[string]string {
		util := uafSrc
		if v == 1 {
			// Body-only edit that fixes the UAF: the deref moves before
			// the drop, so variant 1's oracle has strictly fewer findings.
			util = strings.Replace(util, "drop(v);\n    unsafe { let x = *p; }", "unsafe { let x = *p; }\n    drop(v);", 1)
		}
		return map[string]string{
			fmt.Sprintf("r%d_util.rs", repo): util,
			fmt.Sprintf("r%d_lib.rs", repo):  dlockSrc,
		}
	}

	oracles := make(map[int][2]string, repos)
	for r := 0; r < repos; r++ {
		var pair [2]string
		for v := 0; v < 2; v++ {
			pair[v] = mustJSON(t, oracleFindings(t, variant(r, v)))
		}
		if pair[0] == pair[1] {
			t.Fatal("test invariant: variants must have distinguishable findings")
		}
		oracles[r] = pair
	}

	// Wall clock advanced atomically by a dedicated goroutine so TTL
	// expiry races live pushes.
	var clockNs atomic.Int64
	clockNs.Store(time.Now().UnixNano())

	inRound := make([]atomic.Int32, repos)
	var maxConcurrentDistinct atomic.Int32
	var active atomic.Int32
	p := New(testEngine(t), Config{
		MaxSessions: 3, // < repos: constant LRU pressure
		IdleTTL:     2 * time.Millisecond,
		Now:         func() time.Time { return time.Unix(0, clockNs.Load()) },
		TestRoundHook: func(repo string) func() {
			var r int
			fmt.Sscanf(repo, "stress-%d", &r)
			if n := inRound[r].Add(1); n > 1 {
				t.Errorf("repo %s: %d rounds in flight at once", repo, n)
			}
			if a := active.Add(1); a > maxConcurrentDistinct.Load() {
				maxConcurrentDistinct.Store(a)
			}
			return func() {
				active.Add(-1)
				inRound[r].Add(-1)
			}
		},
	})

	stopClock := make(chan struct{})
	var clockWG sync.WaitGroup
	clockWG.Add(1)
	go func() {
		defer clockWG.Done()
		for {
			select {
			case <-stopClock:
				return
			default:
				clockNs.Add(int64(time.Millisecond))
			}
		}
	}()

	ctx := context.Background()
	var wg sync.WaitGroup
	var pushesOK atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				r := (c + i) % repos
				v := (c + i) % 2
				repo := fmt.Sprintf("stress-%d", r)
				res, err := p.Push(ctx, repo, variant(r, v))
				if err != nil {
					t.Errorf("client %d round %d: %v", c, i, err)
					return
				}
				got := mustJSON(t, res.Findings)
				want := oracles[r]
				if got != want[v] {
					t.Errorf("client %d round %d repo %s variant %d: torn or wrong findings\n got: %s\nwant: %s",
						c, i, repo, v, got, want[v])
					return
				}
				// Exercise the caller-owned contract: trash the response.
				for j := range res.Findings {
					res.Findings[j].Message = "mutated"
					res.Findings[j].Notes = append(res.Findings[j].Notes, "mutated")
				}
				pushesOK.Add(1)
			}
		}(c)
	}
	wg.Wait()
	close(stopClock)
	clockWG.Wait()

	st := p.Stats()
	if got, want := pushesOK.Load(), int64(clients*rounds); got != want {
		t.Fatalf("completed %d of %d pushes", got, want)
	}
	if st.Pushes != uint64(clients*rounds) {
		t.Fatalf("pool counted %d pushes, want %d", st.Pushes, clients*rounds)
	}
	if st.Live > 3 {
		t.Fatalf("pool exceeded MaxSessions: %+v", st)
	}
	if st.EvictionsLRU == 0 {
		t.Fatalf("stress never hit LRU eviction (cap 3, %d repos): %+v", repos, st)
	}
	t.Logf("stress: %+v, max concurrent distinct-repo rounds %d", st, maxConcurrentDistinct.Load())
}

// TestPoolDistinctReposRunInParallel pins the other half of the locking
// contract: two pushes to different repos must be able to overlap. A
// rendezvous in the round hook forces the overlap — if pool-level
// locking serialized distinct repos, both pushes would block in the
// hook forever (guarded by a timeout).
func TestPoolDistinctReposRunInParallel(t *testing.T) {
	barrier := make(chan struct{})
	arrived := make(chan string, 2)
	p := New(testEngine(t), Config{
		TestRoundHook: func(repo string) func() {
			arrived <- repo
			<-barrier
			return func() {}
		},
	})
	tree := func(n string) map[string]string {
		return map[string]string{n + ".rs": "fn " + n + "() {}\n"}
	}
	var wg sync.WaitGroup
	for _, repo := range []string{"par-a", "par-b"} {
		wg.Add(1)
		go func(repo string) {
			defer wg.Done()
			if _, err := p.Push(context.Background(), repo, tree(strings.ReplaceAll(repo, "-", "_"))); err != nil {
				t.Error(err)
			}
		}(repo)
	}
	seen := map[string]bool{}
	timeout := time.After(10 * time.Second)
	for len(seen) < 2 {
		select {
		case r := <-arrived:
			seen[r] = true
		case <-timeout:
			t.Fatalf("distinct repos did not reach their rounds concurrently (saw %v)", seen)
		}
	}
	close(barrier)
	wg.Wait()
}
