package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func key(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	k := key("a")
	payload := []byte(`{"findings":[],"unsafe":{"regions":1}}`)
	if _, ok := s.Get(k); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok || string(got) != string(payload) {
		t.Fatalf("got %q ok=%v, want payload back", got, ok)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEntriesSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, "v1")
	for i := 0; i < 5; i++ {
		if err := s.Put(key(fmt.Sprint(i)), []byte(`{"i":true}`)); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 5 {
		t.Fatalf("reopened Len = %d, want 5", s2.Len())
	}
	for i := 0; i < 5; i++ {
		if _, ok := s2.Get(key(fmt.Sprint(i))); !ok {
			t.Fatalf("entry %d lost across reopen", i)
		}
	}
}

// corruptEntry rewrites the stored file for key k via fn.
func corruptEntry(t *testing.T, s *Store, k string, fn func([]byte) []byte) {
	t.Helper()
	p := s.path(k)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, fn(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func quarantineCount(t *testing.T, s *Store) int {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(s.dir, quarantineDir))
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

func TestTruncatedEntryQuarantinedAtOpen(t *testing.T) {
	s, _ := Open(t.TempDir(), "v1")
	k := key("t")
	if err := s.Put(k, []byte(`{"big":"payload that will be torn"}`)); err != nil {
		t.Fatal(err)
	}
	corruptEntry(t, s, k, func(b []byte) []byte { return b[:len(b)/2] })
	if _, ok := s.Get(k); ok {
		t.Fatal("truncated entry served")
	}
	if got := s.Stats().Quarantined; got != 1 {
		t.Fatalf("quarantined = %d, want 1", got)
	}
	if quarantineCount(t, s) != 1 {
		t.Fatal("truncated entry not moved to quarantine dir")
	}
	// The poison entry is gone: the next read is a plain miss, and a
	// fresh put re-establishes the key.
	if _, ok := s.Get(k); ok {
		t.Fatal("quarantined entry still readable")
	}
	if err := s.Put(k, []byte(`{"fresh":true}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); !ok {
		t.Fatal("re-put after quarantine missed")
	}
}

func TestCorruptPayloadQuarantined(t *testing.T) {
	s, _ := Open(t.TempDir(), "v1")
	k := key("c")
	if err := s.Put(k, []byte(`{"value":12345}`)); err != nil {
		t.Fatal(err)
	}
	// Flip payload bytes but keep the JSON well-formed: checksum catches it.
	corruptEntry(t, s, k, func(b []byte) []byte {
		return []byte(strings.Replace(string(b), "12345", "54321", 1))
	})
	if _, ok := s.Get(k); ok {
		t.Fatal("checksum-mismatched entry served")
	}
	if got := s.Stats().Quarantined; got != 1 {
		t.Fatalf("quarantined = %d, want 1", got)
	}
	if got := s.Stats().Entries; got != 0 {
		t.Fatalf("entries = %d after quarantining the only entry, want 0", got)
	}
}

// TestQuarantineEntriesCounterNeverNegative: quarantining an entry this
// handle never counted (dropped into the directory after Open, e.g. by a
// concurrent handle) must not drive the entries counter negative, and a
// quarantine that loses the file-removal race must not decrement at all.
func TestQuarantineEntriesCounterNeverNegative(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "v1") // empty: this handle counted 0 entries
	if err != nil {
		t.Fatal(err)
	}
	k := key("planted")
	if err := os.MkdirAll(filepath.Dir(s.path(k)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(k), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("corrupt planted entry served")
	}
	st := s.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", st.Quarantined)
	}
	if st.Entries < 0 {
		t.Fatalf("entries = %d, went negative", st.Entries)
	}

	// Losing the quarantine race entirely (file already gone) leaves the
	// counter untouched.
	if err := s.Put(key("real"), []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().Entries
	s.quarantine(key("ghost"), s.path(key("ghost")), "corrupt")
	if got := s.Stats().Entries; got != before {
		t.Fatalf("entries = %d after no-op quarantine, want %d", got, before)
	}
}

func TestVersionMismatchQuarantined(t *testing.T) {
	dir := t.TempDir()
	old, _ := Open(dir, "detectors-v1")
	k := key("v")
	if err := old.Put(k, []byte(`{"stale":true}`)); err != nil {
		t.Fatal(err)
	}
	// A new analyzer release opens the same directory: the old entry
	// must self-invalidate, not be served.
	s, err := Open(dir, "detectors-v2")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("stale-version entry served")
	}
	st := s.Stats()
	if st.Quarantined != 1 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 1 quarantine and no hits", st)
	}
	// The key is writable again under the new version.
	if err := s.Put(k, []byte(`{"fresh":true}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); !ok {
		t.Fatal("fresh entry missed after version quarantine")
	}
}

func TestOpenSweepsAbandonedTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, "v1")
	k := key("x")
	if err := s.Put(k, []byte(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	// Simulate a writer that crashed mid-Put: a temp file in the shard.
	shard := filepath.Dir(s.path(k))
	tmp := filepath.Join(shard, tmpPrefix+"crashed")
	if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if _, statErr := os.Stat(tmp); !os.IsNotExist(statErr) {
		t.Fatal("abandoned temp file survived reopen")
	}
	if s2.Len() != 1 {
		t.Fatalf("Len = %d after sweep, want 1 (temp files are not entries)", s2.Len())
	}
	if _, ok := s2.Get(k); !ok {
		t.Fatal("real entry lost by sweep")
	}
}

func TestOpenNeverFailsOnJunkDirectory(t *testing.T) {
	dir := t.TempDir()
	// Junk: a stray file at the root, a shard full of garbage.
	os.WriteFile(filepath.Join(dir, "README"), []byte("not an entry"), 0o644)
	os.MkdirAll(filepath.Join(dir, "ab"), 0o755)
	os.WriteFile(filepath.Join(dir, "ab", "abnotakeyatall"), []byte("garbage"), 0o644)
	s, err := Open(dir, "v1")
	if err != nil {
		t.Fatalf("Open failed on junk directory: %v", err)
	}
	if _, ok := s.Get("abnotakeyatall"); ok {
		t.Fatal("junk served as an entry")
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s, _ := Open(t.TempDir(), "v1")
	for _, k := range []string{"", "../escape", "a/b", strings.Repeat("k", 200)} {
		if err := s.Put(k, []byte(`{}`)); err == nil {
			t.Fatalf("Put accepted invalid key %q", k)
		}
		if _, ok := s.Get(k); ok {
			t.Fatalf("Get hit on invalid key %q", k)
		}
	}
}

// TestConcurrentMultiHandleAccess drives two Store handles on one
// directory (the multi-engine / shared-volume shape) from many
// goroutines. Every read must return either a miss or a complete,
// checksum-valid payload — never torn bytes.
func TestConcurrentMultiHandleAccess(t *testing.T) {
	dir := t.TempDir()
	a, _ := Open(dir, "v1")
	b, _ := Open(dir, "v1")
	const keys = 16
	payload := func(i int) []byte {
		return []byte(fmt.Sprintf(`{"key":%d,"fill":%q}`, i, strings.Repeat("x", 512)))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		for _, s := range []*Store{a, b} {
			wg.Add(1)
			go func(s *Store, w int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					k := key(fmt.Sprint((i + w) % keys))
					if i%3 == 0 {
						if err := s.Put(k, payload((i+w)%keys)); err != nil {
							t.Errorf("put: %v", err)
							return
						}
					}
					if got, ok := s.Get(k); ok {
						if string(got) != string(payload((i+w)%keys)) {
							t.Errorf("torn read for %s: %q", k, got)
							return
						}
					}
				}
			}(s, w)
		}
	}
	wg.Wait()
	if got := a.Stats().Quarantined + b.Stats().Quarantined; got != 0 {
		t.Fatalf("concurrent same-version writes caused %d quarantines", got)
	}
}

// TestIndentedPayloadRoundTrips: Put writes the payload verbatim, so an
// indented payload comes back byte-identical and passes the checksum.
func TestIndentedPayloadRoundTrips(t *testing.T) {
	s, err := Open(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	k := key("indented")
	payload, err := json.MarshalIndent(map[string]any{"findings": []int{1, 2}, "note": "a <b> & c"}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("got %q ok=%v, want the indented payload back", got, ok)
	}
	if st := s.Stats(); st.Quarantined != 0 {
		t.Fatalf("indented payload quarantined: %+v", st)
	}
}

// TestCompactEnvelopeMatchesMarshal: for the compact payloads every
// caller produces, the hand-built envelope is byte-identical to the
// json.Marshal of the entry struct that earlier versions wrote, so
// existing stores stay readable without a version bump.
func TestCompactEnvelopeMatchesMarshal(t *testing.T) {
	dir := t.TempDir()
	const version = `rustprobe-11-"quoted"<v>`
	s, err := Open(dir, version)
	if err != nil {
		t.Fatal(err)
	}
	k := key("compact")
	payload, err := json.Marshal(map[string]any{"kind": "use-after-free", "message": "x <-> y & z ", "line": 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(s.path(k))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload)
	want, err := json.Marshal(entry{Version: version, Key: k, Sum: hex.EncodeToString(sum[:]), Payload: json.RawMessage(payload)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("envelope diverged from json.Marshal\n got: %s\nwant: %s", got, want)
	}
}

// TestPutRecreatesRemovedShard: Put creates a shard directory once per
// handle, and remakes it when it was removed under the store.
func TestPutRecreatesRemovedShard(t *testing.T) {
	s, err := Open(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := "ab"+key("one")[2:], "ab"+key("two")[2:]
	if err := s.Put(k1, []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Dir(s.path(k1))); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k2, []byte(`2`)); err != nil {
		t.Fatalf("put after the shard was removed: %v", err)
	}
	if got, ok := s.Get(k2); !ok || string(got) != "2" {
		t.Fatalf("got %q ok=%v, want the second payload", got, ok)
	}
	if _, ok := s.Get(k1); ok {
		t.Fatal("entry of the removed shard still served")
	}
	if st := s.Stats(); st.Puts != 2 || st.PutErrors != 0 {
		t.Fatalf("stats = %+v", st)
	}
}
