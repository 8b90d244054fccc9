// Package store is a disk-backed, content-addressed analysis-result
// store: the persistent second cache tier under the engine's in-memory
// LRU. One file per cache key holds a versioned, checksummed JSON entry;
// writes go to a temp file in the same directory and are renamed into
// place, so a crash mid-write can never leave a readable-but-wrong
// entry, and concurrent writers (multiple engines sharing one store
// directory, or replicas on a shared volume) settle on whichever rename
// lands last. For a content-addressed key both wrote the same content;
// for a key the caller rewrites, such as a session's state snapshot, the
// last rename wins.
//
// Entries carry a version string derived from the analyzer release and
// the detector registry. A version mismatch means the entry was written
// by an incompatible analyzer: it is quarantined and reported as a miss,
// so stale results self-invalidate instead of being served. Truncated or
// corrupt entries (torn writes from a crashed host, bit rot, manual
// tampering) are detected by the checksum at entry-open time and
// quarantined the same way — the store never fails startup, and never
// returns bytes it cannot prove were a complete, matching write.
//
// A hit is served without decoding the entry: Get compares the file's
// head byte for byte with the one Put writes for the key and version,
// checks the payload's sum, and returns the payload as a slice of the
// bytes it read. Any other file goes through a full JSON decode, which
// serves, quarantines or misses it exactly as it always has.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"
)

// Stats is a point-in-time snapshot of store activity since Open.
type Stats struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Puts        uint64 `json:"puts"`
	PutErrors   uint64 `json:"put_errors"`
	Quarantined uint64 `json:"quarantined"`
	Entries     int64  `json:"entries"`
}

// Store is a content-addressed entry store rooted at one directory.
// All methods are safe for concurrent use, including from multiple
// Store handles (or processes) opened on the same directory.
type Store struct {
	dir     string
	version string
	// versionJSON is version as a JSON string, quoted once at Open for
	// every envelope Put writes. exactHead reports that it decodes back
	// to version (true unless version is not valid UTF-8), so a head
	// that matches it byte for byte proves the entry's version.
	versionJSON string
	exactHead   bool

	hits        atomic.Uint64
	misses      atomic.Uint64
	puts        atomic.Uint64
	putErrors   atomic.Uint64
	quarantined atomic.Uint64
	entries     atomic.Int64

	// putMu serializes every Put on this handle, whatever its key, from
	// the existence check to the rename. Renames are atomic, so it exists
	// to keep the entries counter from double-counting a concurrent first
	// write of the same key, and to guard shards.
	putMu sync.Mutex
	// shards holds the shard directories known to exist: found at Open
	// or created by a Put of this handle.
	shards map[string]bool
}

// entry is the on-disk JSON shape. Sum is the hex SHA-256 of Payload's
// raw bytes, so a torn or tampered payload is detectable; Version gates
// compatibility; Key is recorded for forensics on quarantined files.
type entry struct {
	Version string          `json:"version"`
	Key     string          `json:"key"`
	Sum     string          `json:"sum"`
	Payload json.RawMessage `json:"payload"`
}

const (
	quarantineDir = "quarantine"
	tmpPrefix     = ".tmp-"
)

// Open roots a store at dir (created if missing), binding it to the
// given entry version. Stale temp files from a crashed writer are swept;
// existing entries are counted but not read — validation happens per
// entry at Get, so a directory full of junk can never fail startup.
func Open(dir, version string) (*Store, error) {
	if version == "" {
		return nil, fmt.Errorf("store: empty version")
	}
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	vj, err := json.Marshal(version)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:         dir,
		version:     version,
		versionJSON: string(vj),
		exactHead:   utf8.ValidString(version),
		shards:      map[string]bool{},
	}
	// Sweep temp files abandoned by a crashed writer and count entries.
	shards, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, sh := range shards {
		if !sh.IsDir() || sh.Name() == quarantineDir {
			continue
		}
		s.shards[sh.Name()] = true
		files, err := os.ReadDir(filepath.Join(dir, sh.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			if strings.HasPrefix(f.Name(), tmpPrefix) {
				os.Remove(filepath.Join(dir, sh.Name(), f.Name()))
				continue
			}
			s.entries.Add(1)
		}
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Version returns the entry version this handle reads and writes.
func (s *Store) Version() string { return s.version }

// shard spreads entries over directories named by a key's first two
// characters, so one directory never holds the whole fleet's keys.
func shard(key string) string {
	if len(key) >= 2 {
		return key[:2]
	}
	return "xx"
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, shard(key), key)
}

// validKey keeps keys usable as file names (the engine's SHA-256 hex
// keys always pass; anything else is rejected rather than trusted).
func validKey(key string) bool {
	if key == "" || len(key) > 128 {
		return false
	}
	for _, c := range key {
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// Get returns the stored payload for key. A missing entry is a plain
// miss. An unreadable, truncated, corrupt, wrong-key or version-
// mismatched entry is quarantined (moved aside, never deleted — the
// bytes stay inspectable) and reported as a miss. The payload is a
// slice of a buffer no one else holds; the caller may keep it.
func (s *Store) Get(key string) ([]byte, bool) {
	if !validKey(key) {
		s.misses.Add(1)
		return nil, false
	}
	p := s.path(key)
	data, err := os.ReadFile(p)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	payload, ok := s.exactPayload(key, data)
	if !ok {
		var reason string
		if payload, reason = s.decodeEntry(key, data); reason != "" {
			s.quarantine(key, p, reason)
			s.misses.Add(1)
			return nil, false
		}
	}
	s.hits.Add(1)
	return payload, true
}

// exactPayload is Get's hit path: it returns data's payload when data
// is byte for byte what Put writes for that payload under key and this
// handle's version, and the payload neither starts nor ends with JSON
// whitespace. It does not check that the payload is JSON (see Put); if
// it is, decodeEntry serves the identical bytes.
func (s *Store) exactPayload(key string, data []byte) ([]byte, bool) {
	head := len(`{"version":,"key":"","sum":"","payload":`) + len(s.versionJSON) + len(key) + 2*sha256.Size
	if !s.exactHead || len(data) < head+2 || data[len(data)-1] != '}' {
		return nil, false
	}
	payload := data[head : len(data)-1 : len(data)-1]
	if isSpace(payload[0]) || isSpace(payload[len(payload)-1]) ||
		string(data[:head]) != string(s.envelopeHead(key, payload)) {
		return nil, false
	}
	return payload, true
}

// isSpace reports whether c is JSON whitespace.
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

// decodeEntry is Get's full decode of data, the path of every entry
// exactPayload does not serve. It returns the payload, or the reason
// to quarantine the entry: "version" or "corrupt".
func (s *Store) decodeEntry(key string, data []byte) ([]byte, string) {
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, "corrupt"
	}
	sum := sha256.Sum256(e.Payload)
	switch {
	case e.Version != s.version:
		return nil, "version"
	case e.Key != key || e.Sum != hex.EncodeToString(sum[:]) || len(e.Payload) == 0:
		return nil, "corrupt"
	}
	return e.Payload, ""
}

// quarantine moves a bad entry into the quarantine directory under a
// reason-tagged name. Failure to move (e.g. a concurrent quarantine of
// the same file) falls back to removal so the poison entry cannot be
// served again either way. The entries counter is only adjusted when
// this handle actually took the file off disk — a loser of a concurrent
// quarantine race must not double-decrement — and is clamped at zero,
// since the entry may have been written by another handle after Open and
// so never counted here.
func (s *Store) quarantine(key, path, reason string) {
	s.quarantined.Add(1)
	dst := filepath.Join(s.dir, quarantineDir, reason+"-"+filepath.Base(key))
	removed := os.Rename(path, dst) == nil
	if !removed {
		removed = os.Remove(path) == nil
	}
	if !removed {
		return
	}
	for {
		n := s.entries.Load()
		if n <= 0 || s.entries.CompareAndSwap(n, n-1) {
			return
		}
	}
}

// Put writes payload under key: temp file in the entry's shard
// directory, then an atomic rename into place. Of concurrent writers of
// one key, the last rename wins: for a content-addressed key they wrote
// the same content, and for a rewritten key, such as a session's state
// snapshot, any of them is a complete entry.
//
// payload must be one JSON value without surrounding whitespace; it is
// written verbatim, so Get returns it byte-identical whether it is
// compact or indented. Get does not re-check its JSON syntax: it serves
// any payload whose head and checksum match what Put wrote, so bytes
// that are not JSON, if put, come back as a hit, and the caller's own
// decode must treat them as a miss. A payload with surrounding
// whitespace fails the full decode's checksum and is quarantined.
func (s *Store) Put(key string, payload []byte) error {
	if !validKey(key) {
		s.putErrors.Add(1)
		return fmt.Errorf("store: invalid key %q", key)
	}
	if len(payload) == 0 {
		s.putErrors.Add(1)
		return fmt.Errorf("store: empty payload for key %s", key)
	}
	head := s.envelopeHead(key, payload)
	sh := shard(key)
	dir := filepath.Join(s.dir, sh)
	p := filepath.Join(dir, key)
	s.putMu.Lock()
	defer s.putMu.Unlock()
	if !s.shards[sh] {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			s.putErrors.Add(1)
			return fmt.Errorf("store: %w", err)
		}
		s.shards[sh] = true
	}
	_, statErr := os.Stat(p)
	tmp, err := os.CreateTemp(dir, tmpPrefix+"*")
	if errors.Is(err, fs.ErrNotExist) {
		// The shard directory was removed under the store.
		if err = os.MkdirAll(dir, 0o755); err == nil {
			tmp, err = os.CreateTemp(dir, tmpPrefix+"*")
		}
	}
	if err != nil {
		s.putErrors.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	for _, part := range [][]byte{head, payload, envelopeTail} {
		if _, err := tmp.Write(part); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			s.putErrors.Add(1)
			return fmt.Errorf("store: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		s.putErrors.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		s.putErrors.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	s.puts.Add(1)
	if statErr != nil { // key was absent before this write
		s.entries.Add(1)
	}
	return nil
}

// The on-disk entry for a payload is envelopeHead, the payload bytes
// verbatim, and envelopeTail. It is written by hand, not re-compacted by
// json.Marshal and not copied into one buffer; for a compact payload
// the bytes equal json.Marshal(entry{...}) exactly, so the file format
// is unchanged.
var envelopeTail = []byte("}")

// envelopeHead renders the entry up to the payload. key needs no
// escaping (validKey) and the sum is hex.
func (s *Store) envelopeHead(key string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	head := make([]byte, 0, len(s.versionJSON)+len(key)+2*len(sum)+40)
	head = append(head, `{"version":`...)
	head = append(head, s.versionJSON...)
	head = append(head, `,"key":"`...)
	head = append(head, key...)
	head = append(head, `","sum":"`...)
	head = hex.AppendEncode(head, sum[:])
	return append(head, `","payload":`...)
}

// Len reports the entry count (as tracked by this handle: counted at
// Open, adjusted by puts and quarantines; concurrent handles each track
// their own view).
func (s *Store) Len() int { return int(s.entries.Load()) }

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Puts:        s.puts.Load(),
		PutErrors:   s.putErrors.Load(),
		Quarantined: s.quarantined.Load(),
		Entries:     s.entries.Load(),
	}
}
