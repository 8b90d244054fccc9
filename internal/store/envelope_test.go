package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// envelopeVersions are the versions the envelope tests open stores at:
// a plain one, and one json.Marshal quotes and HTML-escapes.
var envelopeVersions = [...]string{"v1", `rustprobe-11-"quoted"<v>`}

// envelopePayloads are payloads as callers put them: compact, indented,
// a scalar, and one holding the bytes that end an envelope's head.
func envelopePayloads(t testing.TB) [][]byte {
	indented, err := json.MarshalIndent(map[string]any{"findings": []int{1, 2}, "note": "a <b> & c"}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return [][]byte{
		[]byte(`{"findings":[],"unsafe":{"regions":1}}`),
		indented,
		[]byte(`7`),
		[]byte(`{"a":"","payload":{"b":"\",\"payload\":"}}`),
	}
}

// TestGetServesPutEntriesExactly: every entry Put writes is served by
// the byte-exact hit path, and the full decode serves the same bytes.
func TestGetServesPutEntriesExactly(t *testing.T) {
	for _, v := range envelopeVersions {
		s, err := Open(t.TempDir(), v)
		if err != nil {
			t.Fatal(err)
		}
		for i, payload := range envelopePayloads(t) {
			k := key(fmt.Sprint(v, i))
			if err := s.Put(k, payload); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(s.path(k))
			if err != nil {
				t.Fatal(err)
			}
			fast, ok := s.exactPayload(k, data)
			if !ok || !bytes.Equal(fast, payload) {
				t.Fatalf("version %q payload %d: exact path got %q ok=%v", v, i, fast, ok)
			}
			if full, reason := s.decodeEntry(k, data); reason != "" || !bytes.Equal(full, payload) {
				t.Fatalf("version %q payload %d: full decode got %q reason=%q", v, i, full, reason)
			}
			if got, ok := s.Get(k); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("version %q payload %d: Get got %q ok=%v", v, i, got, ok)
			}
		}
	}
}

// TestGetFallsBackToFullDecode: an entry the exact path refuses but the
// full decode accepts (whitespace between the envelope's tokens) is
// still a hit, as it always was.
func TestGetFallsBackToFullDecode(t *testing.T) {
	s, err := Open(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	k := key("spaced")
	payload := []byte(`{"x":1}`)
	if err := s.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	corruptEntry(t, s, k, func(b []byte) []byte {
		b = bytes.Replace(b, []byte(`"payload":`), []byte(`"payload": `), 1)
		return append(b[:len(b)-1], "\n}"...)
	})
	data, err := os.ReadFile(s.path(k))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.exactPayload(k, data); ok {
		t.Fatal("exact path served an entry with whitespace around the payload")
	}
	if got, ok := s.Get(k); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("got %q ok=%v, want the payload from the full decode", got, ok)
	}
	if st := s.Stats(); st.Hits != 1 || st.Quarantined != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// FuzzStoreEnvelope: the exact hit path serves a JSON payload only when
// the full decode would serve the identical bytes, and only from an
// entry byte-identical to what Put writes for that payload.
func FuzzStoreEnvelope(f *testing.F) {
	// A version that is not UTF-8 does not survive json.Marshal, so the
	// full decode refuses every entry written under it.
	versions := append(envelopeVersions[:], "v\xff")
	stores := make([]*Store, len(versions))
	for i, v := range versions {
		s, err := Open(f.TempDir(), v)
		if err != nil {
			f.Fatal(err)
		}
		stores[i] = s
	}
	k, other := key("fuzz"), key("other")
	flip := func(b []byte, i int) []byte {
		b = bytes.Clone(b)
		b[i] ^= 0x20
		return b
	}
	for i, s := range stores {
		put := func(payload []byte) []byte {
			return append(append(s.envelopeHead(k, payload), payload...), envelopeTail...)
		}
		for _, payload := range envelopePayloads(f) {
			entry := put(payload)
			head := len(entry) - len(payload) - 1
			for _, data := range [][]byte{
				entry,
				entry[:len(entry)-1],
				entry[:head],
				entry[:len(entry)/2],
				flip(entry, head),
				flip(entry, head-3),
				flip(entry, len(entry)-2),
				bytes.Replace(entry, []byte(k), []byte(other), 1),
				bytes.Replace(entry, []byte(`"payload":`), []byte(`"payload": `), 1),
				bytes.Replace(entry, []byte(`{"version"`), []byte(`{ "version"`), 1),
				append(entry[:len(entry)-1:len(entry)-1], " }"...),
				append(bytes.Clone(entry[:head]), `{"a":1},"payload":{"a":1}}`...),
			} {
				f.Add(data, uint8(i), k)
			}
			f.Add(entry, uint8(i+1), k) // swapped version
			f.Add(entry, uint8(i), other)
			// Payloads put against Put's contract: checksummed with
			// surrounding whitespace, which the full decode drops.
			f.Add(put(append([]byte(" "), payload...)), uint8(i), k)
			f.Add(put(append(bytes.Clone(payload), '\n')), uint8(i), k)
		}
		// Checksummed bytes that are not one JSON value, of which the
		// full decode reads a different payload.
		f.Add(put([]byte(`{"a":1},"payload":{"b":2}`)), uint8(i), k)
	}
	f.Fuzz(func(t *testing.T, data []byte, version uint8, k string) {
		if !validKey(k) {
			return
		}
		s := stores[int(version)%len(stores)]
		fast, ok := s.exactPayload(k, data)
		if !ok {
			return
		}
		put := append(append(s.envelopeHead(k, fast), fast...), envelopeTail...)
		if !bytes.Equal(data, put) {
			t.Fatalf("exact path served %q from an entry Put would not write:\n%q", fast, data)
		}
		if !json.Valid(fast) {
			return
		}
		if full, reason := s.decodeEntry(k, data); reason != "" || !bytes.Equal(full, fast) {
			t.Fatalf("exact path served %q, full decode %q (reason %q)", fast, full, reason)
		}
	})
}

// BenchmarkStoreGetHit times Get of a stored entry at a small batch
// result's size and at a session snapshot's.
func BenchmarkStoreGetHit(b *testing.B) {
	for _, size := range []int{2 << 10, 58 << 10} {
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			s, err := Open(b.TempDir(), "v1")
			if err != nil {
				b.Fatal(err)
			}
			k := key("bench")
			if err := s.Put(k, benchPayload(size)); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := s.Get(k); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
}

// benchPayload is a findings-shaped JSON payload of about size bytes.
func benchPayload(size int) []byte {
	var sb strings.Builder
	sb.WriteString(`{"findings":[`)
	for i := 0; sb.Len() < size-64; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"kind":"use-after-free","file":"src/f%d.rs","line":%d,"column":9,"message":"pointer _3(p) may dereference storage of _1(v) after it is dead"}`, i, i+1)
	}
	sb.WriteString(`],"unsafe":{"regions":1}}`)
	return []byte(sb.String())
}
