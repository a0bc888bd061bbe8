package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("the payload bytes")
	var buf bytes.Buffer
	if err := writeFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != frameHeaderSize+len(payload) {
		t.Fatalf("frame is %d bytes, want header %d + payload %d", buf.Len(), frameHeaderSize, len(payload))
	}
	got, err := verifyFrame(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("verified payload %q, want %q", got, payload)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := verifyFrame(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("verified %d payload bytes, want 0", len(got))
	}
}

func TestVerifyFrameRejectsDamage(t *testing.T) {
	payload := []byte("some value worth protecting")
	var buf bytes.Buffer
	if err := writeFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	cases := []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"short-header", func(b []byte) []byte { return b[:frameHeaderSize-1] }},
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"truncated-payload", func(b []byte) []byte { return b[:len(b)-3] }},
		{"flipped-payload-bit", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }},
		{"flipped-crc", func(b []byte) []byte { b[frameHeaderSize-1] ^= 0x01; return b }},
		{"trailing-garbage", func(b []byte) []byte { return append(b, 0xAA) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := tc.mangle(append([]byte(nil), good...))
			if _, err := verifyFrame(raw); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestSpillFramesOnDisk(t *testing.T) {
	dir := t.TempDir()
	sp, err := OpenSpill(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("framed on disk")
	if err := sp.PutBytes("k", payload); err != nil {
		t.Fatal(err)
	}
	// Entry metadata and budget accounting stay in payload bytes — the
	// header is a storage detail, invisible to the cost model.
	e, ok := sp.Lookup("k")
	if !ok || e.Size != int64(len(payload)) {
		t.Fatalf("entry size %d, want payload size %d", e.Size, len(payload))
	}
	raw, err := os.ReadFile(filepath.Join(dir, "k"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != frameHeaderSize+len(payload) {
		t.Fatalf("file is %d bytes, want %d", len(raw), frameHeaderSize+len(payload))
	}
	if got, err := verifyFrame(raw); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("on-disk frame does not verify: %v", err)
	}
	got, err := sp.GetBytes("k")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("GetBytes = %q, %v; want the payload back", got, err)
	}
}

func TestSpillReopenAdoptsFrames(t *testing.T) {
	dir := t.TempDir()
	sp, err := OpenSpill(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("survives reopen")
	if err := sp.PutBytes("k", payload); err != nil {
		t.Fatal(err)
	}
	sp2, err := OpenSpill(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := sp2.Lookup("k")
	if !ok || e.Size != int64(len(payload)) {
		t.Fatalf("adopted entry size %d, want %d", e.Size, len(payload))
	}
	got, err := sp2.GetBytes("k")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("GetBytes after reopen = %q, %v", got, err)
	}
}

func TestSpillAdoptedUnframedFileSurfacesCorrupt(t *testing.T) {
	// A pre-frame spill directory (or an outside writer) leaves unframed
	// bytes: adoption keeps the entry, and the first read reports it
	// corrupt instead of serving garbage.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "legacy"), []byte("unframed bytes from an older layout"), 0o644); err != nil {
		t.Fatal(err)
	}
	sp, err := OpenSpill(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sp.Has("legacy") {
		t.Fatal("adopted file not visible")
	}
	if _, err := sp.GetBytes("legacy"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestInjectFaultKinds(t *testing.T) {
	payload := []byte("target of deliberate damage")
	for _, kind := range []FaultKind{FaultBitFlip, FaultTruncate} {
		sp := openSpillTemp(t, 0)
		if err := sp.PutBytes("k", payload); err != nil {
			t.Fatal(err)
		}
		if err := sp.InjectFault("k", kind); err != nil {
			t.Fatal(err)
		}
		if _, err := sp.GetBytes("k"); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("kind %d: err = %v, want ErrCorrupt", kind, err)
		}
	}
	// EIO is an I/O failure, not corruption: the bytes on disk are intact
	// but unreadable, persistently.
	sp := openSpillTemp(t, 0)
	if err := sp.PutBytes("k", payload); err != nil {
		t.Fatal(err)
	}
	if err := sp.InjectFault("k", FaultEIO); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_, err := sp.GetBytes("k")
		if err == nil || errors.Is(err, ErrCorrupt) || errors.Is(err, ErrNotFound) {
			t.Fatalf("read %d: err = %v, want a plain I/O error", i, err)
		}
	}
	// Deleting the entry clears its fault: a fresh admission under the same
	// key reads cleanly.
	if err := sp.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if err := sp.PutBytes("k", payload); err != nil {
		t.Fatal(err)
	}
	if got, err := sp.GetBytes("k"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("after delete+readmit: %q, %v", got, err)
	}
	if err := sp.InjectFault("missing", FaultEIO); !errors.Is(err, ErrNotFound) {
		t.Fatalf("injecting into a missing key: err = %v, want ErrNotFound", err)
	}
}

func TestTieredCorruptColdFrameCountedAndDeleted(t *testing.T) {
	hot := openTemp(t, 1) // rejects everything: all values land cold
	cold := openSpillTemp(t, 0)
	tiers := NewTiered(hot, cold)
	if _, err := tiers.PutBytes("k", []byte("cold resident value")); err != nil {
		t.Fatal(err)
	}
	if err := cold.InjectFault("k", FaultBitFlip); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tiers.Get("k"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get = %v, want ErrCorrupt", err)
	}
	if c := tiers.Counters(); c.CorruptFrames != 1 {
		t.Fatalf("CorruptFrames = %d, want 1", c.CorruptFrames)
	}
	// The damaged frame is deleted on detection: the key degrades to a
	// one-time miss instead of poisoning every later read.
	if cold.Has("k") {
		t.Fatal("corrupt frame still present after detection")
	}
}

func TestPinExemptsFromColdEviction(t *testing.T) {
	// Budget fits two 8-byte entries; admitting a third must evict the LRU.
	sp := openSpillTemp(t, 16)
	tv := spillOnly(t, sp)
	val := []byte("12345678")
	if _, err := tv.PutBytes("a", val); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond) // order LRU recency
	if _, err := tv.PutBytes("b", val); err != nil {
		t.Fatal(err)
	}
	tv.Pin("a")
	if _, err := tv.PutBytes("c", val); err != nil {
		t.Fatal(err)
	}
	if !sp.Has("a") {
		t.Fatal("pinned LRU key was evicted")
	}
	if sp.Has("b") {
		t.Fatal("eviction did not fall through to the unpinned victim")
	}
	tv.Unpin("a")
	if _, err := tv.PutBytes("d", val); err != nil {
		t.Fatal(err)
	}
	if sp.Has("a") {
		t.Fatal("unpinned key survived an eviction it should have lost")
	}
}

func TestPinRefcounted(t *testing.T) {
	s := openTemp(t, 0)
	s.Pin("k")
	s.Pin("k")
	s.Unpin("k")
	if !s.Pinned("k") {
		t.Fatal("key unpinned while one of two pins remains")
	}
	s.Unpin("k")
	if s.Pinned("k") {
		t.Fatal("key still pinned after matching unpins")
	}
	s.Unpin("k") // over-unpin must stay a no-op
	s.Pin("k")
	if !s.Pinned("k") {
		t.Fatal("pin after over-unpin did not stick")
	}
	s.Unpin("k")
}

// TestPinVsEvictRace drives concurrent pin/unpin traffic against
// admissions that must evict, under the race detector: the invariant is
// that the store stays within budget and never deadlocks, whatever the
// interleaving.
func TestPinVsEvictRace(t *testing.T) {
	sp := openSpillTemp(t, 64)
	tv := spillOnly(t, sp)
	val := []byte("12345678")
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var wg sync.WaitGroup
	for _, k := range keys {
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tv.Pin(k)
				_, _ = tv.PutBytes(k, val)
				_, _ = sp.GetBytes(k)
				tv.Unpin(k)
			}
		}(k)
	}
	wg.Wait()
	if used, budget := sp.Used(), sp.Budget(); used > budget {
		t.Fatalf("spill tier used %d over its %d budget", used, budget)
	}
	for _, k := range keys {
		if sp.Pinned(k) {
			t.Fatalf("key %s still pinned after all releases", k)
		}
	}
}
