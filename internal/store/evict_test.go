package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// evictAll drains the store one eviction at a time and returns the victim
// keys in eviction order — the policy's complete ranking, observed through
// the public API.
func evictAll(t *testing.T, s *Store) []string {
	t.Helper()
	var order []string
	for len(s.Entries()) > 0 {
		victims := s.EvictColdest(s.Budget() - s.Used() + 1)
		if len(victims) == 0 {
			t.Fatalf("eviction stalled with %d entries left", len(s.Entries()))
		}
		for _, v := range victims {
			order = append(order, v.Key)
		}
	}
	return order
}

// TestVictimOrderRewardVsLRU is the contract of the reward-aware eviction
// ranking over one population: an old unhinted entry, an old entry guarding
// an expensive recompute, and a fresh entry with a tiny hint. Victims go by
// ascending saving-per-byte whatever the recency — where a pure LRU ranking
// (insertion order here) would lose the guard's recompute second.
func TestVictimOrderRewardVsLRU(t *testing.T) {
	t.Run("reward", func(t *testing.T) {
		const size = 1000
		s := openTemp(t, 3*size)
		puts := []struct {
			key  string
			hint RewardHint
		}{
			{"old-unhinted", RewardHint{}},
			{"guard", RewardHint{RecomputeNanos: (50 * time.Millisecond).Nanoseconds()}},
			{"new-small", RewardHint{RecomputeNanos: (10 * time.Microsecond).Nanoseconds()}},
		}
		for _, p := range puts {
			if err := s.PutBytesHint(p.key, bytes.Repeat([]byte{'x'}, size), p.hint); err != nil {
				t.Fatal(err)
			}
			time.Sleep(2 * time.Millisecond) // distinct LastAccess ordering
		}
		// old-unhinted saves nothing, new-small saves ~8µs/KB, guard saves
		// ~50µs/B: the guard goes last even though it is older than new-small.
		want := []string{"old-unhinted", "new-small", "guard"}
		got := evictAll(t, s)
		if len(got) != len(want) {
			t.Fatalf("evicted %v, want %v", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("eviction order %v, want %v", got, want)
			}
		}
	})
}

// TestRewardSavingTiesFallBackToLRU: entries with identical
// saving-per-byte (same hint, size, and tier load cost) — and entries
// whose hint is below their load cost, which clamps to zero saving — rank
// by recency, least-recently-accessed first.
func TestRewardSavingTiesFallBackToLRU(t *testing.T) {
	const size = 1000
	s := openTemp(t, 3*size)
	hint := RewardHint{RecomputeNanos: (5 * time.Millisecond).Nanoseconds()}
	for _, key := range []string{"first", "second"} {
		if err := s.PutBytesHint(key, bytes.Repeat([]byte{'y'}, size), hint); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// A hint below the load cost saves nothing: despite being hinted, this
	// entry must rank below the two real savers.
	if err := s.PutBytesHint("worthless", bytes.Repeat([]byte{'z'}, size), RewardHint{RecomputeNanos: 1}); err != nil {
		t.Fatal(err)
	}
	got := evictAll(t, s)
	want := []string{"worthless", "first", "second"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("eviction order %v, want %v", got, want)
		}
	}
}

// TestAdoptedSameMtimeTieBreaksByKey is the regression test for the
// adopted-store eviction-order bug: files adopted at open take their
// LastAccess from the file mtime, and coarse filesystem timestamps make
// equal mtimes routine — under which the old comparison left the victim
// order to map iteration, differing run to run. Adopted entries carry no
// hints, so every saving ties too, and ties must break by key.
func TestAdoptedSameMtimeTieBreaksByKey(t *testing.T) {
	t.Run("reward", func(t *testing.T) {
		dir := t.TempDir()
		seed, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Deliberately not in key order, so the assertion cannot pass by
		// insertion-order accident.
		for _, key := range []string{"kc", "ka", "kb"} {
			if err := seed.PutBytes(key, bytes.Repeat([]byte{'m'}, 500)); err != nil {
				t.Fatal(err)
			}
		}
		stamp := time.Now().Add(-time.Hour).Truncate(time.Second)
		for _, key := range []string{"ka", "kb", "kc"} {
			if err := os.Chtimes(filepath.Join(dir, key), stamp, stamp); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(dir, 1500)
		if err != nil {
			t.Fatal(err)
		}
		got := evictAll(t, s)
		want := []string{"ka", "kb", "kc"}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("adopted eviction order %v, want deterministic key order %v", got, want)
			}
		}
	})
}

// TestSpillFullyPinnedFastFails: an admission that cannot fit even after
// evicting every unpinned entry must be rejected up front with
// ErrBudgetExceeded and evict nothing — a doomed admission destroying
// pinned-adjacent values to make room it can never have was the PR-6
// destructive-eviction bug.
func TestSpillFullyPinnedFastFails(t *testing.T) {
	sp := openSpillTemp(t, 600)
	tv := spillOnly(t, sp)
	if _, err := tv.PutBytes("k1", bytes.Repeat([]byte{'p'}, 400)); err != nil {
		t.Fatal(err)
	}
	tv.Pin("k1")
	defer tv.Unpin("k1")
	_, err := tv.PutBytes("k2", bytes.Repeat([]byte{'q'}, 300))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if !sp.Has("k1") {
		t.Error("pinned entry destroyed by a doomed admission")
	}
	if n := tv.Counters().ColdEvictions; n != 0 {
		t.Errorf("%d evictions during a fast-failed admission, want 0", n)
	}
	// Unpinned, the same admission succeeds by evicting k1.
	tv.Unpin("k1")
	if _, err := tv.PutBytes("k2", bytes.Repeat([]byte{'q'}, 300)); err != nil {
		t.Fatalf("post-unpin admission: %v", err)
	}
	if sp.Has("k1") || !sp.Has("k2") {
		t.Errorf("k1 present=%v k2 present=%v after unpinned admission", sp.Has("k1"), sp.Has("k2"))
	}
}

// TestSpillEncodedRoundTrip: the encoded-admission wrappers attach hints
// like the raw-byte path, and Get decodes what PutEncodedHint admitted.
func TestSpillEncodedRoundTrip(t *testing.T) {
	sp := openSpillTemp(t, 0)
	enc, err := EncodeValue("round-trip")
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Release()
	hint := RewardHint{RecomputeNanos: (2 * time.Millisecond).Nanoseconds()}
	if err := sp.PutEncodedHint("kenc", enc, hint); err != nil {
		t.Fatal(err)
	}
	if e, ok := sp.Lookup("kenc"); !ok || e.Recompute != hint.RecomputeNanos {
		t.Fatalf("encoded admission hint %d (present %v), want %d", e.Recompute, ok, hint.RecomputeNanos)
	}
	v, err := sp.Get("kenc")
	if err != nil || v != "round-trip" {
		t.Fatalf("Get = %v, %v; want round-trip", v, err)
	}
	// SetHint refreshes in place; a zero hint is a no-op.
	sp.SetHint("kenc", RewardHint{RecomputeNanos: 9})
	sp.SetHint("kenc", RewardHint{})
	if e, _ := sp.Lookup("kenc"); e.Recompute != 9 {
		t.Fatalf("refreshed hint %d, want 9", e.Recompute)
	}
	enc2, err := EncodeValue("no-hint")
	if err != nil {
		t.Fatal(err)
	}
	defer enc2.Release()
	if err := sp.PutEncoded("kplain", enc2); err != nil {
		t.Fatal(err)
	}
	if e, _ := sp.Lookup("kplain"); e.Recompute != 0 {
		t.Fatalf("unhinted encoded admission carries recompute %d, want 0", e.Recompute)
	}
}

// TestTieredHintCarriedAcrossTiers: a recompute-saving hint attached at
// admission lands on whichever tier admits the value — hot, or cold on a
// spill — and survives a cold hit, and re-admitting a cold key refreshes
// the hint where the key lives, so the cold tier's reward-aware eviction
// always ranks a value by its latest saving.
func TestTieredHintCarriedAcrossTiers(t *testing.T) {
	hot := openTemp(t, 1000)
	cold := openSpillTemp(t, 0)
	tv := NewTiered(hot, cold)
	h1 := RewardHint{RecomputeNanos: (5 * time.Millisecond).Nanoseconds()}
	h2 := RewardHint{RecomputeNanos: (7 * time.Millisecond).Nanoseconds()}
	h3 := RewardHint{RecomputeNanos: (9 * time.Millisecond).Nanoseconds()}
	encode := func(b byte) []byte {
		raw, err := Encode(string(bytes.Repeat([]byte{b}, 800)))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if tier, err := tv.PutBytesHint("v1", encode('a'), h1); err != nil || tier != TierHot {
		t.Fatalf("v1: tier %v err %v", tier, err)
	}
	if e, ok := hot.Lookup("v1"); !ok || e.Recompute != h1.RecomputeNanos {
		t.Fatalf("hot v1 recompute hint %d, want %d", e.Recompute, h1.RecomputeNanos)
	}
	// v2 cannot fit hot: it spills, hint attached.
	if tier, err := tv.PutBytesHint("v2", encode('b'), h2); err != nil || tier != TierCold {
		t.Fatalf("v2: tier %v err %v", tier, err)
	}
	if e, ok := cold.Lookup("v2"); !ok || e.Recompute != h2.RecomputeNanos {
		t.Fatalf("spilled v2 recompute hint %d, want %d", e.Recompute, h2.RecomputeNanos)
	}
	if _, tier, err := tv.Get("v2"); err != nil || tier != TierCold {
		t.Fatalf("get v2: tier %v err %v", tier, err)
	}
	if e, ok := cold.Lookup("v2"); !ok || e.Recompute != h2.RecomputeNanos {
		t.Fatalf("v2 recompute hint %d (present %v) after a cold hit, want %d", e.Recompute, ok, h2.RecomputeNanos)
	}
	// Room opens up hot, but re-admitting v2 keeps it cold and refreshes
	// its hint there.
	if err := hot.Delete("v1"); err != nil {
		t.Fatal(err)
	}
	if tier, err := tv.PutBytesHint("v2", encode('b'), h3); err != nil || tier != TierCold {
		t.Fatalf("re-put v2: tier %v err %v", tier, err)
	}
	if e, ok := cold.Lookup("v2"); !ok || e.Recompute != h3.RecomputeNanos || hot.Has("v2") {
		t.Fatalf("re-put v2: cold hint %d (present %v, hot %v), want %d cold-only", e.Recompute, ok, hot.Has("v2"), h3.RecomputeNanos)
	}
}
