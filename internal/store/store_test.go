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

func openTemp(t *testing.T, budget int64) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), budget)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openTemp(t, 0)
	want := map[string]float64{"acc": 0.9, "f1": 0.8}
	if err := s.Put("k1", want); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("k1")
	if err != nil {
		t.Fatal(err)
	}
	m, ok := got.(map[string]float64)
	if !ok {
		t.Fatalf("decoded type %T", got)
	}
	if m["acc"] != 0.9 || m["f1"] != 0.8 {
		t.Errorf("round trip = %v", m)
	}
}

func TestGetNotFound(t *testing.T) {
	s := openTemp(t, 0)
	if _, err := s.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestBudgetEnforced(t *testing.T) {
	s := openTemp(t, 64)
	big := make([]byte, 1000)
	err := s.PutBytes("big", big)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if s.Used() != 0 {
		t.Errorf("failed put consumed budget: %d", s.Used())
	}
	// Small value fits.
	if err := s.PutBytes("small", make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	if s.Used() != 32 || s.Remaining() != 32 {
		t.Errorf("used=%d remaining=%d", s.Used(), s.Remaining())
	}
}

func TestUnlimitedBudget(t *testing.T) {
	s := openTemp(t, 0)
	if err := s.PutBytes("x", make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if s.Remaining() < 1<<50 {
		t.Errorf("unlimited remaining = %d", s.Remaining())
	}
}

func TestPutIdempotent(t *testing.T) {
	s := openTemp(t, 100)
	if err := s.PutBytes("k", make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	// Second put of same key: no-op, no double budget charge.
	if err := s.PutBytes("k", make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	if s.Used() != 40 {
		t.Errorf("used = %d after idempotent put", s.Used())
	}
}

func TestDelete(t *testing.T) {
	s := openTemp(t, 100)
	if err := s.PutBytes("k", make([]byte, 50)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if s.Has("k") || s.Used() != 0 {
		t.Error("delete did not release entry")
	}
	if err := s.Delete("k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete err = %v", err)
	}
	// Budget is reusable after delete.
	if err := s.PutBytes("k2", make([]byte, 90)); err != nil {
		t.Fatal(err)
	}
}

func TestClear(t *testing.T) {
	s := openTemp(t, 0)
	for _, k := range []string{"a", "b", "c"} {
		if err := s.PutBytes(k, []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Clear(); err != nil {
		t.Fatal(err)
	}
	if len(s.Entries()) != 0 || s.Used() != 0 {
		t.Error("clear incomplete")
	}
}

func TestReopenAdoptsFiles(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put("persist", "hello"); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Has("persist") {
		t.Fatal("reopened store lost entry")
	}
	got, err := s2.Get("persist")
	if err != nil {
		t.Fatal(err)
	}
	if got.(string) != "hello" {
		t.Errorf("got %v", got)
	}
	if s2.Used() == 0 {
		t.Error("reopened store shows zero usage")
	}
}

// TestReopenAdoptsOnlyKeyFiles: a store directory also holds a crashed
// write's temp file and the session's history file. Reopening either tier
// must adopt only the key, charge only its bytes, and delete the leftover
// temp file — neither foreign file may become a budget-charged, evictable
// entry.
func TestReopenAdoptsOnlyKeyFiles(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(dir string) (*Store, error)
	}{
		{"hot", func(dir string) (*Store, error) { return Open(dir, 1000) }},
		{"cold", func(dir string) (*Store, error) { return OpenSpill(dir, 1000) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := tc.open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.PutBytes("k", bytes.Repeat([]byte{'v'}, 100)); err != nil {
				t.Fatal(err)
			}
			foreign := map[string][]byte{
				"k.7.tmp":            bytes.Repeat([]byte{'t'}, 300),
				"helix-history.json": bytes.Repeat([]byte{'h'}, 200),
			}
			for name, raw := range foreign {
				if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			s2, err := tc.open(dir)
			if err != nil {
				t.Fatal(err)
			}
			entries := s2.Entries()
			if len(entries) != 1 || entries[0].Key != "k" {
				t.Fatalf("adopted entries %v, want just k", entries)
			}
			if s2.Used() != 100 || entries[0].Size != 100 {
				t.Errorf("used %d, entry size %d; want both 100", s2.Used(), entries[0].Size)
			}
			if _, err := os.Stat(filepath.Join(dir, "k.7.tmp")); !os.IsNotExist(err) {
				t.Errorf("crash-leftover temp file not deleted: %v", err)
			}
			if _, err := os.Stat(filepath.Join(dir, "helix-history.json")); err != nil {
				t.Errorf("history file touched: %v", err)
			}
		})
	}
}

func TestEntriesSorted(t *testing.T) {
	s := openTemp(t, 0)
	for _, k := range []string{"zz", "aa", "mm"} {
		if err := s.PutBytes(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	es := s.Entries()
	if len(es) != 3 || es[0].Key != "aa" || es[2].Key != "zz" {
		t.Errorf("entries = %v", es)
	}
}

func TestLookupMetadata(t *testing.T) {
	s := openTemp(t, 0)
	if err := s.PutBytes("k", make([]byte, 123)); err != nil {
		t.Fatal(err)
	}
	e, ok := s.Lookup("k")
	if !ok || e.Size != 123 {
		t.Errorf("lookup = %+v, %v", e, ok)
	}
	if _, ok := s.Lookup("none"); ok {
		t.Error("phantom lookup")
	}
}

func TestEstimateLoadPositive(t *testing.T) {
	s := openTemp(t, 0)
	if d := s.EstimateLoad(1 << 20); d <= 0 {
		t.Errorf("estimate = %v", d)
	}
	// Larger size, larger estimate.
	if s.EstimateLoad(1<<24) <= s.EstimateLoad(1<<10) {
		t.Error("estimate not monotone in size")
	}
}

func TestGetMeasuresLoadCost(t *testing.T) {
	s := openTemp(t, 0)
	if err := s.Put("k", make([]byte, 1<<16)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k"); err != nil {
		t.Fatal(err)
	}
	e, _ := s.Lookup("k")
	if e.LoadCost <= 0 {
		t.Errorf("measured load cost = %v", e.LoadCost)
	}
}

// Failure injection: corrupt the underlying file; Get must fail cleanly.
func TestGetCorruptFile(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "k"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k"); err == nil {
		t.Error("corrupt file decoded successfully")
	}
}

// Failure injection: file removed behind the store's back.
func TestGetVanishedFile(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", 42); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "k")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k"); err == nil {
		t.Error("vanished file read successfully")
	}
}

func TestPathTraversalDefense(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("../escape", "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "escape")); err != nil {
		t.Errorf("key not sanitized into dir: %v", err)
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(dir), "escape")); err == nil {
		t.Error("file escaped the store directory")
	}
}

func TestConcurrentPutsRespectBudget(t *testing.T) {
	s := openTemp(t, 1000)
	var wg sync.WaitGroup
	errs := make([]error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.PutBytes(string(rune('a'+i%26))+string(rune('0'+i/26)), make([]byte, 100))
		}(i)
	}
	wg.Wait()
	if s.Used() > 1000 {
		t.Errorf("budget oversubscribed: %d", s.Used())
	}
	okCount := 0
	for _, err := range errs {
		if err == nil {
			okCount++
		} else if !errors.Is(err, ErrBudgetExceeded) {
			t.Errorf("unexpected error: %v", err)
		}
	}
	if okCount != 10 {
		t.Errorf("%d puts succeeded, want 10 (1000/100)", okCount)
	}
}

func TestConcurrentGetPut(t *testing.T) {
	s := openTemp(t, 0)
	if err := s.Put("shared", "v"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				if _, err := s.Get("shared"); err != nil {
					t.Errorf("get: %v", err)
				}
			} else {
				if err := s.Put("k"+string(rune('0'+i)), i); err != nil {
					t.Errorf("put: %v", err)
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestSmoothThroughput(t *testing.T) {
	got := smooth(100, 1000, time.Second) // obs = 1000 B/s
	want := 0.3*1000 + 0.7*100
	if got != want {
		t.Errorf("smooth = %v, want %v", got, want)
	}
	// Degenerate observations leave the estimate unchanged.
	if smooth(100, 0, time.Second) != 100 || smooth(100, 10, 0) != 100 {
		t.Error("degenerate observation changed estimate")
	}
}

func TestEncodeValuePutEncodedRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeValue("payload")
	if err != nil {
		t.Fatal(err)
	}
	if enc.Size() != int64(len(enc.Bytes())) || enc.Size() == 0 {
		t.Errorf("Size %d inconsistent with %d bytes", enc.Size(), len(enc.Bytes()))
	}
	if err := s.PutEncoded("k", enc); err != nil {
		t.Fatal(err)
	}
	enc.Release()
	v, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if v.(string) != "payload" {
		t.Errorf("round trip = %v", v)
	}
	// Double release is a no-op, and pooled reuse yields clean encodings.
	enc.Release()
	enc2, err := EncodeValue("other")
	if err != nil {
		t.Fatal(err)
	}
	defer enc2.Release()
	got, err := Decode(append([]byte(nil), enc2.Bytes()...))
	if err != nil {
		t.Fatal(err)
	}
	if got.(string) != "other" {
		t.Errorf("pooled encode produced %v", got)
	}
}

func TestEncodeCallsCounter(t *testing.T) {
	before := EncodeCalls()
	if _, err := Encode(42); err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeValue(43)
	if err != nil {
		t.Fatal(err)
	}
	enc.Release()
	if d := EncodeCalls() - before; d != 2 {
		t.Errorf("counter advanced by %d, want 2", d)
	}
}

// TestPutBytesHintMergesInFlight: a duplicate admission that hits the
// in-flight write guard must not drop its hint — it folds into the pending
// record the winning writer applies on publish, and a weaker later hint
// never regresses the merge.
func TestPutBytesHintMergesInFlight(t *testing.T) {
	s := openTemp(t, 0)
	key, raw := "aa00race", []byte("payload")

	s.mu.Lock()
	if s.writing == nil {
		s.writing = make(map[string]*RewardHint)
	}
	s.writing[key] = &RewardHint{RecomputeNanos: 5}
	s.mu.Unlock()

	if err := s.PutBytesHint(key, raw, RewardHint{RecomputeNanos: 9, Owner: "ann"}); err != nil {
		t.Fatalf("guarded put: %v", err)
	}
	if err := s.PutBytesHint(key, raw, RewardHint{RecomputeNanos: 3, Owner: "bob"}); err != nil {
		t.Fatalf("second guarded put: %v", err)
	}

	s.mu.Lock()
	pending := *s.writing[key]
	s.mu.Unlock()
	if pending.RecomputeNanos != 9 {
		t.Errorf("pending recompute hint = %d, want the max merged value 9", pending.RecomputeNanos)
	}
	if pending.Owner != "ann" {
		t.Errorf("pending owner = %q, want first-claimant %q", pending.Owner, "ann")
	}
}
