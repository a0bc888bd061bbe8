package store

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// ColdThroughput seeds the spill tier's load-cost estimate before any I/O
// has been measured: 80 MB/s, modeling the slower medium a production cold
// tier sits on (network or archival storage). Measured observations smooth
// toward the tier's real throughput, but the asymmetric seed is what makes
// cold-start recompute-vs-load decisions price a spilled value honestly
// more expensive than a hot one.
const ColdThroughput = 80e6

// Spill is the cold second tier of a tiered materialization store: a
// budgeted disk store in its own directory that admits values the hot tier
// rejected (spill) or evicted (demotion), and — unlike the hot tier — makes
// room for new admissions by deleting its own cheapest-to-lose entries
// (see Store.EvictColdest). A value evicted from the spill tier is gone;
// the next iteration's cost model simply sees it as not loadable and
// recomputes it.
type Spill struct {
	s *Store
	// putMu serializes admissions: eviction deletes victim files after
	// releasing the store lock, so two concurrent admissions could
	// otherwise race an eviction's file removal against a re-admission's
	// fresh write. Cold-tier writes happen off the execution engine's
	// critical path (background materialization writers and promotions),
	// so holding a mutex across the file I/O costs nothing that matters.
	putMu     sync.Mutex
	evictions atomic.Int64
}

// OpenSpill creates or reuses a spill tier rooted at dir with the given
// budget in bytes (<=0 disables the budget). Existing files are adopted,
// exactly like Open. Unlike the hot tier, spill files are framed — every
// write carries a length+CRC-32C header (see frame.go) verified on read —
// and admissions fsync before the rename, so neither a crash mid-write nor
// later on-disk damage can hand a later iteration silently wrong bytes:
// both surface as ErrCorrupt, which the engine treats as a cache miss.
func OpenSpill(dir string, budget int64) (*Spill, error) {
	return openSpill(dir, budget, false)
}

// OpenSpillMmap is OpenSpill with zero-copy memory-mapped cold reads
// enabled: tiered Gets serve the frame payload directly from the page cache
// (CRC still verified once per read) instead of through an os.ReadFile
// copy. Platforms without mmap support, and per-file mapping failures, fall
// back to the buffered path transparently.
func OpenSpillMmap(dir string, budget int64) (*Spill, error) {
	return openSpill(dir, budget, true)
}

func openSpill(dir string, budget int64, mmap bool) (*Spill, error) {
	s, err := open(dir, budget, true, true)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.mmapEnabled = mmap
	s.readBps = ColdThroughput
	s.writeBps = ColdThroughput
	for _, e := range s.entries {
		e.LoadCost = s.estimateLoad(e.Size)
	}
	s.mu.Unlock()
	return &Spill{s: s}, nil
}

// PutBytes admits pre-encoded bytes, deleting the cheapest-to-lose entries
// (see Store.EvictColdest) as needed to make room.
// Re-admitting an existing key is an idempotent no-op (content addressing)
// and evicts nothing. A value that cannot fit even after evicting every
// unpinned entry — larger than the whole budget, or crowded out by pinned
// planned-load keys — is rejected up front with ErrBudgetExceeded and
// evicts nothing: a doomed admission must not destroy values to make room
// it can never have.
func (sp *Spill) PutBytes(key string, raw []byte) error {
	return sp.PutBytesHint(key, raw, RewardHint{})
}

// PutBytesHint is PutBytes with a recompute-saving hint attached to the
// entry (see RewardHint); the hint feeds the tier's reward-aware eviction.
func (sp *Spill) PutBytesHint(key string, raw []byte, hint RewardHint) error {
	size := int64(len(raw))
	sp.putMu.Lock()
	defer sp.putMu.Unlock()
	if sp.s.Has(key) {
		sp.s.SetHint(key, hint)
		return nil // already admitted; no room needed, nothing to evict
	}
	sp.s.mu.RLock()
	reachable := sp.s.budget - sp.s.used + sp.s.evictableBytes()
	overBudget := sp.s.budget > 0 && size > reachable
	sp.s.mu.RUnlock()
	if overBudget {
		return fmt.Errorf("%w: need %d, at most %d freeable of %d", ErrBudgetExceeded, size, reachable, sp.s.budget)
	}
	ev := sp.s.EvictColdest(size)
	sp.evictions.Add(int64(len(ev)))
	return sp.s.PutBytesHint(key, raw, hint)
}

// PutEncoded admits an already-encoded value; the caller keeps ownership
// of enc. Like Store.PutEncoded this performs no encode of its own —
// spilled values are never re-encoded.
func (sp *Spill) PutEncoded(key string, enc *Encoded) error {
	return sp.PutBytes(key, enc.Bytes())
}

// PutEncodedHint is PutEncoded with a recompute-saving hint (see
// PutBytesHint).
func (sp *Spill) PutEncodedHint(key string, enc *Encoded, hint RewardHint) error {
	return sp.PutBytesHint(key, enc.Bytes(), hint)
}

// SetHint refreshes the recompute-saving hint on an already-admitted entry.
func (sp *Spill) SetHint(key string, hint RewardHint) { sp.s.SetHint(key, hint) }

// Get loads and decodes the value for key, recording the measured cold-tier
// load cost on the entry.
func (sp *Spill) Get(key string) (any, error) { return sp.s.Get(key) }

// GetBytes loads the raw serialized bytes for key (see Store.GetBytes).
func (sp *Spill) GetBytes(key string) ([]byte, error) { return sp.s.GetBytes(key) }

// Has reports whether key is spilled.
func (sp *Spill) Has(key string) bool { return sp.s.Has(key) }

// Lookup returns the entry metadata for key.
func (sp *Spill) Lookup(key string) (Entry, bool) { return sp.s.Lookup(key) }

// Delete removes a spilled entry, releasing its budget.
func (sp *Spill) Delete(key string) error { return sp.s.Delete(key) }

// Pinned reports whether key currently holds at least one eviction pin
// (see Tiered.Pin).
func (sp *Spill) Pinned(key string) bool { return sp.s.Pinned(key) }

// Entries returns a snapshot of all spilled entries sorted by key.
func (sp *Spill) Entries() []Entry { return sp.s.Entries() }

// OwnerUsage reports per-owner byte usage (see Store.OwnerUsage).
func (sp *Spill) OwnerUsage() map[string]int64 { return sp.s.OwnerUsage() }

// Used returns the bytes currently consumed.
func (sp *Spill) Used() int64 { return sp.s.Used() }

// Budget returns the configured budget (<=0 means unlimited).
func (sp *Spill) Budget() int64 { return sp.s.Budget() }

// Remaining returns the budget headroom, or a very large value if unlimited.
func (sp *Spill) Remaining() int64 { return sp.s.Remaining() }

// EstimateLoad predicts the cold-tier load cost for a value of the given
// size from the tier's own smoothed throughput — the per-tier l_i the
// optimizer consults for spilled values.
func (sp *Spill) EstimateLoad(size int64) time.Duration { return sp.s.EstimateLoad(size) }

// Evictions returns how many entries this tier has deleted to make room
// since it was opened.
func (sp *Spill) Evictions() int64 { return sp.evictions.Load() }

// FaultKind selects a fault for InjectFault, the store-level half of the
// deterministic fault-injection harness.
type FaultKind int

const (
	// FaultBitFlip flips one payload bit on disk; the frame's checksum
	// verify fails and reads return ErrCorrupt.
	FaultBitFlip FaultKind = iota
	// FaultTruncate cuts the file short; the frame's length check fails and
	// reads return ErrCorrupt.
	FaultTruncate
	// FaultEIO makes every subsequent read of the key fail with a synthetic
	// I/O error (a failing device, not bad bytes). Cleared when the entry
	// is deleted or overwritten by a fresh admission.
	FaultEIO
)

// InjectFault damages key's stored frame (or arms a read fault) for tests
// and the chaos harness. Deterministic: the same fault on the same key
// always produces the same failure mode.
func (sp *Spill) InjectFault(key string, kind FaultKind) error {
	if !sp.s.Has(key) {
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	path := sp.s.path(key)
	switch kind {
	case FaultEIO:
		sp.s.injectReadFault(key, -1)
		return nil
	case FaultBitFlip:
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if len(raw) == 0 {
			return fmt.Errorf("store: inject %s: empty file", key)
		}
		raw[len(raw)-1] ^= 0x01 // last byte is always payload (or a short frame)
		return os.WriteFile(path, raw, 0o644)
	case FaultTruncate:
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		return os.Truncate(path, info.Size()/2)
	default:
		return fmt.Errorf("store: unknown fault kind %d", kind)
	}
}
