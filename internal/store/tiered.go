package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Tier names which store tier an operation touched.
type Tier int

const (
	// TierNone means no tier (a miss or a rejected write).
	TierNone Tier = iota
	// TierHot is the budgeted primary store.
	TierHot
	// TierCold is the spill tier.
	TierCold
)

func (t Tier) String() string {
	switch t {
	case TierHot:
		return "hot"
	case TierCold:
		return "cold"
	default:
		return "none"
	}
}

// TierCounters is a snapshot of a Tiered store's tier traffic.
type TierCounters struct {
	// Spills counts values the hot tier rejected on admission that landed
	// in the spill tier instead.
	Spills int64
	// ColdEvictions counts spill-tier entries deleted outright to make room
	// for new spills (those values are gone; the next iteration's cost
	// model sees them as not loadable and recomputes).
	ColdEvictions int64
	// CorruptFrames counts loads whose stored bytes were unusable: cold-tier
	// reads that failed frame verification (ErrCorrupt), and payloads in
	// either tier that failed to decode. The bad bytes are deleted on
	// detection, so the damage degrades to a one-time cache miss.
	CorruptFrames int64
	// ColdReads counts cold-tier reads that returned verified bytes.
	ColdReads int64
}

// Tiered composes the budgeted hot store with an optional cold spill tier
// (§2.3's storage budget, extended with the hot/cold hierarchy production
// caching systems use). Admission tries the hot tier first and spills on
// budget rejection. A value stays in the tier that admitted it: a Get that
// misses hot is decoded and served from the cold tier, and nothing ever
// moves between tiers. The hot tier therefore fills in admission order and
// is never rebalanced; a cold hit costs the cold tier's own measured load
// cost, which the optimizer prices like any other load.
//
// With a nil cold tier every method degrades to the plain hot store, so the
// execution engine runs one code path whether spilling is configured or not.
//
// The cold tier is a framed Store (OpenSpill) that never evicts on its own:
// every spill goes through admitCold, which deletes the tier's
// cheapest-to-lose unpinned entries to make room.
//
// Storage faults have one rule: a cold read that fails is a miss, and the
// engine recomputes the value from its lineage. Corrupt frames are counted
// and deleted so the damage costs one miss, not one per read.
//
// Concurrency: cold admissions serialize on mu. Reads never take it: every
// file is published by temp-then-rename, so a read that races an eviction
// either reads the whole frame or fails, and a failure is a miss.
type Tiered struct {
	hot  *Store
	cold *Store

	// mu serializes cold admissions, so one admission's eviction pass cannot
	// consume the room another admission just checked for.
	mu sync.Mutex

	spills        atomic.Int64
	coldEvictions atomic.Int64
	corrupt       atomic.Int64
	coldReads     atomic.Int64

	// flightMu guards flights, the in-flight computation registry
	// (BeginCompute/FinishCompute): one leader per key currently being
	// computed, any number of waiters parked on its resolution. Lazily
	// allocated; independent of mu so single-flight bookkeeping never
	// contends with cold-tier I/O.
	flightMu sync.Mutex
	flights  map[string]*inflight
}

// NewTiered combines a hot store with an optional (nil-able) spill tier
// opened with OpenSpill.
func NewTiered(hot, cold *Store) *Tiered {
	return &Tiered{hot: hot, cold: cold}
}

// Pin marks key as planned-for-load in the cold tier, exempting it from the
// spill tier's eviction until Unpin. The hot tier never evicts, so pinning
// the cold tier alone guarantees a planned-load key survives the whole run.
// Pins are refcounted; no-op without a cold tier.
func (t *Tiered) Pin(key string) {
	if t.cold != nil {
		t.cold.Pin(key)
	}
}

// Unpin releases one Pin of key.
func (t *Tiered) Unpin(key string) {
	if t.cold != nil {
		t.cold.Unpin(key)
	}
}

// Hot exposes the hot tier.
func (t *Tiered) Hot() *Store { return t.hot }

// Cold exposes the spill tier (nil when tiering is disabled). Writes made
// directly on it never evict; only Tiered's own admissions do.
func (t *Tiered) Cold() *Store { return t.cold }

// Counters snapshots the cumulative tier traffic.
func (t *Tiered) Counters() TierCounters {
	return TierCounters{
		Spills:        t.spills.Load(),
		ColdEvictions: t.coldEvictions.Load(),
		CorruptFrames: t.corrupt.Load(),
		ColdReads:     t.coldReads.Load(),
	}
}

// Has reports whether key is stored in either tier.
func (t *Tiered) Has(key string) bool {
	if t.hot.Has(key) {
		return true
	}
	return t.cold != nil && t.cold.Has(key)
}

// Lookup returns the entry metadata for key and the tier holding it. The
// entry's LoadCost is the holding tier's own measured (or seeded) estimate,
// so the optimizer's recompute-vs-load decision prices a spilled value at
// the real, slower cold-tier cost.
func (t *Tiered) Lookup(key string) (Entry, Tier, bool) {
	if e, ok := t.hot.Lookup(key); ok {
		return e, TierHot, true
	}
	if t.cold != nil {
		if e, ok := t.cold.Lookup(key); ok {
			return e, TierCold, true
		}
	}
	return Entry{}, TierNone, false
}

// Remaining returns the admission headroom: the largest value the tiered
// store can still accept. The spill tier deletes its coldest entries to
// make room, so with a cold tier attached anything up to the cold budget
// (or anything at all, when the cold tier is unbudgeted) is admissible even
// after the hot tier fills.
func (t *Tiered) Remaining() int64 {
	rem := t.hot.Remaining()
	if t.cold == nil {
		return rem
	}
	if cb := t.cold.Budget(); cb <= 0 {
		return 1 << 60
	} else if cb > rem {
		return cb
	}
	return rem
}

// OwnerUsage reports per-owner byte usage across both tiers (unowned
// entries under the empty key).
func (t *Tiered) OwnerUsage() map[string]int64 {
	out := t.hot.OwnerUsage()
	if t.cold != nil {
		for owner, n := range t.cold.OwnerUsage() {
			out[owner] += n
		}
	}
	return out
}

// EstimateLoad predicts the load cost of a value of the given size from the
// tier it would land in if admitted now: the hot tier's throughput while the
// value fits the hot budget, the (slower) cold tier's once it would spill.
func (t *Tiered) EstimateLoad(size int64) time.Duration {
	if t.cold == nil || t.hot.Remaining() >= size {
		return t.hot.EstimateLoad(size)
	}
	return t.cold.EstimateLoad(size)
}

// PutBytes admits pre-encoded bytes: hot tier first, spilling to the cold
// tier when the hot budget rejects the value. Returns the tier the value
// landed in.
func (t *Tiered) PutBytes(key string, raw []byte) (Tier, error) {
	return t.PutBytesHint(key, raw, RewardHint{})
}

// PutBytesHint is PutBytes with a recompute-saving hint (see RewardHint)
// that travels with the value into whichever tier admits it, feeding the
// cold tier's reward-aware eviction.
func (t *Tiered) PutBytesHint(key string, raw []byte, hint RewardHint) (Tier, error) {
	// A key the cold tier already holds (spilled earlier in this run or a
	// previous one) stays there: re-admitting it hot, even with room now,
	// would keep the key in two tiers. Refresh its hint, like Store.PutBytes
	// does for an idempotent re-admission.
	if t.cold != nil && t.cold.Has(key) {
		t.cold.SetHint(key, hint)
		return TierCold, nil
	}
	err := t.hot.PutBytesHint(key, raw, hint)
	if err == nil {
		return TierHot, nil
	}
	if t.cold == nil || !errors.Is(err, ErrBudgetExceeded) {
		return TierNone, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cold.Has(key) {
		// A concurrent put of the same key spilled it first.
		t.cold.SetHint(key, hint)
		return TierCold, nil
	}
	if cerr := t.admitCold(key, raw, hint); cerr != nil {
		return TierNone, fmt.Errorf("store: spill %s: %w", key, cerr)
	}
	t.spills.Add(1)
	return TierCold, nil
}

// admitCold admits raw into the cold tier, deleting the tier's
// cheapest-to-lose unpinned entries (see Store.EvictColdest) as needed to
// make room. A value that cannot fit even after evicting every unpinned entry
// — larger than the whole budget, or crowded out by pinned planned-load
// keys — is rejected up front with ErrBudgetExceeded and evicts nothing: a
// doomed admission must not destroy values to make room it can never have.
// Callers hold t.mu, which serializes every cold admission, so no other
// admission can take the room this one checks for and frees.
func (t *Tiered) admitCold(key string, raw []byte, hint RewardHint) error {
	size := int64(len(raw))
	if b := t.cold.Budget(); b > 0 {
		if reachable := t.cold.freeable(); size > reachable {
			return fmt.Errorf("%w: need %d, at most %d freeable of %d", ErrBudgetExceeded, size, reachable, b)
		}
	}
	t.coldEvictions.Add(int64(len(t.cold.EvictColdest(size))))
	return t.cold.PutBytesHint(key, raw, hint)
}

// PutEncoded admits an already-encoded value (the caller keeps ownership of
// enc), spilling on hot-tier rejection. No tier re-encodes the value.
func (t *Tiered) PutEncoded(key string, enc *Encoded) (Tier, error) {
	return t.PutBytes(key, enc.Bytes())
}

// PutEncodedHint is PutEncoded with a recompute-saving hint (see
// PutBytesHint).
func (t *Tiered) PutEncodedHint(key string, enc *Encoded, hint RewardHint) (Tier, error) {
	return t.PutBytesHint(key, enc.Bytes(), hint)
}

// SetHint refreshes the recompute-saving hint on whichever tier holds key.
// A no-op for a zero hint or an unknown key.
func (t *Tiered) SetHint(key string, hint RewardHint) {
	t.hot.SetHint(key, hint)
	if t.cold != nil {
		t.cold.SetHint(key, hint)
	}
}

// Get loads and decodes the value for key from the tier that holds it and
// returns that tier. Neither tier's read takes mu (see Tiered). Any read
// error is the caller's miss. A cold frame that fails verification is also
// deleted here, and bytes that fail to decode in decodeAndRecord.
func (t *Tiered) Get(key string) (any, Tier, error) {
	raw, start, hotErr := t.hot.read(key)
	if hotErr == nil {
		return t.decodeAndRecord(t.hot, key, raw, time.Since(start), TierHot)
	}
	if t.cold == nil {
		return nil, TierNone, hotErr
	}
	payload, start, err := t.cold.read(key)
	if err != nil {
		if errors.Is(err, ErrCorrupt) {
			// Damaged bytes are unrecoverable: count and delete the frame
			// so the corruption degrades to a one-time cache miss instead
			// of poisoning every later read of the key.
			t.corrupt.Add(1)
			_ = t.cold.Delete(key)
		}
		// A cold miss must not mask a real hot-tier failure: if the hot
		// tier holds the key but its read failed (I/O error), that error
		// is the diagnosable one.
		if !errors.Is(hotErr, ErrNotFound) {
			return nil, TierNone, hotErr
		}
		return nil, TierNone, err
	}
	t.coldReads.Add(1)
	return t.decodeAndRecord(t.cold, key, payload, time.Since(start), TierCold)
}

// decodeAndRecord finishes a load: decode the raw bytes and land the
// measured load cost — read plus decode, the full price a consumer pays —
// on the serving tier's entry. Bytes that do not decode
// (a torn unframed hot file, a payload in a format this version does not
// read) never will: the key is deleted from every tier holding it and
// counted in CorruptFrames. Left in place, it would keep the cost model
// planning a load that always falls back to recompute, and block
// re-materializing the recomputed value.
func (t *Tiered) decodeAndRecord(tier *Store, key string, raw []byte, readDur time.Duration, served Tier) (any, Tier, error) {
	decStart := time.Now()
	v, err := Decode(raw)
	if err != nil {
		t.corrupt.Add(1)
		// ErrNotFound from the tier not holding the key is expected.
		_ = t.hot.Delete(key)
		if t.cold != nil {
			_ = t.cold.Delete(key)
		}
		return nil, served, err
	}
	tier.recordRead(key, int64(len(raw)), readDur+time.Since(decStart))
	return v, served, nil
}
