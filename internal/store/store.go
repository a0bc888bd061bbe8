// Package store is HELIX's materialization store (§2.3): a disk-backed,
// content-addressed repository of intermediate results under a maximum
// storage budget. Results are keyed by their Merkle result signature
// (internal/sig), so a stored value is valid for reuse exactly when a later
// iteration derives the same signature — the store itself never needs an
// invalidation protocol.
//
// Values are encoded with one self-describing codec: the reflection-free
// binary format of internal/codec, covering the builtins and every value
// type registered with codec.RegisterValue. A value of any other type is
// not encodable, so it is never materialized. The store tracks measured
// write/read throughput so the optimizer can estimate load costs for
// results it has not touched yet.
package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
)

// ErrBudgetExceeded is returned by Put when a value does not fit in the
// remaining storage budget.
var ErrBudgetExceeded = errors.New("store: storage budget exceeded")

// ErrNotFound is returned by Get for unknown keys.
var ErrNotFound = errors.New("store: key not found")

// Entry describes one stored result.
type Entry struct {
	Key  string
	Size int64
	// LoadCost is the measured wall-clock of the last Get, or an estimate
	// from throughput if never loaded.
	LoadCost time.Duration
	// Stored is when the entry was written (monotonic ordering only).
	Stored time.Time
	// LastAccess is when the entry was last written or read — the recency
	// eviction falls back to when recompute savings tie.
	LastAccess time.Time
	// Recompute estimates the wall-clock nanoseconds it would take to
	// rebuild this value from scratch — the producing node's compute cost
	// plus every ancestor the rebuild transitively forces (the paper's
	// c_i + sum of ancestor costs). Zero means unknown; eviction treats an
	// unknown as zero saving, so unhinted entries degrade to pure recency
	// ordering.
	Recompute int64
	// Owner labels which tenant's materialization produced the bytes
	// (per-tenant budget accounting in a shared multi-session store). The
	// first writer owns the entry for its lifetime — content addressing
	// makes later re-puts byte-identical, so ownership never needs to
	// transfer. Empty for single-user stores and entries adopted from
	// disk.
	Owner string
}

// RewardHint carries the recompute-saving estimate a caller attaches to an
// admission: how expensive the stored value would be to rebuild. The store
// turns it into a per-byte eviction reward (saving = recompute − load cost,
// divided by size) — the per-result reward r_i of the paper's
// materialization policy, reused as the eviction ranking.
type RewardHint struct {
	// RecomputeNanos is the estimated nanoseconds to recompute the value
	// from scratch, ancestors included. Zero means unknown.
	RecomputeNanos int64
	// Owner is the tenant whose run produced the value (see Entry.Owner).
	// Empty leaves the entry unowned; an owner on a re-put of an existing
	// unowned entry adopts it (entries from older single-user runs gain an
	// accountable owner), but never overwrites an existing owner.
	Owner string
}

// Store is a budgeted, content-addressed disk store, and the one store type
// behind both tiers of a Tiered store: Open makes a hot tier, OpenSpill a
// framed cold tier. Safe for concurrent use: metadata reads share a read
// lock, and writes reserve budget under the exclusive lock but perform file
// I/O unlocked, so the execution engine's background materialization
// writers neither serialize behind each other nor stall readers.
type Store struct {
	mu      sync.RWMutex
	dir     string
	budget  int64 // bytes; <=0 means unlimited
	used    int64
	entries map[string]*Entry

	// pins holds refcounts for keys the execution engine still plans to
	// load this run; EvictColdest never deletes a pinned entry. Entry.Size,
	// the budget, and eviction order are unaffected — pinning only narrows
	// the victim set.
	pins map[string]int

	// writing marks keys whose first admission is mid-flight (budget
	// reserved, file write in progress, entry not yet published). A
	// concurrent PutBytesHint of the same key returns success without
	// reserving or writing — content addressing guarantees the in-flight
	// bytes are the same — and merges its hint into the pending record,
	// which the in-flight writer applies to the entry on publish.
	writing map[string]*RewardHint

	// framed stores (the cold spill tier) wrap every file in a
	// length+checksum header (see frame.go), verify it on read and fsync
	// the temp file before the rename: reads of a damaged frame return
	// ErrCorrupt, and a crash mid-write can never leave a half-written file
	// that later parses as valid.
	framed bool

	// failReads is the test-only read fault hook: keys with a non-zero
	// count fail their next reads with an injected I/O error (<0 =
	// persistent). Guarded by faultMu, not mu, so the hook never contends
	// with the metadata lock.
	faultMu   sync.Mutex
	failReads map[string]int

	// readBps is the read-throughput estimate (bytes/sec), exponentially
	// smoothed.
	readBps float64
}

// DefaultThroughput seeds the load-cost estimate before any I/O has been
// measured: 500 MB/s, a conservative figure for buffered local disk reads.
const DefaultThroughput = 500e6

// ColdThroughput seeds the spill tier's load-cost estimate before any I/O
// has been measured: 80 MB/s, modeling the slower medium a production cold
// tier sits on (network or archival storage). Measured observations smooth
// toward the tier's real throughput, but the asymmetric seed is what makes
// cold-start recompute-vs-load decisions price a spilled value honestly
// more expensive than a hot one.
const ColdThroughput = 80e6

// Open creates or reuses a store rooted at dir with the given budget in
// bytes (<=0 disables the budget). Existing key files in dir are adopted;
// temp files a crashed write left behind are deleted, and files other
// components keep beside the values (a session's helix-history.json) are
// left alone.
func Open(dir string, budget int64) (*Store, error) {
	return open(dir, budget, false, DefaultThroughput)
}

// OpenSpill opens a store for the cold spill tier of a Tiered store: like
// Open, but every file is framed — a length+CRC-32C header (see frame.go)
// verified on read — and admissions fsync before the rename, so neither a
// crash mid-write nor later on-disk damage can hand a later iteration
// silently wrong bytes: both surface as ErrCorrupt, which the engine treats
// as a cache miss. Load costs are seeded at ColdThroughput. The store
// itself never evicts; Tiered deletes the tier's cheapest-to-lose entries
// to admit spills.
func OpenSpill(dir string, budget int64) (*Store, error) {
	return open(dir, budget, true, ColdThroughput)
}

func open(dir string, budget int64, framed bool, seedBps float64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	s := &Store{
		dir:     dir,
		budget:  budget,
		entries: make(map[string]*Entry),
		pins:    make(map[string]int),
		framed:  framed,
		readBps: seedBps,
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: scan dir: %w", err)
	}
	for _, f := range files {
		if f.IsDir() {
			continue
		}
		// Keys are hex signatures and never contain a '.': a dotted name is
		// a write's "<key>.<n>.tmp" or a file the store does not own.
		if name := f.Name(); strings.Contains(name, ".") {
			if strings.HasSuffix(name, ".tmp") {
				// Best effort: a leftover that cannot be removed is still
				// never adopted.
				_ = os.Remove(filepath.Join(dir, name))
			}
			continue
		}
		info, err := f.Info()
		if err != nil {
			continue // file vanished between ReadDir and Info
		}
		size := info.Size()
		if framed {
			// Entry.Size is always the payload size; the header is a fixed
			// on-disk overhead the budget does not account. A file shorter
			// than a header (or an unframed file adopted from an older
			// layout) is surfaced as ErrCorrupt on first read.
			if size -= frameHeaderSize; size < 0 {
				size = 0
			}
		}
		e := &Entry{Key: f.Name(), Size: size, Stored: info.ModTime(), LastAccess: info.ModTime()}
		e.LoadCost = s.estimateLoad(e.Size)
		s.entries[f.Name()] = e
		s.used += size
	}
	return s, nil
}

// estimateLoad predicts a Get duration from size and smoothed throughput.
// Callers must hold mu (read or write) or be in single-threaded setup.
func (s *Store) estimateLoad(size int64) time.Duration {
	return time.Duration(float64(size) / s.readBps * float64(time.Second))
}

// EstimateLoad predicts the load cost for a value of the given size.
func (s *Store) EstimateLoad(size int64) time.Duration {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.estimateLoad(size)
}

func (s *Store) path(key string) string {
	// Keys are hex signatures; filepath.Base defends against traversal if a
	// caller ever passes something else.
	return filepath.Join(s.dir, filepath.Base(key))
}

// Codec used to select the value serialization format. The store now has
// exactly one format, so the type holds no choice.
//
// Deprecated: kept only so configuration structs that still carry a Codec
// field compile; setting it has no effect.
type Codec struct{}

// markerBinary is the format tag every encoded payload starts with. Decode
// rejects any other first byte — notably the 'G' of gob payloads written by
// older versions — so such entries read as corrupt and are recomputed.
const markerBinary byte = 'B'

// encodes counts every encode performed through the store's codec (Encode
// and EncodeValue). The execution engine's encode-once contract — each
// materialized value is serialized exactly once, with the size probe
// reused for the persist — is asserted against it in tests.
var encodes atomic.Int64

// EncodeCalls returns the total number of value encodes performed through
// the store's codec since process start. Instrumentation only: take a
// snapshot before and after the section under test and compare the delta.
func EncodeCalls() int64 { return encodes.Load() }

// encBufPool recycles encode buffers across materializations so the hot
// path of the execution engine's writer pipeline does not allocate a fresh
// buffer (and its geometric growth steps) for every value.
var encBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// binWriterPool recycles codec.Writers (their backing slices) for the
// binary encode path.
var binWriterPool = sync.Pool{New: func() any { return new(codec.Writer) }}

// Encoded is one encoded value backed by a pooled buffer. Callers that are
// done with the bytes should Release it so the buffer returns to the pool;
// the bytes must not be used after Release.
type Encoded struct {
	buf *bytes.Buffer
}

// Bytes returns the serialized bytes. Valid until Release.
func (e *Encoded) Bytes() []byte { return e.buf.Bytes() }

// Size returns the serialized length in bytes.
func (e *Encoded) Size() int64 { return int64(e.buf.Len()) }

// Release returns the backing buffer to the encode pool. Safe to call once;
// the Encoded must not be used afterwards.
func (e *Encoded) Release() {
	if e.buf != nil {
		e.buf.Reset()
		encBufPool.Put(e.buf)
		e.buf = nil
	}
}

// EncodeValue encodes a value into a pooled buffer: the format tag, then
// the binary codec's encoding. A value whose type (or a nested value's
// type) has no codec.RegisterValue entry fails with codec.ErrUnregistered.
// It is the encode-once entry point of the execution engine: the same
// Encoded probes the size for the materialization decision and then
// persists through PutBytes(enc.Bytes()), so each value is serialized exactly once.
func EncodeValue(value any) (*Encoded, error) {
	w := binWriterPool.Get().(*codec.Writer)
	defer binWriterPool.Put(w)
	w.Reset()
	if err := codec.EncodeValue(w, value); err != nil {
		return nil, fmt.Errorf("store: encode: %w", err)
	}
	encodes.Add(1)
	buf := encBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	buf.WriteByte(markerBinary)
	buf.Write(w.Bytes())
	return &Encoded{buf: buf}, nil
}

// Encode serializes a value, returning its bytes.
// Exposed so callers outside the engine's encode-once pipeline (tests,
// comparisons) can serialize without buffer-lifetime bookkeeping.
func Encode(value any) ([]byte, error) {
	enc, err := EncodeValue(value)
	if err != nil {
		return nil, err
	}
	defer enc.Release()
	return append([]byte(nil), enc.Bytes()...), nil
}

// Decode reverses Encode / EncodeValue. A payload that does not start with
// the format tag is an error. Decoded values never alias raw.
func Decode(raw []byte) (any, error) {
	if len(raw) == 0 {
		return nil, errors.New("store: decode: empty payload")
	}
	if raw[0] != markerBinary {
		return nil, fmt.Errorf("store: decode: unknown format tag 0x%02x", raw[0])
	}
	value, err := codec.DecodeValue(codec.NewReader(raw[1:]))
	if err != nil {
		return nil, fmt.Errorf("store: decode: %w", err)
	}
	return value, nil
}

// PutBytes stores pre-encoded bytes under key, enforcing the budget.
// Overwrites of an existing key are idempotent no-ops (content addressing
// makes re-writes byte-identical).
func (s *Store) PutBytes(key string, raw []byte) error {
	return s.PutBytesHint(key, raw, RewardHint{})
}

// PutBytesHint is PutBytes with a recompute-saving hint attached to the
// entry (see RewardHint). Re-admitting an existing key refreshes its hint
// — the bytes are identical by content addressing, but the caller's cost
// estimate may have improved — and remains an idempotent no-op otherwise.
// Two concurrent first admissions of the same key (two tenants
// materializing the same sub-DAG result in a shared store) are also
// idempotent: the second caller returns success immediately and the first
// write's bytes stand — without this guard both would reserve budget and
// interleave writes into one temp file. The second caller's hint is merged
// into the in-flight write and applied when its entry publishes. A guarded
// return does not guarantee the entry exists: if the racing write then
// fails, the key stays absent and a later Get misses — recompute recovery
// covers that, same as any eviction.
func (s *Store) PutBytesHint(key string, raw []byte, hint RewardHint) error {
	s.mu.Lock()
	if e, exists := s.entries[key]; exists {
		if hint.RecomputeNanos > 0 {
			e.Recompute = hint.RecomputeNanos
		}
		if e.Owner == "" {
			e.Owner = hint.Owner
		}
		s.mu.Unlock()
		return nil
	}
	if pending, inFlight := s.writing[key]; inFlight {
		// An identical admission is in flight (content addressing: same key
		// means same bytes). Fold this caller's hint into the pending write
		// so it is not lost, and let the racing writer publish the entry.
		if hint.RecomputeNanos > pending.RecomputeNanos {
			pending.RecomputeNanos = hint.RecomputeNanos
		}
		if pending.Owner == "" {
			pending.Owner = hint.Owner
		}
		s.mu.Unlock()
		return nil
	}
	size := int64(len(raw))
	if s.budget > 0 && s.used+size > s.budget {
		// Snapshot the headroom before unlocking: formatting the error from
		// s.used after the unlock would race concurrent Puts and Deletes.
		have := s.budget - s.used
		s.mu.Unlock()
		return fmt.Errorf("%w: need %d, have %d of %d", ErrBudgetExceeded, size, have, s.budget)
	}
	// Reserve before the write so concurrent Puts cannot oversubscribe.
	s.used += size
	if s.writing == nil {
		s.writing = make(map[string]*RewardHint)
	}
	pending := &RewardHint{RecomputeNanos: hint.RecomputeNanos, Owner: hint.Owner}
	s.writing[key] = pending
	s.mu.Unlock()

	tmp := fmt.Sprintf("%s.%d.tmp", s.path(key), tmpSeq.Add(1))
	err := s.writeFile(tmp, raw)
	if err == nil {
		err = os.Rename(tmp, s.path(key))
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.writing, key)
	if err != nil {
		s.used -= size
		os.Remove(tmp)
		return fmt.Errorf("store: write %s: %w", key, err)
	}
	now := time.Now()
	// pending carries any hints merged in by concurrent duplicate admissions
	// that returned while this write was in flight.
	s.entries[key] = &Entry{Key: key, Size: size, LoadCost: s.estimateLoad(size), Stored: now, LastAccess: now, Recompute: pending.RecomputeNanos, Owner: pending.Owner}
	return nil
}

// tmpSeq makes temp-file names unique across concurrent writers, so a
// same-key write race (already serialized by the writing guard above) or a
// crash-leftover .tmp can never be renamed over by an unrelated write.
var tmpSeq atomic.Int64

// SetHint refreshes the recompute-saving hint on an already-stored entry
// (cost models re-estimate across iterations; adopted entries start with no
// hint at all). A no-op for unknown keys or a zero hint.
func (s *Store) SetHint(key string, hint RewardHint) {
	if hint.RecomputeNanos <= 0 {
		return
	}
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		e.Recompute = hint.RecomputeNanos
	}
	s.mu.Unlock()
}

// writeFile writes one payload to path: framed stores prepend the
// length+checksum header and fsync before returning, so the caller's rename
// publishes only fully-durable bytes (fsync-then-rename — a crash mid-write
// leaves a .tmp that is never adopted, never a half-written frame under the
// real key).
func (s *Store) writeFile(path string, payload []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if s.framed {
		if err = writeFrame(f, payload); err == nil {
			err = f.Sync()
		}
	} else {
		_, err = f.Write(payload)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Put encodes and stores a value.
func (s *Store) Put(key string, value any) error {
	enc, err := EncodeValue(value)
	if err != nil {
		return err
	}
	defer enc.Release()
	return s.PutBytes(key, enc.Bytes())
}

// Get loads and decodes the value for key, recording the measured load cost
// — file read plus decode, the full price a consumer pays — on the entry
// (the l_i the next iteration's optimizer will use).
func (s *Store) Get(key string) (any, error) {
	raw, start, err := s.read(key)
	if err != nil {
		return nil, err
	}
	value, err := Decode(raw)
	if err != nil {
		return nil, err
	}
	s.recordRead(key, int64(len(raw)), time.Since(start))
	return value, nil
}

// GetBytes loads the raw serialized bytes for key, recording the measured
// load cost and access recency on the entry. External callers use it to
// read stored bytes without decoding.
func (s *Store) GetBytes(key string) ([]byte, error) {
	raw, start, err := s.read(key)
	if err != nil {
		return nil, err
	}
	s.recordRead(key, int64(len(raw)), time.Since(start))
	return raw, nil
}

// errInjectedRead is the synthetic I/O failure raised by the injectReadFault
// test hook; it stands in for an EIO from a failing device.
var errInjectedRead = errors.New("injected I/O fault")

// injectReadFault arms the read fault hook: the next n reads of key fail
// with an injected I/O error (n<0 = every read until the entry is deleted).
func (s *Store) injectReadFault(key string, n int) {
	s.faultMu.Lock()
	if s.failReads == nil {
		s.failReads = make(map[string]int)
	}
	if n == 0 {
		delete(s.failReads, key)
	} else {
		s.failReads[key] = n
	}
	s.faultMu.Unlock()
}

// FaultKind selects a fault for InjectFault, the store-level half of the
// deterministic fault-injection harness.
type FaultKind int

const (
	// FaultBitFlip flips one payload bit on disk; a framed store's checksum
	// verify fails and reads return ErrCorrupt.
	FaultBitFlip FaultKind = iota
	// FaultTruncate cuts the file short; a framed store's length check
	// fails and reads return ErrCorrupt.
	FaultTruncate
	// FaultEIO makes every subsequent read of the key fail with a synthetic
	// I/O error (a failing device, not bad bytes). Cleared when the entry
	// is deleted or overwritten by a fresh admission.
	FaultEIO
)

// InjectFault damages key's stored file (or arms a read fault) for tests
// and the chaos harness. Deterministic: the same fault on the same key
// always produces the same failure mode.
func (s *Store) InjectFault(key string, kind FaultKind) error {
	if !s.Has(key) {
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	path := s.path(key)
	switch kind {
	case FaultEIO:
		s.injectReadFault(key, -1)
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

// takeReadFault consumes one armed read fault for key, if any.
func (s *Store) takeReadFault(key string) bool {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	n, ok := s.failReads[key]
	if !ok {
		return false
	}
	if n > 0 {
		if n--; n == 0 {
			delete(s.failReads, key)
		} else {
			s.failReads[key] = n
		}
	}
	return true
}

// read fetches key's raw bytes without recording an observation; the
// caller stops the clock (after decoding, when it decodes) and calls
// recordRead, so LoadCost always measures the full path a consumer paid.
// On a framed store the frame is verified and stripped here, so every
// consumer of raw bytes — Get, GetBytes, Tiered.Get — sees either
// intact payload bytes or ErrCorrupt.
func (s *Store) read(key string) ([]byte, time.Time, error) {
	s.mu.RLock()
	_, ok := s.entries[key]
	path := s.path(key)
	s.mu.RUnlock()
	start := time.Now()
	if !ok {
		return nil, start, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if s.takeReadFault(key) {
		return nil, start, fmt.Errorf("store: read %s: %w", key, errInjectedRead)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, start, fmt.Errorf("store: read %s: %w", key, err)
	}
	if s.framed {
		payload, ferr := verifyFrame(raw)
		if ferr != nil {
			return nil, start, fmt.Errorf("store: read %s: %w", key, ferr)
		}
		raw = payload
	}
	return raw, start, nil
}

// recordRead lands a measured load on the entry: load cost, access
// recency, and the tier's read-throughput estimate.
func (s *Store) recordRead(key string, size int64, elapsed time.Duration) {
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		e.LoadCost = elapsed
		e.LastAccess = time.Now()
	}
	s.observeRead(size, elapsed)
	s.mu.Unlock()
}

// Pin marks key as planned-for-load: EvictColdest will not delete it until
// a matching Unpin. Pins are refcounted (two pinners must both unpin) and
// key need not be stored yet — a pin placed before a spill lands still
// protects the spilled bytes.
func (s *Store) Pin(key string) {
	s.mu.Lock()
	s.pins[key]++
	s.mu.Unlock()
}

// Unpin releases one Pin of key.
func (s *Store) Unpin(key string) {
	s.mu.Lock()
	if s.pins[key] > 1 {
		s.pins[key]--
	} else {
		delete(s.pins, key)
	}
	s.mu.Unlock()
}

// Pinned reports whether key currently holds at least one pin.
func (s *Store) Pinned(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pins[key] > 0
}

// saving is the entry's eviction reward: the nanoseconds a future consumer
// saves by loading it instead of recomputing it. Unknown recompute costs
// (and entries cheaper to recompute than to load) save nothing.
func (e *Entry) saving() int64 {
	s := e.Recompute - e.LoadCost.Nanoseconds()
	if e.Recompute <= 0 || s < 0 {
		return 0
	}
	return s
}

// savingPerByte normalizes the eviction reward by size, so a huge blob with
// a modest saving ranks below a tiny one guarding an expensive sub-DAG.
func (e *Entry) savingPerByte() float64 {
	sv := e.saving()
	if sv == 0 {
		return 0
	}
	if e.Size <= 0 {
		// A zero-byte entry with a positive saving is infinitely cheap to
		// keep; rank it last.
		return float64(sv) * float64(time.Second)
	}
	return float64(sv) / float64(e.Size)
}

// victimOrder snapshots the entries best-victim-first: smallest
// saving-per-byte (the entry's eviction reward) first, with recency (then
// key) as the tie-break, so a tier full of unhinted entries evicts
// least-recently-accessed first. Callers must hold mu. O(n log n) per call,
// fine at workflow scale (tens to hundreds of entries); a priority heap
// would be the upgrade if tier populations grow by orders of magnitude.
func (s *Store) victimOrder() []*Entry {
	victims := make([]*Entry, 0, len(s.entries))
	for _, e := range s.entries {
		victims = append(victims, e)
	}
	sort.Slice(victims, func(i, j int) bool {
		si, sj := victims[i].savingPerByte(), victims[j].savingPerByte()
		if si != sj {
			return si < sj
		}
		if !victims[i].LastAccess.Equal(victims[j].LastAccess) {
			return victims[i].LastAccess.Before(victims[j].LastAccess)
		}
		return victims[i].Key < victims[j].Key // deterministic tie-break
	})
	return victims
}

// EvictColdest removes the cheapest-to-lose entries (see victimOrder)
// until the free budget reaches need bytes, deleting their files outright,
// and returns the evicted entries. Tiered uses it to admit values into the
// cold tier; an evicted value is gone. Pinned entries (keys the current run
// still plans to load) are never victims, so within-run eviction cannot
// delete a value the plan depends on — if only pinned entries remain, the
// admission simply fails its budget check instead. On an unbudgeted store,
// or when need already fits, nothing is evicted.
func (s *Store) EvictColdest(need int64) []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.budget <= 0 || s.budget-s.used >= need {
		return nil
	}
	var victims []Entry
	for _, e := range s.victimOrder() {
		if s.budget-s.used >= need {
			break
		}
		if s.pins[e.Key] > 0 {
			continue // planned-load key; never deleted mid-run
		}
		delete(s.entries, e.Key)
		s.used -= e.Size
		// Unlink under the lock, like Delete: a re-admission of the key
		// must not have its fresh file removed. A failed unlink leaves an
		// orphan file, which the next open adopts as an entry again.
		_ = os.Remove(s.path(e.Key))
		victims = append(victims, *e)
	}
	return victims
}

// freeable is the most free budget an EvictColdest pass could reach: the
// current headroom plus every unpinned entry.
func (s *Store) freeable() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := s.budget - s.used
	for _, e := range s.entries {
		if s.pins[e.Key] == 0 {
			total += e.Size
		}
	}
	return total
}

// Has reports whether key is stored.
func (s *Store) Has(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.entries[key]
	return ok
}

// Lookup returns the entry metadata for key.
func (s *Store) Lookup(key string) (Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e, ok := s.entries[key]; ok {
		return *e, true
	}
	return Entry{}, false
}

// Delete removes a stored entry, releasing its budget. The file is
// unlinked under the lock: unlinked after it, a concurrent re-admission of
// the same key could publish a fresh file only to have it removed, leaving
// an entry with no bytes behind it.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	delete(s.entries, key)
	s.used -= e.Size
	err := os.Remove(s.path(key))
	s.mu.Unlock()
	s.injectReadFault(key, 0) // a deleted entry's armed faults die with it
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: delete %s: %w", key, err)
	}
	return nil
}

// Used returns the bytes currently consumed.
func (s *Store) Used() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.used
}

// Budget returns the configured budget (<=0 means unlimited).
func (s *Store) Budget() int64 { return s.budget }

// Remaining returns the budget headroom, or a very large value if unlimited.
func (s *Store) Remaining() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.budget <= 0 {
		return 1 << 60
	}
	return s.budget - s.used
}

// OwnerUsage returns the bytes currently attributed to each owner (see
// Entry.Owner). Unowned entries are summed under the empty key. The serve
// layer's per-tenant budget admission reads this.
func (s *Store) OwnerUsage() map[string]int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]int64)
	for _, e := range s.entries {
		out[e.Owner] += e.Size
	}
	return out
}

// Entries returns a snapshot of all entries sorted by key.
func (s *Store) Entries() []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Entry, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// observeRead updates the smoothed read throughput; mu held.
func (s *Store) observeRead(size int64, d time.Duration) {
	s.readBps = smooth(s.readBps, size, d)
}

func smooth(prev float64, size int64, d time.Duration) float64 {
	if d <= 0 || size <= 0 {
		return prev
	}
	obs := float64(size) / d.Seconds()
	const alpha = 0.3
	return alpha*obs + (1-alpha)*prev
}
