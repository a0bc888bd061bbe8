package store

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func openSpillTemp(t *testing.T, budget int64) *Store {
	t.Helper()
	sp, err := OpenSpill(t.TempDir(), budget)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSmoothEWMA is the table-driven contract of the throughput smoother
// behind estimateLoad: alpha-weighted blending toward each observation,
// with degenerate observations (zero size or duration) leaving the
// estimate untouched.
func TestSmoothEWMA(t *testing.T) {
	const alpha = 0.3
	for _, tc := range []struct {
		name string
		prev float64
		size int64
		d    time.Duration
		want float64
	}{
		{"cold start blends toward first observation", DefaultThroughput, 1 << 20, time.Second,
			alpha*float64(1<<20) + (1-alpha)*DefaultThroughput},
		{"fast observation raises the estimate", 100e6, 400e6, time.Second, alpha*400e6 + (1-alpha)*100e6},
		{"slow observation lowers the estimate", 400e6, 100e6, time.Second, alpha*100e6 + (1-alpha)*400e6},
		{"steady state is a fixed point", 250e6, 250e6, time.Second, 250e6},
		{"zero duration is ignored", 300e6, 1 << 20, 0, 300e6},
		{"negative duration is ignored", 300e6, 1 << 20, -time.Second, 300e6},
		{"zero size is ignored", 300e6, 0, time.Second, 300e6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := smooth(tc.prev, tc.size, tc.d)
			if diff := got - tc.want; diff > 1 || diff < -1 {
				t.Fatalf("smooth(%v, %d, %v) = %v, want %v", tc.prev, tc.size, tc.d, got, tc.want)
			}
		})
	}
}

// TestEstimateLoadColdStartPerTier pins the cold-start pricing the
// optimizer sees before any I/O has been measured: a fresh hot tier
// estimates at DefaultThroughput, a fresh spill tier at the much slower
// ColdThroughput, so the same bytes cost ColdThroughput/DefaultThroughput
// times longer from cold — the asymmetry that makes recompute-vs-load
// decisions tier-aware.
func TestEstimateLoadColdStartPerTier(t *testing.T) {
	hot := openTemp(t, 0)
	cold := openSpillTemp(t, 0)
	for _, size := range []int64{1 << 10, 1 << 20, 64 << 20} {
		hotEst := hot.EstimateLoad(size)
		coldEst := cold.EstimateLoad(size)
		wantHot := time.Duration(float64(size) / DefaultThroughput * float64(time.Second))
		wantCold := time.Duration(float64(size) / ColdThroughput * float64(time.Second))
		if hotEst != wantHot {
			t.Errorf("size %d: hot estimate %v, want %v", size, hotEst, wantHot)
		}
		if coldEst != wantCold {
			t.Errorf("size %d: cold estimate %v, want %v", size, coldEst, wantCold)
		}
		if coldEst <= hotEst {
			t.Errorf("size %d: cold estimate %v not slower than hot %v", size, coldEst, hotEst)
		}
	}
}

// TestEstimateLoadSmoothedByObservation: measured reads move the per-tier
// estimate off its seed (the EWMA path of estimateLoad, end to end through
// Get), and the other tier's estimate is untouched.
func TestEstimateLoadSmoothedByObservation(t *testing.T) {
	hot := openTemp(t, 0)
	cold := openSpillTemp(t, 0)
	if err := hot.Put("k", []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	seed := hot.EstimateLoad(1 << 20)
	if _, err := hot.Get("k"); err != nil {
		t.Fatal(err)
	}
	if got := hot.EstimateLoad(1 << 20); got == seed {
		t.Errorf("hot estimate %v unchanged after a measured read", got)
	}
	wantCold := time.Duration(float64(1<<20) / ColdThroughput * float64(time.Second))
	if got := cold.EstimateLoad(1 << 20); got != wantCold {
		t.Errorf("cold estimate %v moved without any cold observation, want seed %v", got, wantCold)
	}
}

// TestEvictColdestLRU: eviction removes the least-recently-accessed
// entries first, exactly as many as the room needs, releasing their budget.
func TestEvictColdestLRU(t *testing.T) {
	s := openTemp(t, 3000)
	for i := 0; i < 3; i++ {
		if err := s.PutBytes(fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte('a' + i)}, 1000)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond) // distinct LastAccess ordering
	}
	// Refresh k0 so k1 becomes the coldest.
	if _, err := s.GetBytes("k0"); err != nil {
		t.Fatal(err)
	}
	victims := s.EvictColdest(1000)
	if len(victims) != 1 || victims[0].Key != "k1" {
		t.Fatalf("evicted %+v, want exactly k1", victims)
	}
	if s.Has("k1") || s.Used() != 2000 {
		t.Fatalf("k1 still present or budget not released: used %d", s.Used())
	}
	// Enough room already: eviction is a no-op.
	if v := s.EvictColdest(500); len(v) != 0 {
		t.Fatalf("evicted %+v with sufficient headroom", v)
	}
	// Unbudgeted stores never evict.
	u := openTemp(t, 0)
	if err := u.PutBytes("k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if v := u.EvictColdest(1 << 40); len(v) != 0 {
		t.Fatalf("unbudgeted store evicted %+v", v)
	}
}

// spillOnly wraps cold in a Tiered whose 1-byte hot tier rejects every
// value, so each PutBytes is a cold-tier admission through admitCold.
func spillOnly(t *testing.T, cold *Store) *Tiered {
	t.Helper()
	return NewTiered(openTemp(t, 1), cold)
}

// TestSpillAdmissionEvictsColdest: a cold-tier admission deletes the tier's
// least-recently-accessed entries to make room, counts the deletions, and
// rejects only values bigger than the tier's whole budget.
func TestSpillAdmissionEvictsColdest(t *testing.T) {
	sp := openSpillTemp(t, 2500)
	tv := spillOnly(t, sp)
	for i := 0; i < 2; i++ {
		if _, err := tv.PutBytes(fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte('a' + i)}, 1000)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := tv.PutBytes("k2", bytes.Repeat([]byte{'c'}, 1000)); err != nil {
		t.Fatal(err)
	}
	if sp.Has("k0") {
		t.Fatal("k0 (coldest) survived an admission that needed its room")
	}
	if !sp.Has("k1") || !sp.Has("k2") {
		t.Fatal("k1/k2 missing after admission")
	}
	if got := tv.Counters().ColdEvictions; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if _, err := tv.PutBytes("huge", make([]byte, 4000)); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("over-budget admission err = %v, want ErrBudgetExceeded", err)
	}
	if sp.Used() > sp.Budget() {
		t.Fatalf("spill used %d over budget %d", sp.Used(), sp.Budget())
	}
	// Idempotent re-admission of a present key must not evict anything,
	// even with the tier at capacity.
	before := tv.Counters().ColdEvictions
	if _, err := tv.PutBytes("k2", bytes.Repeat([]byte{'c'}, 1000)); err != nil {
		t.Fatal(err)
	}
	if got := tv.Counters().ColdEvictions; got != before {
		t.Fatalf("re-admitting a present key evicted %d entries", got-before)
	}
	if !sp.Has("k1") || !sp.Has("k2") {
		t.Fatal("entries lost to an idempotent re-admission")
	}
	// A write made on the cold store directly, not through Tiered, never
	// evicts: the full tier rejects it and keeps its entries.
	if err := sp.PutBytes("direct", bytes.Repeat([]byte{'d'}, 1000)); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("direct write to a full cold store err = %v, want ErrBudgetExceeded", err)
	}
	if !sp.Has("k1") || !sp.Has("k2") {
		t.Fatal("a direct write evicted entries")
	}
}

// TestTieredSpillOnRejection: hot-budget rejections land in the cold tier,
// are counted, and are visible through the union views with the cold
// tier's own (slower) load estimate.
func TestTieredSpillOnRejection(t *testing.T) {
	hot := openTemp(t, 1500)
	cold := openSpillTemp(t, 0)
	tiers := NewTiered(hot, cold)
	small := bytes.Repeat([]byte{'s'}, 1000)
	big := bytes.Repeat([]byte{'b'}, 1200)
	if tier, err := tiers.PutBytes("small", small); err != nil || tier != TierHot {
		t.Fatalf("small put → %v, %v; want hot", tier, err)
	}
	if tier, err := tiers.PutBytes("big", big); err != nil || tier != TierCold {
		t.Fatalf("big put → %v, %v; want cold (spilled)", tier, err)
	}
	if c := tiers.Counters(); c.Spills != 1 {
		t.Fatalf("spills = %d, want 1", c.Spills)
	}
	if !tiers.Has("big") || !tiers.Has("small") || tiers.Has("absent") {
		t.Fatal("union Has wrong")
	}
	entry, tier, ok := tiers.Lookup("big")
	if !ok || tier != TierCold || entry.Size != 1200 {
		t.Fatalf("Lookup(big) = %+v, %v, %v; want cold entry of 1200 bytes", entry, tier, ok)
	}
	// Per-tier pricing: the cold entry's seeded estimate is the cold
	// tier's, slower than what the hot tier would charge for the same size.
	if entry.LoadCost < cold.EstimateLoad(1200)/2 || entry.LoadCost <= hot.EstimateLoad(1200) {
		t.Fatalf("cold entry load cost %v not priced at the cold tier (hot %v, cold %v)",
			entry.LoadCost, hot.EstimateLoad(1200), cold.EstimateLoad(1200))
	}
	if hot.Used() > hot.Budget() {
		t.Fatalf("hot used %d over budget %d", hot.Used(), hot.Budget())
	}
}

// TestTieredOversizedStaysCold: a value larger than the whole hot budget
// spills and is served from cold on every read.
func TestTieredOversizedStaysCold(t *testing.T) {
	hot := openTemp(t, 500)
	cold := openSpillTemp(t, 0)
	tiers := NewTiered(hot, cold)
	raw := encBytes(t, bytes.Repeat([]byte{'y'}, 2000))
	if tier, err := tiers.PutBytes("big", raw); err != nil || tier != TierCold {
		t.Fatalf("big → %v, %v; want cold", tier, err)
	}
	for i := 0; i < 2; i++ {
		if _, tier, err := tiers.Get("big"); err != nil || tier != TierCold {
			t.Fatalf("Get %d → %v, %v; want cold", i, tier, err)
		}
	}
}

// TestTieredColdHitStaysCold: a cold hit is served from the cold tier and
// moves nothing — the hot tier's usage is unchanged even with room to
// spare, the key stays in exactly one tier, and the next Get is priced by
// the cold entry's own measured load cost.
func TestTieredColdHitStaysCold(t *testing.T) {
	hot := openTemp(t, 2500)
	cold := openSpillTemp(t, 0)
	tiers := NewTiered(hot, cold)
	if tier, err := tiers.PutBytes("fill", encInt(t, 2000)); err != nil || tier != TierHot {
		t.Fatalf("fill → %v, %v; want hot", tier, err)
	}
	want := bytes.Repeat([]byte{'z'}, 1000)
	if tier, err := tiers.PutBytes("spilled", encBytes(t, want)); err != nil || tier != TierCold {
		t.Fatalf("spilled → %v, %v; want cold", tier, err)
	}
	// Free the hot tier, so the cold hit below has room it must not use.
	if err := hot.Delete("fill"); err != nil {
		t.Fatal(err)
	}
	hotUsed := hot.Used()
	seeded, _, _ := tiers.Lookup("spilled")
	v, tier, err := tiers.Get("spilled")
	if err != nil || tier != TierCold {
		t.Fatalf("Get → %v, %v; want served from cold", tier, err)
	}
	if got, ok := v.([]byte); !ok || !bytes.Equal(got, want) {
		t.Fatal("cold hit decoded the wrong value")
	}
	if got := hot.Used(); got != hotUsed {
		t.Fatalf("hot used %d after a cold hit, want %d unchanged", got, hotUsed)
	}
	if hot.Has("spilled") || !cold.Has("spilled") {
		t.Fatalf("after a cold hit: in hot %v, in cold %v; want cold only", hot.Has("spilled"), cold.Has("spilled"))
	}
	// The optimizer prices the next load from Lookup: the cold entry with
	// the cost the read just measured, not its seeded estimate and not a
	// hot-tier price.
	measured, tier, ok := tiers.Lookup("spilled")
	if !ok || tier != TierCold || measured.LoadCost <= 0 || measured.LoadCost == seeded.LoadCost {
		t.Fatalf("Lookup → %+v, %v, %v; want the cold entry with a measured load cost (seeded %v)", measured, tier, ok, seeded.LoadCost)
	}
	if _, tier, err := tiers.Get("spilled"); err != nil || tier != TierCold {
		t.Fatalf("second Get → %v, %v; want cold", tier, err)
	}
	if c := tiers.Counters(); c.ColdReads != 2 || c.Spills != 1 {
		t.Fatalf("counters %+v, want 2 cold reads and 1 spill", c)
	}
}

// TestStoreGetMeasuresDecode: Get's recorded load cost covers read plus
// decode (the full price a consumer pays), not just the file read.
func TestStoreGetMeasuresDecode(t *testing.T) {
	s := openTemp(t, 0)
	if err := s.Put("k", bytes.Repeat([]byte{'d'}, 1<<16)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k"); err != nil {
		t.Fatal(err)
	}
	e, ok := s.Lookup("k")
	if !ok || e.LoadCost <= 0 {
		t.Fatalf("entry after Get: %+v", e)
	}
}

// TestTieredNilCold: without a spill tier every operation degrades to the
// plain hot store — rejections surface, misses miss.
func TestTieredNilCold(t *testing.T) {
	hot := openTemp(t, 100)
	tiers := NewTiered(hot, nil)
	if _, err := tiers.PutBytes("big", make([]byte, 200)); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded with no cold tier", err)
	}
	if _, _, err := tiers.Get("big"); err == nil {
		t.Fatal("Get succeeded for a rejected value")
	}
	if tiers.Has("big") {
		t.Fatal("Has true for a rejected value")
	}
	if got, want := tiers.Remaining(), hot.Remaining(); got != want {
		t.Fatalf("Remaining = %d, want hot tier's %d", got, want)
	}
	if got, want := tiers.EstimateLoad(50), hot.EstimateLoad(50); got != want {
		t.Fatalf("EstimateLoad = %v, want hot tier's %v", got, want)
	}
}

// TestTieredRemainingAndEstimate: admission headroom and load pricing
// follow the tier a value would land in.
func TestTieredRemainingAndEstimate(t *testing.T) {
	hot := openTemp(t, 1000)
	cold := openSpillTemp(t, 5000)
	tiers := NewTiered(hot, cold)
	if got := tiers.Remaining(); got != 5000 {
		t.Fatalf("Remaining = %d, want the cold budget 5000 (spill evicts to admit)", got)
	}
	if got, want := tiers.EstimateLoad(500), hot.EstimateLoad(500); got != want {
		t.Fatalf("fitting value priced %v, want hot %v", got, want)
	}
	if got, want := tiers.EstimateLoad(2000), cold.EstimateLoad(2000); got != want {
		t.Fatalf("overflowing value priced %v, want cold %v", got, want)
	}
	unlimited := NewTiered(hot, openSpillTemp(t, 0))
	if got := unlimited.Remaining(); got != 1<<60 {
		t.Fatalf("Remaining = %d with unbudgeted cold tier, want 1<<60", got)
	}
}

// TestTieredEncodeOncePerTier is the encode-once contract across the whole
// tier lifecycle: one EncodeValue serializes the value, and spilling it
// and loading it cold, again and again, move only raw bytes — the codec
// counter must not advance again anywhere in the cycle.
func TestTieredEncodeOncePerTier(t *testing.T) {
	hot := openTemp(t, 2500)
	cold := openSpillTemp(t, 0)
	tiers := NewTiered(hot, cold)
	before := EncodeCalls()
	// One encode: the engine's probe-and-persist path.
	enc, err := EncodeValue(bytes.Repeat([]byte{'q'}, 2000))
	if err != nil {
		t.Fatal(err)
	}
	if tier, err := tiers.PutEncoded("fill", enc); err != nil || tier != TierHot {
		t.Fatalf("fill → %v, %v", tier, err)
	}
	enc.Release()
	time.Sleep(2 * time.Millisecond)
	// Second encode: a value the hot tier must reject (spill admission).
	enc2, err := EncodeValue(bytes.Repeat([]byte{'r'}, 2000))
	if err != nil {
		t.Fatal(err)
	}
	if tier, err := tiers.PutEncoded("spilled", enc2); err != nil || tier != TierCold {
		t.Fatalf("spilled → %v, %v; want cold", tier, err)
	}
	enc2.Release()
	// Cold loads and a hot load: raw-byte reads only.
	for i := 0; i < 2; i++ {
		if _, tier, err := tiers.Get("spilled"); err != nil || tier != TierCold {
			t.Fatalf("cold get %d → %v, %v", i, tier, err)
		}
	}
	if _, tier, err := tiers.Get("fill"); err != nil || tier != TierHot {
		t.Fatalf("hot get → %v, %v", tier, err)
	}
	if got := EncodeCalls() - before; got != 2 {
		t.Fatalf("%d encodes across the spill/load cycle, want exactly the 2 EncodeValue calls", got)
	}
	if c := tiers.Counters(); c.ColdReads != 2 || c.Spills != 1 {
		t.Fatalf("counters = %+v, want 1 spill, 2 cold reads", c)
	}
}

// encInt encodes an int-keyed payload of roughly n bytes for budget tests.
func encInt(t *testing.T, n int) []byte {
	t.Helper()
	return encBytes(t, bytes.Repeat([]byte{'x'}, n))
}

// encBytes encodes a []byte value the way the engine would, so Get can
// decode what budget tests admit.
func encBytes(t *testing.T, b []byte) []byte {
	t.Helper()
	raw, err := Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestSpillColdReadPaths: a cold hit decodes to the stored value through
// the cold tier's buffered read, and each read is counted.
func TestSpillColdReadPaths(t *testing.T) {
	t.Run("mmap=false", func(t *testing.T) {
		tv := spillOnly(t, openSpillTemp(t, 0)) // values stay cold
		raw, err := Encode("cold payload")
		if err != nil {
			t.Fatal(err)
		}
		if tier, err := tv.PutBytes("k", raw); err != nil || tier != TierCold {
			t.Fatalf("PutBytes = %v, %v; want the cold tier", tier, err)
		}
		for i := 0; i < 2; i++ {
			v, tier, err := tv.Get("k")
			if err != nil || tier != TierCold || v != "cold payload" {
				t.Fatalf("read %d: Get = %v, %v, %v", i, v, tier, err)
			}
		}
		if c := tv.Counters(); c.ColdReads != 2 {
			t.Errorf("cold reads = %d, want 2", c.ColdReads)
		}
	})
}

// TestTieredColdAdmissionRace drives every cold-admission path — spills and
// idempotent re-puts — together with cold reads and pin traffic from eight
// goroutines against a cold tier of a few entries. Tiered's lock is all
// that serializes those admissions against each other's evictions, so
// after quiescence each tier's bookkeeping must agree with its entries and
// with the bytes on disk, no key may sit in both tiers, the cold tier must
// be within budget, and no pin may be left behind. Run it under -race.
func TestTieredColdAdmissionRace(t *testing.T) {
	const nkeys = 16
	keys := make([]string, nkeys)
	vals := make(map[string][]byte, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
		vals[keys[i]] = encBytes(t, bytes.Repeat([]byte{byte('a' + i)}, 200))
	}
	size := int64(len(vals[keys[0]]))
	for _, tc := range []struct {
		name string
		hot  int64
	}{
		{"spill-only", 1}, // every admission spills
		// The name predates the rule that a cold hit stays cold: here the
		// hot tier admits the first two keys and everything else spills.
		{"promote", 2 * size},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hot := openTemp(t, tc.hot)
			cold := openSpillTemp(t, 4*size)
			tv := NewTiered(hot, cold)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 150; i++ {
						k := keys[(g*7+i)%nkeys]
						hint := RewardHint{RecomputeNanos: int64(1+i%5) * int64(time.Millisecond)}
						switch i % 4 {
						case 0:
							_, _ = tv.PutBytesHint(k, vals[k], hint)
						case 1:
							_, _, _ = tv.Get(k)
						case 2:
							tv.Pin(k)
							_, _ = tv.PutBytes(k, vals[k])
							_, _, _ = tv.Get(k)
							tv.Unpin(k)
						case 3:
							_, _ = tv.PutBytes(k, vals[k])
							_, _ = tv.PutBytes(k, vals[k]) // idempotent re-put
						}
					}
				}(g)
			}
			wg.Wait()

			for _, tier := range []struct {
				name string
				s    *Store
			}{{"hot", hot}, {"cold", cold}} {
				var entrySum int64
				want := make(map[string]int64)
				for _, e := range tier.s.Entries() {
					entrySum += e.Size
					want[e.Key] = e.Size
				}
				files, err := os.ReadDir(tier.s.dir)
				if err != nil {
					t.Fatal(err)
				}
				var diskSum int64
				for _, f := range files {
					info, err := f.Info()
					if err != nil {
						t.Fatal(err)
					}
					n := info.Size()
					if tier.s.framed {
						n -= frameHeaderSize
					}
					if got, ok := want[f.Name()]; !ok || got != n {
						t.Errorf("%s: file %s holds %d payload bytes, entry %d (present %v)", tier.name, f.Name(), n, got, ok)
					}
					diskSum += n
				}
				if used := tier.s.Used(); used != entrySum || used != diskSum || len(files) != len(want) {
					t.Errorf("%s: Used %d, entries sum %d over %d, disk sum %d over %d files",
						tier.name, used, entrySum, len(want), diskSum, len(files))
				}
			}
			if used, budget := cold.Used(), cold.Budget(); used > budget {
				t.Errorf("cold tier used %d over its %d budget", used, budget)
			}
			for _, k := range keys {
				if cold.Pinned(k) {
					t.Errorf("key %s still pinned after all releases", k)
				}
			}
			for _, k := range keys {
				if hot.Has(k) && cold.Has(k) {
					t.Errorf("key %s in both tiers", k)
				}
			}
			c := tv.Counters()
			if c.Spills == 0 || c.ColdEvictions == 0 || c.ColdReads == 0 {
				t.Errorf("counters %+v: want spills, cold evictions and cold reads", c)
			}
		})
	}
}

// TestTieredPinnedColdGetsUnderSpillEviction: concurrent cold Gets of one
// pinned key run while spills of other keys evict around it. The pinned
// key must never be evicted or fail to read, and at quiescence the pins
// are gone and each tier's usage equals the sum of its entries' sizes.
// Run it under -race.
func TestTieredPinnedColdGetsUnderSpillEviction(t *testing.T) {
	hot := openTemp(t, 1)
	want := bytes.Repeat([]byte{'p'}, 200)
	raw := encBytes(t, want)
	size := int64(len(raw))
	cold := openSpillTemp(t, 3*size)
	tv := NewTiered(hot, cold)
	if tier, err := tv.PutBytes("pinned", raw); err != nil || tier != TierCold {
		t.Fatalf("pinned → %v, %v; want cold", tier, err)
	}
	other := encBytes(t, bytes.Repeat([]byte{'o'}, 200))
	// The test holds one pin of its own until the spills are done, so the
	// key must survive them even after every reader has unpinned.
	tv.Pin("pinned")
	const readers = 4
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		tv.Pin("pinned")
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer tv.Unpin("pinned")
			for i := 0; i < 100; i++ {
				v, tier, err := tv.Get("pinned")
				if err != nil || tier != TierCold {
					errs <- fmt.Errorf("Get %d → %v, %v; want cold", i, tier, err)
					return
				}
				if got, ok := v.([]byte); !ok || !bytes.Equal(got, want) {
					errs <- fmt.Errorf("Get %d decoded the wrong value", i)
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				k := fmt.Sprintf("other-%d-%d", g, i)
				if _, err := tv.PutBytes(k, other); err != nil {
					errs <- fmt.Errorf("spill %s: %v", k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if !cold.Has("pinned") || hot.Has("pinned") {
		t.Errorf("pinned key: cold %v, hot %v; want cold only", cold.Has("pinned"), hot.Has("pinned"))
	}
	tv.Unpin("pinned")
	if cold.Pinned("pinned") {
		t.Error("pins left behind after every pinner unpinned")
	}
	for _, tier := range []*Store{hot, cold} {
		var sum int64
		for _, e := range tier.Entries() {
			sum += e.Size
		}
		if used := tier.Used(); used != sum {
			t.Errorf("tier used %d, entries sum %d", used, sum)
		}
	}
	c := tv.Counters()
	if c.ColdEvictions == 0 || c.ColdReads != readers*100 {
		t.Errorf("counters %+v: want cold evictions and %d cold reads", c, readers*100)
	}
}

// TestTieredColdGetRacesEviction: cold Gets run without the Tiered lock,
// racing spills that evict and re-admit the same keys: three keys share a
// cold budget of two values, so an evicted key is re-admitted by the next
// spill. Every file is published by temp-then-rename, so each Get must
// return the value put under its key or an error (a miss), never other
// bytes and never a torn frame: CorruptFrames stays 0. At quiescence no key
// sits in both tiers and each tier is within its budget.
//
// A read checks its entry, then opens the file; only a read delayed between
// the two can meet an eviction. A gate goroutine widens that window: it
// holds the read-fault hook's lock, which every read takes in between, for
// bursts long enough to span admissions. The test also requires that some
// Get found its file unlinked after its entry check, so the race it guards
// was run. Key choices and bursts are seeded; run it under -race.
func TestTieredColdGetRacesEviction(t *testing.T) {
	const (
		hotKeys  = 1
		coldKeys = 3
		readers  = 8
		writers  = 2
		gets     = 1000
		puts     = 800
	)
	keys := make([]string, hotKeys+coldKeys)
	vals := make(map[string][]byte, len(keys))
	raws := make(map[string][]byte, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		vals[keys[i]] = bytes.Repeat([]byte{byte('a' + i)}, 64<<10)
		raws[keys[i]] = encBytes(t, vals[keys[i]])
	}
	size := int64(len(raws[keys[0]]))
	hot := openTemp(t, hotKeys*size)
	cold := openSpillTemp(t, 2*size)
	tv := NewTiered(hot, cold)
	// Fill the hot tier first, so every later admission of a cold key
	// spills and evicts.
	for _, k := range keys[:hotKeys] {
		if tier, err := tv.PutBytes(k, raws[k]); err != nil || tier != TierHot {
			t.Fatalf("PutBytes(%s) = %v, %v; want hot", k, tier, err)
		}
	}
	var writing, reading sync.WaitGroup
	var vanished atomic.Int64
	errs := make(chan error, readers)
	for g := 0; g < writers; g++ {
		writing.Add(1)
		go func(rng *rand.Rand) {
			defer writing.Done()
			for i := 0; i < puts; i++ {
				k := keys[rng.Intn(len(keys))]
				_, _ = tv.PutBytesHint(k, raws[k], RewardHint{RecomputeNanos: rng.Int63n(int64(time.Millisecond))})
			}
		}(rand.New(rand.NewSource(int64(g))))
	}
	for g := 0; g < readers; g++ {
		reading.Add(1)
		go func(rng *rand.Rand) {
			defer reading.Done()
			for i := 0; i < gets; i++ {
				k := keys[rng.Intn(len(keys))]
				v, _, err := tv.Get(k)
				if errors.Is(err, fs.ErrNotExist) {
					vanished.Add(1)
				}
				if err != nil {
					continue // a miss: the engine would recompute
				}
				if got, ok := v.([]byte); !ok || !bytes.Equal(got, vals[k]) {
					errs <- fmt.Errorf("Get(%s) returned bytes other than the value put under it", k)
					return
				}
			}
		}(rand.New(rand.NewSource(int64(100 + g))))
	}
	stop, gateDone := make(chan struct{}), make(chan struct{})
	go func(rng *rand.Rand) {
		defer close(gateDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			cold.faultMu.Lock()
			time.Sleep(time.Duration(200+rng.Intn(800)) * time.Microsecond)
			cold.faultMu.Unlock()
			time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
		}
	}(rand.New(rand.NewSource(7)))
	writing.Wait()
	close(stop)
	<-gateDone
	reading.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	c := tv.Counters()
	t.Logf("counters %+v, %d Gets found their file unlinked", c, vanished.Load())
	if c.CorruptFrames != 0 {
		t.Errorf("CorruptFrames = %d, want 0: a Get read a torn frame", c.CorruptFrames)
	}
	if c.ColdEvictions == 0 || c.ColdReads == 0 || vanished.Load() == 0 {
		t.Errorf("counters %+v, %d unlinked reads: want cold evictions, cold reads and reads that raced an eviction", c, vanished.Load())
	}
	for _, k := range keys {
		if hot.Has(k) && cold.Has(k) {
			t.Errorf("key %s in both tiers", k)
		}
	}
	for name, s := range map[string]*Store{"hot": hot, "cold": cold} {
		if used, budget := s.Used(), s.Budget(); used > budget {
			t.Errorf("%s tier used %d over its %d budget", name, used, budget)
		}
	}
}
