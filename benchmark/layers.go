package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/store"
)

// payload is one value a traced replay really materialized: its store key,
// the encoded bytes as they sat in the store, and the decoded value.
type payload struct {
	key   string
	raw   []byte
	value any
}

// capturePayloads reopens the store directories a traced replay left
// behind and reads back every entry, so the store and codec layers are
// measured on the workload's own value mix rather than on synthetic
// payloads. It also times the reopen itself (the index rescan).
func capturePayloads(dir string) (payloads []payload, openDur time.Duration, err error) {
	hotDir := filepath.Join(dir, "helix-store")
	if _, statErr := os.Stat(hotDir); statErr != nil {
		return nil, 0, nil // the workload has no store (census_unopt)
	}
	t0 := time.Now()
	hot, err := store.Open(hotDir, 0)
	openDur = time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	read := func(entries []store.Entry, get func(string) ([]byte, error)) error {
		for _, en := range entries {
			if en.Key == historyFile {
				continue // the session keeps its statistics beside the values; Open adopts the file as an entry
			}
			raw, err := get(en.Key)
			if err != nil {
				return fmt.Errorf("read back %s: %w", en.Key, err)
			}
			v, err := store.Decode(raw)
			if err != nil {
				return fmt.Errorf("decode %s: %w", en.Key, err)
			}
			payloads = append(payloads, payload{key: en.Key, raw: append([]byte(nil), raw...), value: v})
		}
		return nil
	}
	if err := read(hot.Entries(), hot.GetBytes); err != nil {
		return nil, 0, err
	}
	if spillDir := hotDir + "-spill"; dirExists(spillDir) {
		cold, err := store.OpenSpill(spillDir, 0)
		if err != nil {
			return nil, 0, err
		}
		if err := read(cold.Entries(), cold.GetBytes); err != nil {
			return nil, 0, err
		}
	}
	return payloads, openDur, nil
}

// historyFile is the runtime-statistics snapshot core.Session and the daemon
// keep in the store directory.
const historyFile = "helix-history.json"

func dirExists(dir string) bool {
	st, err := os.Stat(dir)
	return err == nil && st.IsDir()
}

// probeStoreAndCodec fills the store.* throughput and codec.* metrics from
// the payloads captured under dir. A workload that materialized nothing
// reports zeros: that is the prediction for a store-less system.
func probeStoreAndCodec(e *env, o *outcome, dir string) {
	payloads, openDur, err := capturePayloads(dir)
	if err != nil {
		o.fail(0, "payload capture: %v", err)
	}
	if len(payloads) == 0 {
		inapplicable(e, o, "store.", "codec.")
		return
	}
	var total int64
	for _, p := range payloads {
		total += int64(len(p.raw))
	}
	o.set("store.open_ms", ms(openDur))
	o.set("store.payload_mb", mb(total))
	o.set("store.payload_values", float64(len(payloads)))
	o.set("codec.bytes_per_value", float64(total)/float64(len(payloads)))

	// Store round trips into scratch tiers: write every payload, read every
	// payload back, delete, for at least probeRounds rounds or until the
	// probe budget is spent.
	type tier struct {
		put func(string, []byte) error
		get func(string) ([]byte, error)
		del func(string) error
	}
	roundTrip := func(t tier) (writeMBs, readMBs float64, err error) {
		var wr, rd time.Duration
		rounds := 0
		for start := time.Now(); rounds < e.sizes.probeRounds || time.Since(start) < e.sizes.probeBudget; rounds++ {
			t0 := time.Now()
			for _, p := range payloads {
				if err := t.put(p.key, p.raw); err != nil {
					return 0, 0, err
				}
			}
			t1 := time.Now()
			for _, p := range payloads {
				if _, err := t.get(p.key); err != nil {
					return 0, 0, err
				}
			}
			rd += time.Since(t1)
			wr += t1.Sub(t0)
			for _, p := range payloads {
				if err := t.del(p.key); err != nil {
					return 0, 0, err
				}
			}
		}
		moved := mb(total) * float64(rounds)
		return moved / wr.Seconds(), moved / rd.Seconds(), nil
	}
	scratch, err := e.freshDir("probe")
	if err != nil {
		o.fail(0, "probe scratch: %v", err)
		return
	}
	defer os.RemoveAll(scratch)
	hot, err := store.Open(filepath.Join(scratch, "hot"), 0)
	if err != nil {
		o.fail(0, "probe hot store: %v", err)
		return
	}
	cold, err := store.OpenSpill(filepath.Join(scratch, "cold"), 0)
	if err != nil {
		o.fail(0, "probe cold store: %v", err)
		return
	}
	w, r, err := roundTrip(tier{hot.PutBytes, hot.GetBytes, hot.Delete})
	if err != nil {
		o.fail(0, "hot store probe: %v", err)
	}
	o.set("store.write_mb_s", w)
	o.set("store.read_hot_mb_s", r)
	_, r, err = roundTrip(tier{cold.PutBytes, cold.GetBytes, cold.Delete})
	if err != nil {
		o.fail(0, "cold store probe: %v", err)
	}
	o.set("store.read_cold_mb_s", r)

	// Codec over the same values.
	var enc, dec time.Duration
	rounds := 0
	for start := time.Now(); rounds < e.sizes.probeRounds || time.Since(start) < e.sizes.probeBudget; rounds++ {
		t0 := time.Now()
		for _, p := range payloads {
			en, err := store.EncodeValue(p.value)
			if err != nil {
				o.fail(0, "encode %s: %v", p.key, err)
				return
			}
			en.Release()
		}
		t1 := time.Now()
		for _, p := range payloads {
			if _, err := store.Decode(p.raw); err != nil {
				o.fail(0, "decode %s: %v", p.key, err)
				return
			}
		}
		dec += time.Since(t1)
		enc += t1.Sub(t0)
	}
	moved := mb(total) * float64(rounds)
	o.set("codec.encode_mb_s", moved/enc.Seconds())
	o.set("codec.decode_mb_s", moved/dec.Seconds())
	n := float64(len(payloads))
	o.set("codec.encode_allocs_per_value", testing.AllocsPerRun(3, func() {
		for _, p := range payloads {
			if en, err := store.EncodeValue(p.value); err == nil {
				en.Release()
			}
		}
	})/n)
	o.set("codec.decode_allocs_per_value", testing.AllocsPerRun(3, func() {
		for _, p := range payloads {
			_, _ = store.Decode(p.raw) // errors were reported by the timed rounds above
		}
	})/n)
}

// counterMetrics names the exec.Counters fields the benchmark reports.
func counterMetrics(c exec.Counters) map[string]float64 {
	return map[string]float64{
		"exec.steals": float64(c.Steals), "exec.handoffs": float64(c.Handoffs),
		"exec.affinity_keeps": float64(c.AffinityKeeps), "exec.reweights": float64(c.Reweights),
		"exec.retries": float64(c.Retries), "exec.recomputes": float64(c.Recomputes),
		"exec.inflight_dedup_hits": float64(c.InflightDedupHits), "exec.inflight_waits": float64(c.InflightWaits),
		"store.spills": float64(c.Spills), "store.promotions": float64(c.Promotions),
		"store.evictions": float64(c.Evictions), "store.cold_reads": float64(c.MmapColdReads + c.BufferedColdReads),
		"codec.gob_fallbacks": float64(c.GobEncodes),
	}
}

// inapplicable sets to zero every declared per-layer metric with one of
// the given prefixes that the workload did not measure: the layer is not on
// this workload's path.
func inapplicable(e *env, o *outcome, prefixes ...string) {
	for _, m := range e.spec.PerLayer {
		if _, ok := o.values[m.Name]; ok {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(m.Name, p) {
				o.set(m.Name, 0)
				break
			}
		}
	}
}
