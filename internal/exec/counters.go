package exec

// ReportSchemaVersion is the wire-schema version stamped as "schema" on
// the serve daemon's submit/status responses, which embed Counters.
// Version 1 is the pre-Counters layout with ad-hoc per-counter fields;
// version 2 introduced the consolidated counter block; version 3 adds the
// single-flight counters (inflight_dedup_hits, inflight_waits) and the
// service's queued/failed status fields; version 4 adds cold_evictions, and
// buffered_cold_reads counts every cold read; version 5 adds
// unregistered_values; version 6 drops the tier-disabled flag (a failed
// cold read is now always a miss, so the cold tier is never switched off).
// retries is always 0: the engine no longer retries operators, and the
// field stays on the wire, so the version did not change with it.
// Readers should accept every version up to this one and treat an absent
// field as its zero.
const ReportSchemaVersion = 6

// Counters is the consolidated execution-counter block shared by every
// surface that reports engine activity: exec.Result embeds it (per-run
// deltas), core.Report embeds it (per-iteration deltas), and the
// helix-serve status/submit responses carry it verbatim. The JSON tags are the stable schema-2 wire
// names — service clients and the benchmark parse the same keys.
//
// All counts are deltas over the window the embedding struct describes
// (one Execute, one iteration, one benchmark run) except where the
// embedding surface documents otherwise (the service's status endpoint
// reports daemon-lifetime totals).
type Counters struct {
	// Steals is always 0: the dispatcher has no per-worker queues to steal
	// from. The field stays only so readers of the counter block keep
	// compiling.
	//
	// Deprecated: every ready node waits in one shared heap.
	Steals int64 `json:"steals"`
	// Handoffs is always 0, for the same reason as Steals.
	//
	// Deprecated: every ready node waits in one shared heap.
	Handoffs int64 `json:"handoffs"`
	// AffinityKeeps is always 0, for the same reason as Steals.
	//
	// Deprecated: every ready node waits in one shared heap.
	AffinityKeeps int64 `json:"affinity_keeps"`
	// Reweights is always 0: the engine no longer re-prioritizes mid-run.
	// The field stays only so readers of the counter block keep compiling.
	//
	// Deprecated: dispatch weights are computed once per run.
	Reweights int64 `json:"reweights"`
	// Spills counts values admitted to the cold spill tier after the hot
	// tier's budget rejected them (always 0 without a spill tier).
	Spills int64 `json:"spills"`
	// Promotions is always 0: a cold hit is served from the cold tier and
	// never moved into the hot one. The field stays only so readers of the
	// counter block keep compiling.
	//
	// Deprecated: count cold loads with BufferedColdReads.
	Promotions int64 `json:"promotions"`
	// Evictions is always 0, for the same reason as Promotions: nothing
	// demotes hot entries into the spill tier.
	//
	// Deprecated: see Promotions; ColdEvictions counts spill-tier deletions.
	Evictions int64 `json:"evictions"`
	// ColdEvictions counts spill-tier entries deleted outright to make room
	// for new cold admissions. Those values are gone: a later iteration that
	// needs one recomputes it.
	ColdEvictions int64 `json:"cold_evictions"`
	// Retries is always 0: the engine never retries an operator, whose
	// first error fails the run. The field stays only so readers of the
	// counter block keep compiling.
	//
	// Deprecated: a failed run is simply run again.
	Retries int64 `json:"retries"`
	// Recomputes counts nodes recomputed from lineage after a planned load
	// failed (corrupt frame, read I/O error, evicted entry) — the failing
	// node plus any ancestors its recovery had to re-run.
	Recomputes int64 `json:"recomputes"`
	// CorruptFrames counts loads whose stored bytes were unusable — cold-tier
	// frames that failed checksum verification, and payloads in either tier
	// that failed to decode; each was deleted on detection and its value
	// recovered by recompute.
	CorruptFrames int64 `json:"corrupt_frames"`
	// GobEncodes is always 0: the store has no gob codec any more. The
	// field stays only so readers of the counter block keep compiling.
	//
	// Deprecated: use BinaryEncodes, which counts every encode.
	GobEncodes int64 `json:"gob_encodes"`
	// BinaryEncodes counts values serialized for materialization through
	// the store's binary codec (store.EncodeValue).
	BinaryEncodes int64 `json:"binary_encodes"`
	// UnregisteredValues counts materialization encodes that failed because
	// the value's type (or a nested value's) has no registered binary codec
	// (codec.ErrUnregistered); such a value is never stored.
	UnregisteredValues int64 `json:"unregistered_values"`
	// MmapColdReads is always 0: the cold tier has no memory-mapped read
	// path any more. The field stays only so readers of the counter block
	// keep compiling.
	//
	// Deprecated: use BufferedColdReads, which counts every cold read.
	MmapColdReads int64 `json:"mmap_cold_reads"`
	// BufferedColdReads counts cold-tier loads (every cold read is a
	// buffered file read).
	BufferedColdReads int64 `json:"buffered_cold_reads"`
	// CrossSessionHits counts planned loads served from materializations a
	// *different* tenant produced — the cross-user sub-DAG dedup the shared
	// store buys. Only the serve layer populates it (a single-session engine
	// cannot know who wrote an entry's bytes); always 0 elsewhere. Since
	// schema 3 the serve layer folds in-flight hits against foreign-owned
	// entries into it too, so the metric reads "nodes this run did not
	// compute because another tenant's work covered them".
	CrossSessionHits int64 `json:"cross_session_hits"`
	// InflightDedupHits counts compute-planned nodes that were served by a
	// concurrent in-flight computation of the same signature instead of
	// running their operator — the single-flight registry's dedup
	// (Engine.SingleFlight; always 0 when disabled).
	InflightDedupHits int64 `json:"inflight_dedup_hits"`
	// InflightWaits counts compute-planned nodes that parked as
	// single-flight waiters on another run's in-flight computation,
	// whatever the wait's outcome (served, failed flight, timeout).
	InflightWaits int64 `json:"inflight_waits"`
}

// Add accumulates o into c field by field. The service's lifetime totals
// are built with it.
func (c *Counters) Add(o Counters) {
	c.Spills += o.Spills
	c.ColdEvictions += o.ColdEvictions
	c.Recomputes += o.Recomputes
	c.CorruptFrames += o.CorruptFrames
	c.BinaryEncodes += o.BinaryEncodes
	c.UnregisteredValues += o.UnregisteredValues
	c.BufferedColdReads += o.BufferedColdReads
	c.CrossSessionHits += o.CrossSessionHits
	c.InflightDedupHits += o.InflightDedupHits
	c.InflightWaits += o.InflightWaits
}
