package core

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/store"
)

// Options is the single canonical way to configure a Session. Every entry
// point constructs sessions through it — the CLI binaries, the benchmarks,
// and the helix-serve daemon — and systems.Preset returns the paper's
// comparator systems as Options values, so there is exactly one place where
// knobs are defined, defaulted, and validated.
//
// The zero value is a valid in-memory session: no persistence, no reuse,
// and the engine's one scheduler (dependency-counting dataflow,
// one shared ready heap, critical-path ordering with weights computed once
// per run).
type Options struct {
	// SystemName labels reports ("helix", "deepdive", ...). Defaults to
	// "helix" when empty.
	SystemName string
	// StoreDir is the materialization directory; empty disables persistence
	// entirely (no loads, no stores) unless SharedTiers is set.
	StoreDir string
	// BudgetBytes caps the store (<=0 = unlimited).
	BudgetBytes int64
	// SpillDir is the cold-tier spill directory, opened as a framed
	// store (store.OpenSpill): values the hot store's budget rejects are
	// admitted there instead of being dropped, and stay there: a cold hit
	// is served from the spill tier. Empty disables tiering. Requires
	// StoreDir.
	SpillDir string
	// SpillBudgetBytes caps the spill tier (<=0 = unlimited). The spill
	// tier deletes its cheapest-to-lose entries (smallest recompute saving
	// per byte) to admit new values, so unlike BudgetBytes this cap bounds
	// retention, not admission.
	SpillBudgetBytes int64
	// Policy is the online materialization policy: opt.OnlineHeuristic
	// (helix) or opt.MaterializeAll (deepdive). nil never materializes —
	// the helix-unopt and keystoneml setting.
	Policy opt.MatPolicy
	// Reuse enables cross-iteration reuse (the recomputation optimizer may
	// choose load states). Without it every iteration recomputes its full
	// program slice.
	Reuse bool
	// NeverReuse lists operator categories that must always recompute even
	// when a valid materialization exists — DeepDive's non-configurable ML
	// and evaluation components are modeled this way.
	NeverReuse []Category
	// Workers bounds intra-iteration parallelism.
	Workers int
	// Sched is ignored.
	//
	// Deprecated: see exec.Strategy.
	Sched exec.Strategy
	// Order is ignored.
	//
	// Deprecated: see exec.Ordering.
	Order exec.Ordering
	// Dispatch is ignored.
	//
	// Deprecated: see exec.DispatchMode.
	Dispatch exec.DispatchMode
	// Reweight is ignored.
	//
	// Deprecated: see exec.Reweight.
	Reweight exec.Reweight
	// KeepIntermediates retains every non-pruned value in memory for the
	// whole iteration. By default the session releases a non-output value
	// the moment its last consumer has run (memory-bounded execution;
	// Report and Outputs only ever read output values, so nothing is
	// lost). Set it for debugging sessions that want to inspect
	// intermediates post-hoc, or to A/B the peak-memory win.
	KeepIntermediates bool
	// Faults is the execution-time fault policy: per-node retry budget with
	// backoff for transient failures, per-node deadlines, and error
	// classification. The zero value disables retries and deadlines (one
	// attempt, fail-fast — the historical behaviour).
	Faults exec.FaultPolicy
	// Codec is ignored: the store has one value format.
	//
	// Deprecated: see store.Codec.
	Codec store.Codec
	// Tenant labels every value this session materializes with an owning
	// tenant (store.Entry.Owner) for per-tenant budget accounting in a
	// shared store. Empty for single-user sessions.
	Tenant string
	// SharedTiers plugs a pre-opened tiered store shared with other
	// sessions into this one, instead of opening a private store from
	// StoreDir/SpillDir. Cold admissions in store.Tiered are serialized
	// per instance, so concurrent sessions MUST share one instance — the
	// serve layer constructs sessions this way. Mutually exclusive with
	// StoreDir/SpillDir.
	SharedTiers *store.Tiered
	// SharedHistory plugs a shared runtime-statistics history into this
	// session instead of a private one. The session never persists a
	// shared history (its owner decides when and where); without it a
	// private history is loaded from and saved to StoreDir as before.
	SharedHistory *exec.History
}

// Validate defaults and sanity-checks the options in place. Open calls it;
// callers only need it to inspect the resolved values early.
func (o *Options) Validate() error {
	if o.SystemName == "" {
		o.SystemName = "helix"
	}
	if o.SpillDir != "" && o.StoreDir == "" {
		return fmt.Errorf("core: SpillDir %q configured without a StoreDir hot tier", o.SpillDir)
	}
	if o.SharedTiers != nil && o.StoreDir != "" {
		return fmt.Errorf("core: SharedTiers and StoreDir %q are mutually exclusive", o.StoreDir)
	}
	return nil
}

// Open validates the options, opens the materialization store (if
// configured) and prepares the engine. Persisted runtime statistics from
// earlier sessions over the same StoreDir are loaded automatically. This is
// the canonical constructor every entry point goes through.
func Open(o Options) (*Session, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	s := &Session{cfg: o, history: o.SharedHistory}
	if s.history == nil {
		s.history = exec.NewHistory()
	}
	if o.SharedTiers != nil {
		s.store = o.SharedTiers.Hot()
		s.spill = o.SharedTiers.Cold()
	} else if o.StoreDir != "" {
		st, err := store.Open(o.StoreDir, o.BudgetBytes)
		if err != nil {
			return nil, err
		}
		s.store = st
		if o.SpillDir != "" {
			if s.spill, err = store.OpenSpill(o.SpillDir, o.SpillBudgetBytes); err != nil {
				return nil, err
			}
		}
		if o.SharedHistory == nil {
			if err := s.history.Load(s.historyPath()); err != nil {
				return nil, err
			}
		}
	}
	s.engine = &exec.Engine{
		Store:                s.store,
		Spill:                s.spill,
		Policy:               o.Policy,
		Workers:              o.Workers,
		History:              s.history,
		ReleaseIntermediates: !o.KeepIntermediates,
		LiveBytes:            &s.live,
		Faults:               o.Faults,
		Tenant:               o.Tenant,
	}
	if o.SharedTiers != nil {
		s.engine.UseTiers(o.SharedTiers)
		// Single-flight dedup of in-flight computations only makes sense on
		// a store other sessions race on, and only for sessions allowed to
		// reuse: a reuse-disabled comparator (or a NeverReuse category)
		// must pay its recomputes by contract, so those sessions keep the
		// compute-everything behaviour even when sharing tiers.
		s.engine.SingleFlight = o.Reuse && len(o.NeverReuse) == 0
	}
	return s, nil
}
