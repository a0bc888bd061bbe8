package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/store"
	"repro/internal/systems"
	"repro/internal/workload"
)

// Config sizes the service. The zero value of any field falls back to the
// documented default in New.
type Config struct {
	// Dir roots the shared store: hot tier at Dir/"hot", cold spill tier
	// at Dir/"cold", runtime-statistics history next to them. Required.
	Dir string
	// HotBudgetBytes caps the shared hot tier (<=0 = unlimited).
	HotBudgetBytes int64
	// SpillBudgetBytes caps the shared cold spill tier; 0 disables
	// tiering entirely (hot-only store, no cross-session pinning), <0
	// leaves the cold tier unbudgeted.
	SpillBudgetBytes int64
	// Workers bounds each run's intra-workflow parallelism (default 2).
	Workers int
	// MaxConcurrent bounds concurrently executing runs across all tenants
	// (default 2) — together with Workers it is the shared worker-pool
	// budget every session multiplexes onto.
	MaxConcurrent int
	// TenantMaxInFlight bounds one tenant's concurrently executing runs
	// (default 1), so a single chatty tenant cannot monopolize the pool
	// while others wait.
	TenantMaxInFlight int
	// TenantBudgetBytes caps one tenant's materialization footprint across
	// both tiers; a tenant at cap is refused admission (over_budget) until
	// eviction shrinks its usage. 0 = unlimited.
	TenantBudgetBytes int64
	// DefaultRows and DefaultSeed fill in submissions that leave dataset
	// sizing unset (defaults 2000 rows, seed 2018).
	DefaultRows int
	DefaultSeed int64
}

// Service is the daemon core: the shared tiered store, the shared runtime
// history, per-tenant admission control, and session construction. It is
// transport-agnostic; handler.go adapts it to HTTP.
type Service struct {
	cfg     Config
	tiers   *store.Tiered
	history *exec.History

	// baseCtx parents every run; Shutdown cancels it to abort in-flight
	// work that outlives the drain grace period.
	baseCtx context.Context
	cancel  context.CancelFunc

	mu          sync.Mutex
	draining    bool
	total       int            // currently executing runs
	perTenant   map[string]int // currently executing runs per tenant
	queue       []*waiter      // admission FIFO
	totals      exec.Counters  // lifetime accumulation
	submissions int64          // completed runs, successes and failures alike
	failed      int64          // the failing subset of submissions
	wg          sync.WaitGroup // one unit per executing run

	// dsMu guards only the dataset cache's map and recency order — never
	// generation itself, which runs under the entry's once so concurrent
	// submissions of distinct (rows, seed) pairs generate in parallel.
	dsMu     sync.Mutex
	datasets map[datasetKey]*dsEntry
	dsOrder  []datasetKey // oldest-touched first; len bounded by datasetCacheMax
}

type datasetKey struct {
	rows int
	seed int64
}

// datasetCacheMax bounds the dataset cache: each generated CensusData is
// O(rows) in memory and a daemon serving many distinct (rows, seed)
// sweeps must not retain them all. Eviction is LRU on submission touch.
const datasetCacheMax = 4

// dsEntry is one cached dataset. The once gates generation so exactly one
// submission pays for each (rows, seed) while the rest wait on the entry,
// not on the cache lock; evicted entries stay valid for goroutines that
// already hold them.
type dsEntry struct {
	once sync.Once
	data workload.CensusData
}

// waiter is one submission blocked in the admission queue.
type waiter struct {
	tenant   string
	ch       chan struct{} // closed on grant or rejection
	rejected bool          // set (under mu) before close when draining
}

// New opens the shared store and prepares the service. The returned
// service accepts submissions until Shutdown.
func New(cfg Config) (*Service, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("serve: Config.Dir is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	if cfg.TenantMaxInFlight <= 0 {
		cfg.TenantMaxInFlight = 1
	}
	if cfg.DefaultRows <= 0 {
		cfg.DefaultRows = 2000
	}
	if cfg.DefaultSeed == 0 {
		cfg.DefaultSeed = 2018
	}
	hot, err := store.Open(filepath.Join(cfg.Dir, "hot"), cfg.HotBudgetBytes)
	if err != nil {
		return nil, err
	}
	var cold *store.Store
	if cfg.SpillBudgetBytes != 0 {
		if cold, err = store.OpenSpill(filepath.Join(cfg.Dir, "cold"), max(cfg.SpillBudgetBytes, 0)); err != nil {
			return nil, err
		}
	}
	history := exec.NewHistory()
	if err := history.Load(filepath.Join(cfg.Dir, "helix-history.json")); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Service{
		cfg:       cfg,
		tiers:     store.NewTiered(hot, cold),
		history:   history,
		baseCtx:   ctx,
		cancel:    cancel,
		perTenant: make(map[string]int),
		datasets:  make(map[datasetKey]*dsEntry),
	}, nil
}

// Tiers exposes the shared tiered store (tests and the status endpoint).
func (s *Service) Tiers() *store.Tiered { return s.tiers }

// Submit validates, admits, and runs one workflow iteration, blocking
// until it completes. Concurrency-safe; the admission gate bounds how many
// submissions execute at once and queues the rest FIFO.
func (s *Service) Submit(ctx context.Context, req *SubmitRequest) (*SubmitResponse, *APIError) {
	if req.Tenant == "" {
		return nil, &APIError{Status: 400, Code: CodeBadRequest, Message: "tenant is required"}
	}
	if req.App != "census" {
		return nil, &APIError{Status: 400, Code: CodeUnknownApp, Message: fmt.Sprintf("unknown app %q (served apps: census)", req.App)}
	}
	system := req.System
	if system == "" {
		system = string(systems.Helix)
	}
	// Resolve the system preset against the service's directory, then
	// swap its private store for the shared one: the daemon is a client
	// of the same Options surface the CLI uses.
	o, err := systems.Preset(systems.Kind(system), s.cfg.Dir)
	if err != nil {
		return nil, &APIError{Status: 400, Code: CodeUnknownSystem, Message: err.Error()}
	}
	o.StoreDir, o.BudgetBytes = "", 0
	o.SharedTiers = s.tiers
	o.SharedHistory = s.history
	o.Tenant = req.Tenant
	o.Workers = s.cfg.Workers

	// Fast-path budget refusal before the submission ever queues.
	if apiErr := s.overBudget(req.Tenant); apiErr != nil {
		return nil, apiErr
	}

	wf := s.workflow(req)

	if apiErr := s.admit(ctx, req.Tenant); apiErr != nil {
		return nil, apiErr
	}
	defer s.release(req.Tenant)

	// Re-check at grant time: while this submission was queued, its
	// tenant's earlier runs may have materialized past the cap, and the
	// pre-admission check alone would let an over-budget tenant keep
	// writing for as long as its queue backlog lasts.
	if apiErr := s.overBudget(req.Tenant); apiErr != nil {
		return nil, apiErr
	}

	sess, err := core.Open(o)
	if err != nil {
		s.finishRun(true)
		return nil, &APIError{Status: 500, Code: CodeInternal, Message: err.Error()}
	}
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	stop := context.AfterFunc(s.baseCtx, cancelRun)
	defer stop()

	rep, err := sess.RunCtx(runCtx, wf)
	if err != nil {
		s.finishRun(true)
		if runCtx.Err() != nil {
			code, status := CodeCanceled, 499
			if s.baseCtx.Err() != nil {
				code, status = CodeDraining, 503
			}
			return nil, &APIError{Status: status, Code: code, Message: err.Error()}
		}
		return nil, &APIError{Status: 500, Code: CodeInternal, Message: err.Error()}
	}

	counters := rep.Counters
	counters.CrossSessionHits = s.crossSessionHits(rep, req.Tenant)
	hash, err := outputHash(rep)
	if err != nil {
		s.finishRun(true)
		return nil, &APIError{Status: 500, Code: CodeInternal, Message: err.Error()}
	}

	s.mu.Lock()
	s.totals.Add(counters)
	s.submissions++
	s.mu.Unlock()

	computed, loaded, pruned := rep.Counts()
	return &SubmitResponse{
		Schema:          exec.ReportSchemaVersion,
		Tenant:          req.Tenant,
		App:             req.App,
		System:          system,
		WallMS:          float64(rep.Wall.Microseconds()) / 1000,
		Computed:        computed,
		Loaded:          loaded,
		Pruned:          pruned,
		Counters:        counters,
		OutputHash:      hash,
		TenantUsedBytes: s.tiers.OwnerUsage()[req.Tenant],
	}, nil
}

// overBudget refuses tenant when its materialization footprint has reached
// the per-tenant cap. Called both before a submission queues and again at
// grant time, so a backlog accumulated while under budget cannot keep an
// over-budget tenant writing.
func (s *Service) overBudget(tenant string) *APIError {
	b := s.cfg.TenantBudgetBytes
	if b <= 0 {
		return nil
	}
	if used := s.tiers.OwnerUsage()[tenant]; used >= b {
		return &APIError{Status: 403, Code: CodeOverBudget,
			Message: fmt.Sprintf("tenant %q holds %d of %d budgeted bytes; wait for eviction", tenant, used, b)}
	}
	return nil
}

// finishRun accounts one completed run; failed runs (session construction,
// execution, or output hashing errors) count toward both totals.
func (s *Service) finishRun(failed bool) {
	s.mu.Lock()
	s.submissions++
	if failed {
		s.failed++
	}
	s.mu.Unlock()
}

// crossSessionHits counts the run's nodes that were covered by another
// tenant's work: planned loads whose bytes a different tenant materialized,
// plus (since schema 3) compute-planned nodes served by a single-flight
// dedup hit whose published entry a different tenant owns. Both joins go
// through the shared store's owner stamps; an entry evicted — or never
// written, when the leader's policy declined to materialize the value its
// waiters took — before this sweep just stops counting, so the metric is a
// floor, never an overcount.
func (s *Service) crossSessionHits(rep *core.Report, tenant string) int64 {
	var hits int64
	foreign := func(key string) bool {
		e, _, ok := s.tiers.Lookup(key)
		return ok && e.Owner != "" && e.Owner != tenant
	}
	for id, st := range rep.Plan.States {
		if id >= len(rep.Keys) {
			continue
		}
		switch st {
		case opt.Load:
			if foreign(rep.Keys[id]) {
				hits++
			}
		case opt.Compute:
			if id < len(rep.Nodes) && rep.Nodes[id].InflightHit && foreign(rep.Keys[id]) {
				hits++
			}
		}
	}
	return hits
}

// workflow materializes the submission's declared variant into a concrete
// workflow over the (cached) dataset for its (rows, seed).
func (s *Service) workflow(req *SubmitRequest) *core.Workflow {
	rows, seed := req.Rows, req.Seed
	if rows <= 0 {
		rows = s.cfg.DefaultRows
	}
	if seed == 0 {
		seed = s.cfg.DefaultSeed
	}
	key := datasetKey{rows: rows, seed: seed}
	s.dsMu.Lock()
	e, ok := s.datasets[key]
	if ok {
		// Refresh recency: move the key to the back of the eviction order.
		for i, k := range s.dsOrder {
			if k == key {
				s.dsOrder = append(s.dsOrder[:i], s.dsOrder[i+1:]...)
				break
			}
		}
	} else {
		e = &dsEntry{}
		s.datasets[key] = e
		if len(s.dsOrder) >= datasetCacheMax {
			evict := s.dsOrder[0]
			s.dsOrder = s.dsOrder[1:]
			delete(s.datasets, evict)
		}
	}
	s.dsOrder = append(s.dsOrder, key)
	s.dsMu.Unlock()
	// Generate outside dsMu: one submission pays per (rows, seed), others
	// wait here on the entry — never blocking unrelated keys on the lock.
	e.once.Do(func() { e.data = workload.GenerateCensus(rows, rows/4, seed) })

	p := workload.DefaultCensusParams(e.data)
	v := req.Variant
	if v.Learner != "" {
		p.Learner = v.Learner
	}
	if v.RegParam != 0 {
		p.RegParam = v.RegParam
	}
	if v.Epochs != 0 {
		p.Epochs = v.Epochs
	}
	if v.Metric != "" {
		p.Metric = v.Metric
	}
	if v.AgeBuckets != 0 {
		p.AgeBuckets = v.AgeBuckets
	}
	p.WithOccupation = v.WithOccupation
	p.WithMaritalStatus = v.WithMaritalStatus
	p.WithRace = v.WithRace
	p.WithCapital = v.WithCapital
	p.WithEduXOcc = v.WithEduXOcc
	p.WithHours = v.WithHours
	return p.Build()
}

// outputHash digests the run's output values: names sorted, each value's
// canonical encoded bytes folded in. Byte-identical outputs — the
// correctness bar for every scheduling/sharing configuration — give equal
// hashes.
func outputHash(rep *core.Report) (string, error) {
	names := make([]string, 0, len(rep.Outputs))
	for name := range rep.Outputs {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		raw, err := store.Encode(rep.Outputs[name])
		if err != nil {
			return "", fmt.Errorf("serve: encode output %s: %w", name, err)
		}
		fmt.Fprintf(h, "%s:%d:", name, len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// admit blocks until the submission may execute: a free global slot, the
// tenant under its in-flight cap, and every earlier-queued eligible waiter
// already granted (FIFO fairness; a waiter whose tenant is at cap does not
// block later waiters from other tenants).
func (s *Service) admit(ctx context.Context, tenant string) *APIError {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return &APIError{Status: 503, Code: CodeDraining, Message: "service is shutting down"}
	}
	if len(s.queue) == 0 && s.eligibleLocked(tenant) {
		s.grantLocked(tenant)
		s.mu.Unlock()
		return nil
	}
	w := &waiter{tenant: tenant, ch: make(chan struct{})}
	s.queue = append(s.queue, w)
	// Pump immediately: the queue may hold only waiters whose tenants are
	// at cap, in which case this waiter is eligible right now and must not
	// wait for an unrelated release.
	s.pumpLocked()
	s.mu.Unlock()

	select {
	case <-w.ch:
		if w.rejected {
			return &APIError{Status: 503, Code: CodeDraining, Message: "service is shutting down"}
		}
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for i, q := range s.queue {
			if q == w {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				s.mu.Unlock()
				return &APIError{Status: 499, Code: CodeCanceled, Message: ctx.Err().Error()}
			}
		}
		if w.rejected {
			// Shutdown rejected this waiter concurrently with cancellation:
			// it left the queue without ever holding a slot, so there is
			// nothing to give back.
			s.mu.Unlock()
			return &APIError{Status: 503, Code: CodeDraining, Message: "service is shutting down"}
		}
		// Granted concurrently with cancellation: give the slot back.
		s.releaseLocked(tenant)
		s.mu.Unlock()
		return &APIError{Status: 499, Code: CodeCanceled, Message: ctx.Err().Error()}
	}
}

// eligibleLocked reports whether tenant may start a run now; mu held.
func (s *Service) eligibleLocked(tenant string) bool {
	return s.total < s.cfg.MaxConcurrent && s.perTenant[tenant] < s.cfg.TenantMaxInFlight
}

// grantLocked takes a slot; mu held.
func (s *Service) grantLocked(tenant string) {
	s.total++
	s.perTenant[tenant]++
	s.wg.Add(1)
}

// release returns a slot and wakes eligible queued waiters in FIFO order.
func (s *Service) release(tenant string) {
	s.mu.Lock()
	s.releaseLocked(tenant)
	s.mu.Unlock()
}

func (s *Service) releaseLocked(tenant string) {
	s.total--
	s.perTenant[tenant]--
	if s.perTenant[tenant] == 0 {
		delete(s.perTenant, tenant)
	}
	s.wg.Done()
	s.pumpLocked()
}

// pumpLocked grants queued waiters: first eligible in queue order, repeated
// while slots remain; mu held.
func (s *Service) pumpLocked() {
	for i := 0; i < len(s.queue); {
		w := s.queue[i]
		if !s.eligibleLocked(w.tenant) {
			i++
			continue
		}
		s.grantLocked(w.tenant)
		close(w.ch)
		s.queue = append(s.queue[:i], s.queue[i+1:]...)
	}
}

// Status snapshots the daemon.
func (s *Service) Status() StatusResponse {
	s.mu.Lock()
	resp := StatusResponse{
		Schema:            exec.ReportSchemaVersion,
		Draining:          s.draining,
		Submissions:       s.submissions,
		Failed:            s.failed,
		InFlight:          s.total,
		Queued:            len(s.queue),
		Counters:          s.totals,
		TenantBudgetBytes: s.cfg.TenantBudgetBytes,
	}
	s.mu.Unlock()
	resp.TenantUsedBytes = s.tiers.OwnerUsage()
	resp.HotUsedBytes = s.tiers.Hot().Used()
	if cold := s.tiers.Cold(); cold != nil {
		resp.ColdUsedBytes = cold.Used()
	}
	return resp
}

// Shutdown drains the service: new and queued submissions are refused,
// in-flight runs get until ctx expires to finish, then are canceled
// through their contexts. State that outlives the daemon (the runtime
// history) is flushed before return. Idempotent.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	for _, w := range s.queue {
		w.rejected = true
		close(w.ch)
	}
	s.queue = nil
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.cancel() // abort in-flight runs
		<-done
	}
	s.cancel()
	return s.history.Save(filepath.Join(s.cfg.Dir, "helix-history.json"))
}
