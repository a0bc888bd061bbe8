package exec

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dag"
	"repro/internal/opt"
)

// keyDedupe is the writer's in-run first-claim set: it keeps nodes sharing
// a result signature (identical subcomputations under content addressing)
// from racing to materialize the same key. Without it, both nodes can pass
// the Store.Has check before either write lands, double-encoding the value
// and double-reserving its budget.
type keyDedupe struct {
	mu   sync.Mutex
	keys map[string]bool
}

// claim reports whether the caller is the first to claim key this run.
func (d *keyDedupe) claim(key string) bool {
	d.mu.Lock()
	dup := d.keys[key]
	d.keys[key] = true
	d.mu.Unlock()
	return !dup
}

// matWriterCount is the size of each run's background writer pool.
const matWriterCount = 2

// matJob carries one completed value into the background materialization
// pipeline together with the measurements its policy decision needs. The
// job owns a reference to the value, so the scheduler may release it from
// Result.Values before the write lands.
type matJob struct {
	id         dag.NodeID
	name       string
	key        string
	value      any
	computeDur time.Duration
	// finish marks the submitter as the key's single-flight leader: the
	// writer resolves the flight (FinishCompute) right after the publish
	// decision lands, so a run that arrives after the waiters are served
	// finds the bytes in the store when the policy said yes.
	finish bool
}

// matWriter is the engine's bounded asynchronous materialization pipeline:
// completed values are queued (one slot per node, so a
// single Execute never blocks submitting) and drained by a small pool of
// writer goroutines that decide, encode and persist off the critical path.
// Execute flushes the pipeline — also on error — before returning, so the
// store and Result accounting are always complete.
//
// Policy decisions still happen "the moment each result becomes available"
// in the paper's online sense — values are handed over at completion, never
// buffered for batch decisions — but with more than one writer two
// decisions may be concurrent rather than strictly ordered by completion.
type matWriter struct {
	e        *Engine
	res      *Result
	resMu    *sync.Mutex
	durs     []atomic.Int64 // the run's lock-free duration plane (runCtx.durs)
	closures [][]dag.NodeID // ancestor closures, precomputed once per run
	jobs     chan matJob
	wg       sync.WaitGroup

	// queued dedupes in-flight keys within one run: when several nodes
	// share a result signature (identical subcomputations), only the first
	// completion is submitted.
	queued keyDedupe
}

// newMatWriter starts the writer pool for one Execute call, snapshotting
// the ancestor closures every decision's recomputation-chain term walks.
func newMatWriter(rc *runCtx) *matWriter {
	e, g := rc.e, rc.g
	w := &matWriter{
		e:        e,
		res:      rc.res,
		resMu:    &rc.resMu,
		durs:     rc.durs,
		closures: opt.AncestorClosures(g),
		jobs:     make(chan matJob, g.Len()),
		queued:   keyDedupe{keys: make(map[string]bool)},
	}
	for i := 0; i < matWriterCount; i++ {
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			for j := range w.jobs {
				w.process(j)
			}
		}()
	}
	return w
}

// submit hands a completed value to the pipeline, reporting whether a job
// was queued. Keys already queued this run are skipped (shared-signature
// nodes must not race to double-write), as are keys persisted — in either
// tier — by an earlier iteration; a rejected submit leaves any single-flight
// leadership with the caller (finish travels only with a queued job).
func (w *matWriter) submit(id dag.NodeID, name, key string, v any, computeDur time.Duration, finish bool) bool {
	if key == "" {
		return false // not addressable
	}
	if !w.queued.claim(key) || w.e.tiers().Has(key) {
		return false // in flight this run, or persisted by an earlier iteration
	}
	w.jobs <- matJob{id: id, name: name, key: key, value: v, computeDur: computeDur, finish: finish}
	return true
}

// flush closes the queue and waits for every in-flight decision and write.
func (w *matWriter) flush() {
	close(w.jobs)
	w.wg.Wait()
}

// process consults the policy and persists the value when told to, on a
// background goroutine.
func (w *matWriter) process(j matJob) {
	matDur, size, materialized, reward := w.e.decideAndPersist(j.name, j.key, j.value, j.computeDur.Nanoseconds(), w.ancestorCost(w.closures[j.id]))
	if j.finish {
		// Resolve the single-flight after the publish decision: waiters
		// take the value, and a later arrival finds the bytes in the store
		// when the policy materialized, or computes the value itself when
		// the policy declined.
		w.e.tiers().FinishCompute(j.key, j.value, nil)
	}
	w.record(j, matDur, size, materialized, reward)
}

// ancestorCost sums the best-known compute costs of the ancestors in
// closure: the measured duration when the ancestor computed this run, else
// the history estimate, else zero. Durations come from the run's atomic
// duration plane, never from res.Nodes — a decision can run while an
// ancestor is still computing (a Load node cuts the dependency chain), so
// the read must be atomic, and a still-running ancestor simply falls back
// to its history estimate, exactly like a node that never ran.
func (w *matWriter) ancestorCost(closure []dag.NodeID) int64 {
	if len(closure) == 0 {
		return 0
	}
	var total int64
	var unknown []string
	for _, a := range closure {
		if w.res.Nodes[a].State == opt.Compute {
			if d := w.durs[a].Load(); d > 0 {
				total += d
				continue
			}
		}
		unknown = append(unknown, w.res.Nodes[a].Name)
	}
	if w.e.History != nil {
		for _, d := range w.e.History.ComputeMany(unknown) {
			total += d.Nanoseconds()
		}
	}
	return total
}

// record lands the writer's accounting on the node and teaches the history
// the learned size. MatDuration stays separate from Duration: the write
// happened off the node's critical path.
func (w *matWriter) record(j matJob, matDur time.Duration, size int64, materialized bool, reward int64) {
	w.resMu.Lock()
	nr := &w.res.Nodes[j.id]
	nr.MatDuration = matDur
	nr.Size = size
	nr.Materialized = materialized
	nr.MatReward = reward
	w.resMu.Unlock()
	if w.e.History != nil {
		w.e.History.ObserveSize(j.name, size)
	}
}
