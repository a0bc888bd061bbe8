package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// TestConcurrentIdenticalSubmissionsSingleFlight is the tentpole's -race
// acceptance test: N tenants submit the *same* variant simultaneously
// against one shared store. The single-flight registry must collapse the
// duplicate work — summed over the runs, compute-planned nodes minus
// in-flight dedup hits equals the unique signature count of one run — and
// every response must carry the byte-identical output hash of a solo run.
func TestConcurrentIdenticalSubmissionsSingleFlight(t *testing.T) {
	variant := Variant{WithHours: true}

	// Solo reference: hash and unique signature count of this variant.
	var refHash string
	var unique int
	{
		svc := newTestService(t, Config{SpillBudgetBytes: -1})
		resp, apiErr := svc.Submit(context.Background(), &SubmitRequest{
			Tenant: "solo", App: "census", Variant: variant,
		})
		if apiErr != nil {
			t.Fatalf("reference run: %v", apiErr)
		}
		refHash = resp.OutputHash
		unique = resp.Computed + resp.Loaded
		shutdown(t, svc)
	}

	const n = 3
	svc := newTestService(t, Config{SpillBudgetBytes: -1, MaxConcurrent: n})

	// Barrier: hold the flight of the workflow's root node until all n
	// runs have planned and parked on it. Without it a fast run can
	// finish before the others plan, and they load its values instead of
	// racing it. The test holds the root's leadership itself and releases
	// it successfully with the root task's own value, which every parked
	// run takes — so the fleet never executes the root.
	compiled, err := core.Compile(svc.workflow(&SubmitRequest{App: "census", Variant: variant}))
	if err != nil {
		t.Fatal(err)
	}
	rootTask := compiled.Tasks[compiled.Graph.Lookup("data")]
	root := rootTask.Key
	if leader, _ := svc.Tiers().BeginCompute(root); !leader {
		t.Fatal("root node already in flight before any submission")
	}

	responses := make([]*SubmitResponse, n)
	apiErrs := make([]*APIError, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i], apiErrs[i] = svc.Submit(context.Background(), &SubmitRequest{
				Tenant: fmt.Sprintf("tenant-%d", i), App: "census", Variant: variant,
			})
		}(i)
	}
	for deadline := time.Now().Add(5 * time.Second); svc.Tiers().InflightWaiters(root) < n; {
		if time.Now().After(deadline) {
			svc.Tiers().FinishCompute(root, nil, errors.New("barrier abandoned"))
			wg.Wait()
			t.Fatalf("only %d of %d runs parked on the root node", svc.Tiers().InflightWaiters(root), n)
		}
		time.Sleep(time.Millisecond)
	}
	rootVal, err := rootTask.Run(context.Background(), nil)
	svc.Tiers().FinishCompute(root, rootVal, err)
	wg.Wait()
	if err != nil {
		t.Fatalf("root task: %v", err)
	}

	var computed, hits, recomputes int64
	for i := 0; i < n; i++ {
		if apiErrs[i] != nil {
			t.Fatalf("run %d: %v", i, apiErrs[i])
		}
		if responses[i].OutputHash != refHash {
			t.Errorf("run %d output hash %s diverges from solo reference %s",
				i, responses[i].OutputHash, refHash)
		}
		computed += int64(responses[i].Computed)
		hits += responses[i].Counters.InflightDedupHits
		recomputes += responses[i].Counters.Recomputes
	}
	if hits == 0 {
		t.Error("3 identical concurrent submissions raced one store, yet InflightDedupHits == 0")
	}
	if recomputes != 0 {
		t.Errorf("recomputes = %d, want 0", recomputes)
	}
	// Exactly-once: actual operator executions across the fleet equal one
	// run's unique signature count, less the root the test ran itself.
	// (Computed counts plan states; a state served by the registry
	// contributes a dedup hit instead of an execution, and a planned load
	// was produced by another run's single execution.)
	if got := computed - hits; got != int64(unique-1) {
		t.Errorf("Σ(computed) %d - Σ(hits) %d = %d executions, want exactly %d unique signatures less the root",
			computed, hits, got, unique-1)
	}
	shutdown(t, svc)
}

// TestStatusQueued drives the admission queue through /v1/status's new
// queued field: a submission blocked behind a full service must be visible
// there, and must drain back to zero once granted.
func TestStatusQueued(t *testing.T) {
	svc := newTestService(t, Config{MaxConcurrent: 1})
	if apiErr := svc.admit(context.Background(), "holder"); apiErr != nil {
		t.Fatalf("holder admit: %v", apiErr)
	}
	done := make(chan *APIError, 1)
	go func() {
		_, apiErr := svc.Submit(context.Background(), &SubmitRequest{Tenant: "queued", App: "census"})
		done <- apiErr
	}()
	waitQueued(t, svc, 1)
	st := svc.Status()
	if st.Queued != 1 || st.InFlight != 1 {
		t.Fatalf("status queued=%d in_flight=%d, want 1/1", st.Queued, st.InFlight)
	}
	svc.release("holder")
	if apiErr := <-done; apiErr != nil {
		t.Fatalf("queued submission: %v", apiErr)
	}
	if st := svc.Status(); st.Queued != 0 {
		t.Fatalf("queued = %d after grant, want 0", st.Queued)
	}
	shutdown(t, svc)
}

// TestStatusCountsFailedRuns: a run that executes and fails must appear in
// both submissions and failed; successes only in submissions.
func TestStatusCountsFailedRuns(t *testing.T) {
	svc := newTestService(t, Config{})
	_, apiErr := svc.Submit(context.Background(), &SubmitRequest{
		Tenant: "t", App: "census", Variant: Variant{Learner: "bogus"},
	})
	if apiErr == nil {
		t.Fatal("unknown learner kind ran successfully")
	}
	if apiErr.Status != 500 || apiErr.Code != CodeInternal {
		t.Fatalf("got %d/%s, want 500/%s", apiErr.Status, apiErr.Code, CodeInternal)
	}
	if st := svc.Status(); st.Submissions != 1 || st.Failed != 1 {
		t.Fatalf("after failed run: submissions=%d failed=%d, want 1/1", st.Submissions, st.Failed)
	}
	if _, apiErr := svc.Submit(context.Background(), &SubmitRequest{Tenant: "t", App: "census"}); apiErr != nil {
		t.Fatalf("healthy run: %v", apiErr)
	}
	if st := svc.Status(); st.Submissions != 2 || st.Failed != 1 {
		t.Fatalf("after healthy run: submissions=%d failed=%d, want 2/1", st.Submissions, st.Failed)
	}
	shutdown(t, svc)
}

// TestBudgetRecheckedAtGrant: a tenant whose footprint crosses its cap
// *while its submission waits in the admission queue* must be refused when
// the queue finally grants it — the pre-admission check alone would let it
// keep writing for as long as its backlog lasts.
func TestBudgetRecheckedAtGrant(t *testing.T) {
	svc := newTestService(t, Config{MaxConcurrent: 1, TenantBudgetBytes: 4096})
	if apiErr := svc.admit(context.Background(), "holder"); apiErr != nil {
		t.Fatalf("holder admit: %v", apiErr)
	}
	done := make(chan *APIError, 1)
	go func() {
		_, apiErr := svc.Submit(context.Background(), &SubmitRequest{Tenant: "greedy", App: "census"})
		done <- apiErr
	}()
	waitQueued(t, svc, 1)

	// While greedy waits, its footprint crosses the cap (another of its
	// runs materializing, in production; seeded directly here).
	if err := svc.Tiers().Hot().PutBytesHint("feedfacecafebeef", make([]byte, 8192),
		store.RewardHint{Owner: "greedy"}); err != nil {
		t.Fatal(err)
	}
	svc.release("holder")

	apiErr := <-done
	if apiErr == nil {
		t.Fatal("over-budget tenant was granted at queue head")
	}
	if apiErr.Status != 403 || apiErr.Code != CodeOverBudget {
		t.Fatalf("got %d/%s, want 403/%s", apiErr.Status, apiErr.Code, CodeOverBudget)
	}
	// A refusal is not a completed run.
	if st := svc.Status(); st.Submissions != 0 || st.Failed != 0 {
		t.Fatalf("refusal counted as a run: submissions=%d failed=%d", st.Submissions, st.Failed)
	}
	shutdown(t, svc)
}

// TestDatasetCacheBounded sweeps more distinct (rows, seed) pairs than the
// cache holds and asserts the LRU bound, including recency refresh.
func TestDatasetCacheBounded(t *testing.T) {
	svc := newTestService(t, Config{})
	for i := 0; i < datasetCacheMax+2; i++ {
		svc.workflow(&SubmitRequest{Rows: 40 + i, Seed: 7})
	}
	svc.dsMu.Lock()
	size, order := len(svc.datasets), len(svc.dsOrder)
	_, oldest := svc.datasets[datasetKey{rows: 40, seed: 7}]
	_, newest := svc.datasets[datasetKey{rows: 40 + datasetCacheMax + 1, seed: 7}]
	svc.dsMu.Unlock()
	if size != datasetCacheMax || order != datasetCacheMax {
		t.Fatalf("cache holds %d entries (order %d), want %d", size, order, datasetCacheMax)
	}
	if oldest {
		t.Fatal("least-recently-used dataset survived eviction")
	}
	if !newest {
		t.Fatal("most recent dataset missing from cache")
	}

	// Re-touching an old entry must refresh it past the next eviction.
	survivor := datasetKey{rows: 40 + 2, seed: 7}
	svc.workflow(&SubmitRequest{Rows: survivor.rows, Seed: survivor.seed})
	svc.workflow(&SubmitRequest{Rows: 99, Seed: 7})
	svc.dsMu.Lock()
	_, ok := svc.datasets[survivor]
	svc.dsMu.Unlock()
	if !ok {
		t.Fatal("recently-touched dataset was evicted ahead of colder entries")
	}
	shutdown(t, svc)
}
