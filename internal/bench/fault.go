package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/exec"
)

// ErrInjectedFatal is the permanent-failure error FaultyOp injects when a
// schedule marks a node fatal. The engine's default classifier treats it
// (like any unrecognized error) as fatal: no retry, first-error
// cancellation.
var ErrInjectedFatal = errors.New("bench: injected fatal fault")

// FaultSchedule describes the deterministic failure behaviour of one
// wrapped task.
type FaultSchedule struct {
	// Transient is how many invocations fail with exec.ErrTransient before
	// the task starts succeeding. The engine's retry budget must exceed it
	// for the run to complete.
	Transient int
	// Stall is slept (ctx-honoring) before each injected failure — the
	// "slow failure" mode, which exercises retries racing real work and,
	// when it exceeds the policy's NodeTimeout, deadline-triggered retries.
	Stall time.Duration
	// Fatal makes every invocation after the transients fail permanently
	// with ErrInjectedFatal, so the run must abort via first-error
	// cancellation.
	Fatal bool
}

// FaultyOp wraps a task with a deterministic failure schedule. The
// schedule's state (how many injected failures remain) lives in the
// returned task, so wrap afresh for every run — a reused wrapped task has
// already burned its failures. The wrapped task's value is untouched: once
// the injected failures are exhausted it delegates to the inner Run, so a
// faulted run that completes must produce byte-identical values to a clean
// one.
func FaultyOp(inner exec.Task, schedule FaultSchedule) exec.Task {
	var remaining atomic.Int32
	remaining.Store(int32(schedule.Transient))
	out := inner
	out.Run = func(ctx context.Context, in []any) (any, error) {
		if remaining.Add(-1) >= 0 {
			if err := sleepCtx(ctx, schedule.Stall); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("injected transient fault: %w", exec.ErrTransient)
		}
		if schedule.Fatal {
			if err := sleepCtx(ctx, schedule.Stall); err != nil {
				return nil, err
			}
			return nil, ErrInjectedFatal
		}
		return inner.Run(ctx, in)
	}
	return out
}

// FaultPlan is a seeded recipe for faulting a whole DAG: which nodes fail,
// how often, and how slowly. The same (plan, DAG) pair always produces the
// same schedules, making chaos runs reproducible from their seed alone.
type FaultPlan struct {
	// Seed drives node selection and per-node failure counts.
	Seed int64
	// TransientRate is the per-node probability of carrying transient
	// failures.
	TransientRate float64
	// MaxTransient caps injected failures per afflicted node; each gets
	// 1..MaxTransient. The executing engine needs MaxAttempts >
	// MaxTransient for a zero-failure run.
	MaxTransient int
	// StallRate is the probability an afflicted node's failures are slow
	// (preceded by a StallDelay sleep) rather than instantaneous.
	StallRate float64
	// StallDelay is the slow-failure sleep.
	StallDelay time.Duration
}

// DefaultFaultPlan returns the chaos harness's canonical plan: roughly a
// third of the nodes fail 1–2 times, a quarter of those slowly, all
// recoverable within a 4-attempt budget.
func DefaultFaultPlan(seed int64) FaultPlan {
	return FaultPlan{
		Seed:          seed,
		TransientRate: 0.35,
		MaxTransient:  2,
		StallRate:     0.25,
		StallDelay:    200 * time.Microsecond,
	}
}

// Policy returns the engine fault policy matched to the plan: enough
// attempts to outlast MaxTransient, fast deterministic backoff keyed to
// the plan's seed.
func (p FaultPlan) Policy() exec.FaultPolicy {
	return exec.FaultPolicy{
		MaxAttempts: p.MaxTransient + 2,
		BaseBackoff: 50 * time.Microsecond,
		MaxBackoff:  time.Millisecond,
		JitterSeed:  p.Seed,
	}
}

// WithFaults returns a faulted copy of the DAG per the plan, plus the
// total number of injected transient failures (the minimum Retries a
// completing run must report). The copy carries fresh failure counters, so
// call it once per run.
func WithFaults(sd *SchedDAG, plan FaultPlan) (*SchedDAG, int) {
	rng := rand.New(rand.NewSource(plan.Seed ^ 0x7a05))
	tasks := make([]exec.Task, len(sd.Tasks))
	injected := 0
	for i, tk := range sd.Tasks {
		if rng.Float64() >= plan.TransientRate {
			tasks[i] = tk
			continue
		}
		sched := FaultSchedule{Transient: 1 + rng.Intn(plan.MaxTransient)}
		if rng.Float64() < plan.StallRate {
			sched.Stall = plan.StallDelay
		}
		injected += sched.Transient
		tasks[i] = FaultyOp(tk, sched)
	}
	return &SchedDAG{Name: sd.Name + "+faults", G: sd.G, Tasks: tasks}, injected
}
