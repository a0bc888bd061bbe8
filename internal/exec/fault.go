package exec

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/dag"
)

// ErrTransient marks an operator failure as retryable. Operators wrap (or
// return) it for failures that a fresh attempt can plausibly clear — a
// flaky data source, a lost connection — and the engine's fault policy
// retries the node in place on the same worker instead of cancelling the
// run. The default classifier treats everything else (except a per-node
// deadline expiry) as fatal.
var ErrTransient = errors.New("transient fault")

// ErrorClass is a fault classifier's verdict on one operator error.
type ErrorClass int

const (
	// ClassFatal aborts the run: the existing first-error cancellation
	// stops all not-yet-dispatched work. The zero value.
	ClassFatal ErrorClass = iota
	// ClassTransient retries the node in place, up to the policy's attempt
	// budget, with exponential backoff between attempts.
	ClassTransient
)

// ClassifyDefault is the fault classification used when FaultPolicy.Classify
// is nil: ErrTransient-wrapped errors and per-node deadline expiries are
// transient, everything else is fatal.
func ClassifyDefault(err error) ErrorClass {
	if errors.Is(err, ErrTransient) || errors.Is(err, context.DeadlineExceeded) {
		return ClassTransient
	}
	return ClassFatal
}

// Backoff defaults: short enough that a handful of retries costs less than
// a typical node, long enough apart to ride out a blip.
const (
	defaultBaseBackoff = 200 * time.Microsecond
	defaultMaxBackoff  = 20 * time.Millisecond
)

// FaultPolicy tunes the engine's fault tolerance for operator execution.
// The zero value disables everything: one attempt, no deadline — exactly
// the pre-fault-tolerance behavior.
type FaultPolicy struct {
	// MaxAttempts is the per-node attempt budget; <=1 disables retries.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; it doubles per
	// attempt up to MaxBackoff. <=0 selects the default (200µs).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff. <=0 selects the default
	// (20ms).
	MaxBackoff time.Duration
	// JitterSeed seeds the deterministic backoff jitter: the same seed,
	// node and attempt always wait the same duration, so fault-injection
	// runs are reproducible.
	JitterSeed int64
	// NodeTimeout is the per-attempt deadline: each attempt runs under a
	// context that expires after this long, and operators that honor their
	// context are interrupted. A deadline expiry classifies as transient by
	// default (a slow fault is retried like a failed one). 0 means no
	// deadline.
	NodeTimeout time.Duration
	// Classify maps an operator error to its class; nil selects
	// ClassifyDefault.
	Classify func(error) ErrorClass
}

func (p FaultPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

func (p FaultPolicy) classify(err error) ErrorClass {
	if p.Classify != nil {
		return p.Classify(err)
	}
	return ClassifyDefault(err)
}

// backoff returns the delay before the retry that follows attempt (1-based):
// exponential growth from BaseBackoff capped at MaxBackoff, jittered into
// [d/2, d] by a splitmix64 stream over (seed, node, attempt) so concurrent
// retries decorrelate while every schedule stays reproducible.
func (p FaultPolicy) backoff(id dag.NodeID, attempt int) time.Duration {
	base, ceil := p.BaseBackoff, p.MaxBackoff
	if base <= 0 {
		base = defaultBaseBackoff
	}
	if ceil <= 0 {
		ceil = defaultMaxBackoff
	}
	d := base
	for i := 1; i < attempt && d < ceil; i++ {
		d *= 2
	}
	if d > ceil {
		d = ceil
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	r := splitmix64(uint64(p.JitterSeed) ^ (uint64(id)+1)*0x9E3779B97F4A7C15 ^ uint64(attempt)<<48)
	return half + time.Duration(r%uint64(half+1))
}

// splitmix64 returns the first output of the splitmix64 stream seeded with
// seed (Steele et al.): two multiplies, no per-call source to initialize.
func splitmix64(seed uint64) uint64 {
	z := seed + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// faultStats is one Execute call's fault accounting, shared by every worker
// and the recovery path; the totals land in Result.Retries/Recomputes. The
// single-flight counters ride along (same lifetime, same consumers) and
// land in Result.InflightDedupHits/InflightWaits.
type faultStats struct {
	retries       atomic.Int64
	recomputes    atomic.Int64
	inflightHits  atomic.Int64
	inflightWaits atomic.Int64
}

// runTask executes one node's operator under the engine's fault policy:
// each attempt runs under the per-node deadline (when configured), a
// transient failure retries in place on the calling worker — the node never
// re-enters the ready heap, so retry is invisible to dispatch — and a fatal
// failure (or an exhausted attempt budget) returns the error to the
// caller's first-error cancellation. The backoff sleep is interruptible by
// run cancellation.
func (e *Engine) runTask(ctx context.Context, id dag.NodeID, run func(context.Context, []any) (any, error), inputs []any, stats *faultStats) (any, error) {
	p := e.Faults
	attempts := p.attempts()
	for attempt := 1; ; attempt++ {
		actx := ctx
		var cancel context.CancelFunc
		if p.NodeTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, p.NodeTimeout)
		}
		v, err := run(actx, inputs)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			return v, nil
		}
		// A cancelled run never retries: the error in hand (however it
		// classifies) is just the shutdown surfacing through the operator.
		if ctx.Err() != nil || attempt >= attempts || p.classify(err) != ClassTransient {
			if attempt > 1 {
				err = fmt.Errorf("after %d attempts: %w", attempt, err)
			}
			return nil, err
		}
		stats.retries.Add(1)
		if d := p.backoff(id, attempt); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, err
			case <-t.C:
			}
		}
	}
}

// dropCollateralCancels filters a run's joined error list down to its
// causes: once the first failure cancels the run context, operators that
// honor their context abort with context.Canceled — casualties of the
// shutdown, not reasons for it. When every error is a cancellation (the
// caller cancelled the run externally), the list is returned unchanged so
// the run still reports why it stopped.
func dropCollateralCancels(errs []error) []error {
	real := errs[:0:0]
	for _, err := range errs {
		if !errors.Is(err, context.Canceled) {
			real = append(real, err)
		}
	}
	if len(real) == 0 {
		return errs
	}
	return real
}
