package exec

import (
	"context"
	"errors"
	"sync/atomic"
)

// faultStats is one Execute call's fault accounting, shared by every worker
// and the recovery path; the total lands in Result.Recomputes. The
// single-flight counters ride along (same lifetime, same consumers) and
// land in Result.InflightDedupHits/InflightWaits.
type faultStats struct {
	recomputes    atomic.Int64
	inflightHits  atomic.Int64
	inflightWaits atomic.Int64
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
