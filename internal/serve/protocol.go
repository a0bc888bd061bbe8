// Package serve is the multi-tenant HELIX daemon: a long-lived service
// accepting concurrent workflow submissions over HTTP/JSON and running them
// against one shared tiered materialization store, so identical sub-DAGs
// submitted by different tenants dedupe to a single computation (the
// paper's materialization-reuse payoff at its best, §2.3, extended across
// users as the ROADMAP's "millions of users" setting).
//
// The package is layered protocol / handler / service-core:
//
//   - protocol.go: the wire types — requests, responses, structured errors.
//   - handler.go: HTTP transport only — decode, dispatch, encode.
//   - service.go: tenancy, admission control, the shared store, and
//     session construction through the same core.Options API every other
//     entry point uses.
package serve

import (
	"repro/internal/exec"
)

// SubmitRequest asks the service to run one workflow iteration on behalf
// of a tenant. The workflow is named declaratively (app + variant knobs)
// rather than shipped as code: content-addressed reuse needs structurally
// identical sub-DAGs, and a closed variant space guarantees two tenants
// asking for the same prefix get byte-identical signatures.
type SubmitRequest struct {
	// Tenant identifies the submitting user; required. Materializations
	// produced by this run are stamped with it for budget accounting.
	Tenant string `json:"tenant"`
	// App selects the workload ("census"). Required.
	App string `json:"app"`
	// System selects the comparator system preset; empty means "helix".
	System string `json:"system,omitempty"`
	// Rows sizes the generated training dataset; 0 means the service
	// default. Submissions with equal (Rows, Seed) share one cached
	// dataset, which is what makes their workflow prefixes dedupe.
	Rows int `json:"rows,omitempty"`
	// Seed is the dataset generator seed; 0 means the service default.
	Seed int64 `json:"seed,omitempty"`
	// Variant tunes the workflow away from the app's defaults.
	Variant Variant `json:"variant"`
}

// Variant is the closed set of census workflow knobs a submission may
// turn. Zero values mean "keep the app default" (for booleans the default
// is off, matching the scenario's initial iteration).
type Variant struct {
	Learner           string  `json:"learner,omitempty"`
	RegParam          float64 `json:"reg_param,omitempty"`
	Epochs            int     `json:"epochs,omitempty"`
	Metric            string  `json:"metric,omitempty"`
	AgeBuckets        int     `json:"age_buckets,omitempty"`
	WithOccupation    bool    `json:"with_occupation,omitempty"`
	WithMaritalStatus bool    `json:"with_marital_status,omitempty"`
	WithRace          bool    `json:"with_race,omitempty"`
	WithCapital       bool    `json:"with_capital,omitempty"`
	WithEduXOcc       bool    `json:"with_edu_x_occ,omitempty"`
	WithHours         bool    `json:"with_hours,omitempty"`
}

// SubmitResponse reports one completed run.
type SubmitResponse struct {
	// Schema is the wire-schema version (exec.ReportSchemaVersion).
	Schema int    `json:"schema"`
	Tenant string `json:"tenant"`
	App    string `json:"app"`
	System string `json:"system"`
	// WallMS is the run's wall-clock in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// Computed, Loaded and Pruned count the executed plan's node states —
	// Loaded > 0 on a first-contact submission means the shared store
	// already held part of this workflow.
	Computed int `json:"computed"`
	Loaded   int `json:"loaded"`
	Pruned   int `json:"pruned"`
	// Counters is this run's consolidated execution-counter block,
	// including CrossSessionHits: how many of the plan's loads were served
	// from bytes a different tenant materialized. On a shared store the
	// tier-traffic counts (spills, cold evictions, cold reads) are deltas over a
	// window other sessions were also active in — informational, not
	// attributable to this run alone.
	Counters exec.Counters `json:"counters"`
	// OutputHash is a stable digest of the run's output values
	// (name + encoded bytes, sorted by name) — two runs of the same
	// variant must agree on it regardless of tenancy, sharing, or plan.
	OutputHash string `json:"output_hash"`
	// TenantUsedBytes is the tenant's store footprint after the run.
	TenantUsedBytes int64 `json:"tenant_used_bytes"`
}

// StatusResponse is the daemon-lifetime view.
type StatusResponse struct {
	Schema   int  `json:"schema"`
	Draining bool `json:"draining"`
	// Submissions counts every admitted run that completed — successes and
	// failures alike; Failed is the failing subset. Refusals that never ran
	// (over_budget, draining, queue cancellation) count in neither.
	Submissions int64 `json:"submissions"`
	Failed      int64 `json:"failed"`
	InFlight    int   `json:"in_flight"`
	// Queued is the current admission-queue depth: submissions accepted but
	// waiting for a concurrency slot.
	Queued int `json:"queued"`
	// Counters accumulates every completed run's counter block
	// (daemon-lifetime totals, not a window).
	Counters exec.Counters `json:"counters"`
	// TenantUsedBytes maps each tenant to its current store footprint
	// across both tiers; unowned bytes (adopted from disk) appear under "".
	TenantUsedBytes map[string]int64 `json:"tenant_used_bytes"`
	// TenantBudgetBytes is the per-tenant admission cap (0 = unlimited).
	TenantBudgetBytes int64 `json:"tenant_budget_bytes"`
	HotUsedBytes      int64 `json:"hot_used_bytes"`
	ColdUsedBytes     int64 `json:"cold_used_bytes"`
}

// APIError is the structured error every non-2xx response carries,
// wrapped in ErrorBody. Status is the HTTP status code (not serialized —
// it is the response's status line).
type APIError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements error.
func (e *APIError) Error() string { return e.Code + ": " + e.Message }

// ErrorBody is the JSON envelope of an APIError.
type ErrorBody struct {
	Error APIError `json:"error"`
}

// Error codes returned by the service.
const (
	CodeBadRequest    = "bad_request"    // malformed JSON or missing fields
	CodeUnknownApp    = "unknown_app"    // App is not a served workload
	CodeUnknownSystem = "unknown_system" // System is not a known preset
	CodeOverBudget    = "over_budget"    // tenant's store footprint at cap
	CodeDraining      = "draining"       // shutdown in progress
	CodeCanceled      = "canceled"       // client went away mid-run
	CodeInternal      = "internal"       // run failed
)
