// Package systems configures the comparator systems of the paper's Figure 2
// as core.Session presets. All four share the same compiler and execution
// engine — only the reuse and materialization *policies* differ, so the
// benchmark isolates exactly the design decisions the paper credits:
//
//   - HELIX: optimal recomputation (PSP/max-flow) + online cost-based
//     materialization under a storage budget.
//   - HELIX-unopt (the demo's "unoptimized HELIX" toggle, §3.2): same DSL
//     and engine, no cross-iteration reuse, no materialization.
//   - DeepDive-sim: materializes every intermediate ("materializes the
//     results of all feature extraction and engineering steps") and reuses
//     data-prep results, but its ML and evaluation components are not
//     user-configurable and rerun every iteration.
//   - KeystoneML-sim: one-shot optimizer; never materializes across
//     iterations, so every iteration recomputes its full program slice.
package systems

import (
	"fmt"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/opt"
)

// Kind names a comparator system.
type Kind string

// The four systems reproduced from the paper's evaluation.
const (
	Helix      Kind = "helix"
	HelixUnopt Kind = "helix-unopt"
	DeepDive   Kind = "deepdive"
	KeystoneML Kind = "keystoneml"
)

// Preset returns the named system's canonical core.Options: policy, reuse
// rules, and store layout filled in, everything else at its documented
// default. Callers tweak the returned value (workers, budgets, spill,
// tenancy) and pass it to core.Open — the systems package holds no
// configuration surface of its own anymore.
//
// Persisting systems root their store at baseDir/"<kind>-store"; baseDir
// may be empty only for systems that never persist (helix-unopt,
// keystoneml). Tiering stays off until the caller sets SpillDir (the
// conventional path is StoreDir+"-spill").
func Preset(kind Kind, baseDir string) (core.Options, error) {
	o := core.Options{SystemName: string(kind)}
	switch kind {
	case Helix:
		o.StoreDir = filepath.Join(baseDir, "helix-store")
		o.Policy = opt.OnlineHeuristic{}
		o.Reuse = true
	case HelixUnopt, KeystoneML:
		// No store and a nil policy: neither reuses nor materializes (the
		// unoptimized toggle; KeystoneML's one-shot optimizer).
	case DeepDive:
		o.StoreDir = filepath.Join(baseDir, "deepdive-store")
		o.Policy = opt.MaterializeAll{}
		o.Reuse = true
		o.NeverReuse = []core.Category{core.CatML, core.CatEval}
	default:
		return core.Options{}, fmt.Errorf("systems: unknown system %q", kind)
	}
	if o.StoreDir != "" && baseDir == "" {
		return core.Options{}, fmt.Errorf("systems: %s requires a base directory for its store", kind)
	}
	return o, nil
}
