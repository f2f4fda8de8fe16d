package experiments

import (
	"fmt"
	"slices"

	"repro/internal/metrics"
	"repro/internal/stable"
	_ "repro/internal/stable/wal" // registers the wal engine for stable.Open
)

// StoreSpec builds the cluster storage Spec for one backend. Durable
// backends root per-node directories under baseDir (the cluster derives
// them with Spec.ForNode); Sync is left off — the simulation convention,
// matching MemStore semantics.
func StoreSpec(backend, baseDir string, counters *metrics.Counters) (stable.Spec, error) {
	if backend == "" {
		backend = "mem"
	}
	if !slices.Contains(stable.Engines(), backend) {
		return stable.Spec{}, fmt.Errorf("unknown store backend %q (want one of %v)", backend, stable.Engines())
	}
	return stable.Spec{Engine: backend, Dir: baseDir, Counters: counters}, nil
}
