package stable

import (
	"flag"
	"fmt"
)

// SpecFlags is the shared storage flag surface. Every cmd binds the same
// flag names through BindFlags and resolves them with Spec, so a storage
// knob spells and behaves identically across agentnode, loadgen and the
// chaos/experiment runners — the flags parse into a Spec in exactly one
// place.
type SpecFlags struct {
	engine  *string
	sync    *bool
	segSize *int64
}

// BindFlags registers the storage flags on fs, seeded with def's values
// as defaults. Call Spec after fs.Parse.
func BindFlags(fs *flag.FlagSet, def Spec) *SpecFlags {
	engine := def.Engine
	if engine == "" {
		engine = "mem"
	}
	return &SpecFlags{
		engine:  fs.String("store", engine, fmt.Sprintf("stable storage engine, one of %v (mem is volatile, testing only)", Engines())),
		sync:    fs.Bool("sync", def.Sync, "fsync stable-storage writes (crash-safe across power loss); disable for simulations and throwaway deployments"),
		segSize: fs.Int64("wal-segment", def.WAL.SegmentSize, "wal engine: segment rotation size in bytes (0 = default 4 MiB)"),
	}
}

// Spec resolves the parsed flags into a Spec. Dir and Counters are the
// caller's to fill in — they are deployment wiring, not tuning; the
// wal checkpoint interval keeps its engine default (tests set
// WALSpec.CheckpointEvery directly).
func (f *SpecFlags) Spec() Spec {
	return Spec{
		Engine: *f.engine,
		Sync:   *f.sync,
		WAL:    WALSpec{SegmentSize: *f.segSize},
	}
}
