package stable

import (
	"flag"
	"fmt"
	"strconv"
)

// SpecFlags is the shared storage flag surface. Every cmd binds the same
// flag names through BindFlags and resolves them with Spec, so a storage
// knob spells and behaves identically across agentnode, loadgen and the
// chaos/experiment runners — the flags parse into a Spec in exactly one
// place.
type SpecFlags struct {
	engine    *string
	sync      *bool
	segSize   *int64
	ckptEvery *int64
	followers *int
	acks      *string
}

// BindFlags registers the storage flags on fs, seeded with def's values
// as defaults. Call Spec after fs.Parse.
func BindFlags(fs *flag.FlagSet, def Spec) *SpecFlags {
	engine := def.Engine
	if engine == "" {
		engine = "mem"
	}
	defAcks := "quorum"
	if def.Repl.Acks == 1 {
		defAcks = "async"
	}
	return &SpecFlags{
		engine:    fs.String("store", engine, fmt.Sprintf("stable storage engine, one of %v (mem is volatile, testing only)", Engines())),
		sync:      fs.Bool("sync", def.Sync, "fsync stable-storage writes (crash-safe across power loss); disable for simulations and throwaway deployments"),
		segSize:   fs.Int64("wal-segment", def.WAL.SegmentSize, "wal engine: segment rotation size in bytes (0 = default 4 MiB)"),
		ckptEvery: fs.Int64("wal-checkpoint", def.WAL.CheckpointEvery, "wal engine: bytes appended between index checkpoints (0 = default 1 MiB, negative disables)"),
		followers: fs.Int("repl", def.Repl.Followers, "follower replicas per node shard (0 disables replication)"),
		acks:      fs.String("repl-acks", defAcks, "replication ack mode: async (primary-only durability, lowest latency), quorum (majority of copies before a batch is acknowledged), or an explicit copy count"),
	}
}

// Spec resolves the parsed flags into a Spec. Dir and Counters are the
// caller's to fill in — they are deployment wiring, not tuning.
func (f *SpecFlags) Spec() (Spec, error) {
	spec := Spec{
		Engine: *f.engine,
		Sync:   *f.sync,
		WAL: WALSpec{
			SegmentSize:     *f.segSize,
			CheckpointEvery: *f.ckptEvery,
		},
		Repl: ReplSpec{Followers: *f.followers},
	}
	if spec.Repl.Followers < 0 {
		return Spec{}, fmt.Errorf("-repl must be >= 0 (got %d)", spec.Repl.Followers)
	}
	switch *f.acks {
	case "async":
		spec.Repl.Acks = 1
	case "quorum":
		spec.Repl.Acks = AcksQuorum
	default:
		n, err := strconv.Atoi(*f.acks)
		if err != nil || n < 1 {
			return Spec{}, fmt.Errorf("bad -repl-acks %q (want async, quorum, or a copy count >= 1)", *f.acks)
		}
		spec.Repl.Acks = n
	}
	return spec, nil
}
