package wal

import "repro/internal/stable"

// The engine self-registers so stable.Open(Spec{Engine: "wal"}) works in
// any program that links this package; programs select their engines by
// importing them (database/sql driver style).
func init() {
	stable.RegisterEngine("wal", func(spec stable.Spec) (stable.Store, error) {
		return Open(spec.Dir, Options{
			Sync:            spec.Sync,
			SegmentSize:     spec.WAL.SegmentSize,
			CheckpointEvery: spec.WAL.CheckpointEvery,
			Counters:        spec.Counters,
		})
	})
}
