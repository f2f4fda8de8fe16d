package experiments

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/stable"
)

// chaosPoints are the rows of the chaos table: one seed per engine ×
// worker count.
var chaosPoints = []struct {
	seed    int64
	store   string
	workers int
}{
	{1, "mem", 1}, {2, "mem", 8},
	{4, "wal", 1}, {5, "wal", 8},
}

// Chaos is the `chaos` experiment: a small sweep of seeded fault
// schedules (node crashes, partitions, message drop/duplicate/reorder,
// latency spikes) over engine × worker combinations, asserting the §4.3
// global invariants per run. The CI chaos-matrix job sweeps far more
// seeds; this table is the reproducible sample in the experiment suite.
// Any seed replays with one command (see the table note).
func Chaos() (*Table, error) {
	t := &Table{
		Title: "CHAOS: seeded fault schedules vs §4.3 global invariants",
		Note: "replay: go run ./cmd/loadgen -chaos -chaos-seed=N -store=<engine> -workers=<W>;\n" +
			"invariants: exactly-once steps, per-agent FIFO, compensated rollbacks, drained queues, clean store reopen",
		Header: []string{"seed", "store", "workers", "crashes", "partitions", "fault wins",
			"drops", "dups", "reorders", "rolled back", "elapsed ms", "verdict"},
	}
	for _, p := range chaosPoints {
		res, err := chaos.Run(chaos.Options{Seed: p.seed, Store: stable.Spec{Engine: p.store}, Workers: p.workers})
		if err != nil {
			return nil, fmt.Errorf("chaos seed %d (%s/%d): %w", p.seed, p.store, p.workers, err)
		}
		verdict := "OK"
		if res.Failed() {
			verdict = fmt.Sprintf("%d VIOLATIONS", len(res.Violations))
		}
		crashes, parts, faultWins := res.Schedule.Counts()
		t.AddRow(p.seed, p.store, p.workers, crashes, parts, faultWins,
			res.Faults.Drops, res.Faults.Dups, res.Faults.Reorders,
			res.RolledBack, float64(res.Elapsed.Microseconds())/1000, verdict)
	}
	return t, nil
}
