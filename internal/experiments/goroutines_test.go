package experiments

import (
	"testing"
	"time"

	"repro/internal/chaos"
)

// TestGoroutinesBoundedUnderLoad pins the O(workers) goroutine bound of
// the event-driven protocol core: 1000 in-flight agents over 4 nodes ×
// 8 workers must not cost a goroutine per agent or per in-flight
// transaction. The steady-state population is the fixed per-node crew
// (dispatcher, timer wheel, scheduler dispatcher, workers, recovery)
// plus transient RCE executions and network deliveries — nothing scales
// with the agents sitting in the input queues. The load runs on the chaos
// harness, whose 200µs hop holds every in-flight delivery in a goroutine,
// so the measured peak is ~105 (~50 at zero latency). A regression that
// re-introduces per-transaction goroutines (the pre-PR-5 polling cycles)
// blows past the bound immediately.
//
// Under the race detector the contended scheduler workload runs orders
// of magnitude slower (the PR-4 baseline could not even finish 128
// agents inside the harness deadline), so the race build scales the
// point down; the bound still sits well below the agent count.
func TestGoroutinesBoundedUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	const (
		nodes   = 4
		workers = 8
	)
	agents := 1000
	if raceDetectorEnabled {
		agents = 128
	}
	res := runLoad(t, chaos.Options{
		Nodes:         nodes,
		Workers:       workers,
		Agents:        agents,
		Steps:         2,
		Banks:         8,
		StepWork:      200 * time.Microsecond,
		RollbackRatio: -1,
		Timeout:       4 * time.Minute,
	}, chaos.Schedule{})
	// Fixed crew: ~4 goroutines per node (dispatcher, wheel, pool
	// dispatcher, recovery) + workers, the cluster collector, the test
	// runtime, a few deliveries in flight per worker's transaction, and
	// headroom for RCE executions — ~2× the measured peak of ~105, and
	// far below the agent count.
	bound := nodes*(4*workers+6) + 60
	if res.GoroutinePeak > bound {
		t.Errorf("goroutine peak %d exceeds O(workers) bound %d for %d in-flight agents",
			res.GoroutinePeak, bound, agents)
	}
	if res.GoroutinePeak >= agents {
		t.Errorf("goroutine peak %d scales with agents (%d) — per-transaction goroutines are back",
			res.GoroutinePeak, agents)
	}
	t.Logf("goroutine peak %d for %d agents on %d nodes × %d workers (bound %d)",
		res.GoroutinePeak, agents, nodes, workers, bound)
}
