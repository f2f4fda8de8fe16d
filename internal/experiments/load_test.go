package experiments

import (
	"testing"
	"time"

	"repro/internal/chaos"
)

// runLoad runs a plain load, a chaos run with the given (fault-free)
// schedule, and fails the test on a harness error or on any violated
// invariant: exactly-once steps, FIFO traces, compensated rollbacks,
// drained queues and a clean store reopen.
func runLoad(t *testing.T, opts chaos.Options, sched chaos.Schedule) *chaos.Result {
	t.Helper()
	res, err := chaos.RunSchedule(opts, sched)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	return res
}

// TestThroughputHarness: a small rollback-free load over two banks per
// node completes with every invariant intact, one committed step
// transaction per step (the work steps plus the decide step), and the
// scheduler pool engaged.
func TestThroughputHarness(t *testing.T) {
	res := runLoad(t, chaos.Options{
		Nodes: 2, Workers: 4, Agents: 8, Steps: 3, Banks: 2,
		StepWork: time.Millisecond, RollbackRatio: -1,
	}, chaos.Schedule{})
	if res.P50 <= 0 || res.P99 < res.P50 {
		t.Errorf("implausible percentiles p50=%v p99=%v", res.P50, res.P99)
	}
	if res.Metrics.StepTxns != 8*(3+1) {
		t.Errorf("step txns = %d, want 32", res.Metrics.StepTxns)
	}
	if res.Metrics.SchedClaims == 0 {
		t.Error("scheduler claimed nothing; pool not engaged")
	}
}

// TestLoadRingRollback: ring-placed agents roll back and compensate like
// statically placed ones. The last compensation hands the agent to its
// restored step, whose "@ring:<key>" location must resolve to the key's
// owner; shipped to the sentinel itself, the hand-off is never answered.
func TestLoadRingRollback(t *testing.T) {
	res := runLoad(t, chaos.Options{
		Agents: 6, Steps: 3, Ring: true,
		StepWork: time.Millisecond, Timeout: 30 * time.Second,
	}, chaos.Schedule{})
	if res.RolledBack == 0 {
		t.Error("no agent rolled back")
	}
}

// TestThroughputJoinMidRun: the join smoke the CI loadgen job runs — a
// 5th node boots mid-run, which implies ring placement. The conservation
// check (summed over every node, the joiner included) is the
// zero-lost/zero-duplicated-steps assertion; here we additionally
// require that the joiner actually received load via transactional
// migrations.
func TestThroughputJoinMidRun(t *testing.T) {
	res := runLoad(t, chaos.Options{
		Nodes: 4, Workers: 2, Agents: 24, Steps: 6, Banks: 2,
		StepWork: 4 * time.Millisecond, RollbackRatio: -1,
	}, chaos.Schedule{Events: []chaos.Event{{At: 25 * time.Millisecond, Op: chaos.OpJoin, Node: "j0"}}})
	if res.Metrics.StepTxns != 24*(6+1) {
		t.Errorf("step txns = %d, want 168", res.Metrics.StepTxns)
	}
	if res.Metrics.Migrations == 0 {
		t.Error("mid-run join triggered no migrations")
	}
	t.Logf("migrations=%d bytes=%d aborts=%d refusals=%d",
		res.Metrics.Migrations, res.Metrics.MigrationBytes,
		res.Metrics.MigrationAborts, res.Metrics.AdoptionRefusals)
}
