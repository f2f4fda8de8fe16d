package cluster_test

import (
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/cluster"
	"repro/internal/itinerary"
	"repro/internal/metrics"
	"repro/internal/network"
)

// TestVirtualClockClusterDeterministicTimers threads a VirtualClock
// through cluster.Options.Clock into every node's protocol timer wheel
// and asserts the core determinism property of the event-driven
// protocol: on a loss-free network, a multi-node agent run makes full
// progress WITHOUT a single protocol timer firing — retries, in-doubt
// queries and notification resends are armed but never needed, so chaos
// runs on a virtual clock advance protocol time explicitly instead of
// racing wall-clock pollers. Each hand-off's stale timer is cancelled
// by its verdict; every other timer retires lazily (dead entries
// filtered at fire time).
func TestVirtualClockClusterDeterministicTimers(t *testing.T) {
	t.Run("ctlbatch", testVirtualClockCluster)
}

func testVirtualClockCluster(t *testing.T) {
	vc := network.NewVirtualClock(time.Time{})
	counters := &metrics.Counters{}
	cl := cluster.New(cluster.Options{
		Optimized: true,
		Clock:     vc,
		Counters:  counters,
	})
	if err := cl.AddNode("A", bankFactory("bank", false)); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddNode("B", bankFactory("bank2", false)); err != nil {
		t.Fatal(err)
	}
	reg := cl.Registry()
	if err := reg.RegisterStep("vc.deposit", func(ctx agent.StepContext) error {
		r, _ := ctx.Resource("bank")
		if r == nil {
			r2, ok := ctx.Resource("bank2")
			if !ok {
				return nil
			}
			r = r2
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	it, err := itinerary.New(&itinerary.Sub{ID: "trip", Entries: []itinerary.Entry{
		itinerary.Step{Method: "vc.deposit", Loc: "A"},
		itinerary.Step{Method: "vc.deposit", Loc: "B"},
		itinerary.Step{Method: "vc.deposit", Loc: "A"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	a, entered, err := agent.New("vc-agent", "", it)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(a, entered, "A", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("agent failed: %s", res.Reason)
	}

	snap := counters.Snapshot()
	if snap.ProtocolTransitions == 0 {
		t.Error("no protocol transitions recorded")
	}
	if snap.TimersArmed == 0 {
		t.Error("no protocol timers armed (ctl retries / done resends should arm)")
	}
	if snap.TimersFired != 0 {
		t.Errorf("%d protocol timers fired on a frozen virtual clock with a loss-free network", snap.TimersFired)
	}
	if snap.TimersCanceled != snap.AgentTransfers || snap.AgentTransfers != 2 {
		t.Errorf("%d protocol timers canceled for %d hand-offs, want one per hand-off of the trip's two (the rest retire lazily, at fire time)", snap.TimersCanceled, snap.AgentTransfers)
	}

	// Advancing the clock far past every retry interval on the settled
	// cluster fires the armed-but-stale timers deterministically and
	// must not disturb anything: a second agent still completes.
	vc.Advance(10 * time.Second)
	b, entered2, err := agent.New("vc-agent-2", "", it)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := cl.Run(b, entered2, "A", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Failed {
		t.Fatalf("post-advance agent failed: %s", res2.Reason)
	}
}
