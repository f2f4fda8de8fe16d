package cluster_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/cluster"
	"repro/internal/itinerary"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/resource"
	"repro/internal/trace"
	"repro/internal/txn"
)

// The membership tests run a bank-deposit workload whose steps are all
// ring-placed ("@ring" resolves to the owner of the agent's ID), so
// every join/leave/crash shifts live agents between nodes — a worker that
// claims an agent whose ring owner is another node forwards it through
// the hand-off — while conservation is checked at the end.

const ringSink = "sink"

func ringNodeName(i int) string { return fmt.Sprintf("w%d", i) }

// ringCluster builds a Membership cluster of n bank nodes with the
// ring workload registered and the sink account opened everywhere.
func ringCluster(t *testing.T, n int, stepWork time.Duration) (*cluster.Cluster, *metrics.Counters) {
	t.Helper()
	counters := &metrics.Counters{}
	cl := cluster.New(cluster.Options{
		Optimized:   true,
		Membership:  true,
		RetryDelay:  2 * time.Millisecond,
		AckTimeout:  300 * time.Millisecond,
		MaxAttempts: 5000,
		Counters:    counters,
	})
	for i := 0; i < n; i++ {
		if err := cl.AddNode(ringNodeName(i), bankFactory("bank", true)); err != nil {
			t.Fatal(err)
		}
	}
	reg := cl.Registry()
	if err := reg.RegisterStep("ring.work", func(ctx agent.StepContext) error {
		r, ok := ctx.Resource("bank")
		if !ok {
			return fmt.Errorf("ring.work: no bank on %s", ctx.NodeName())
		}
		if err := r.(*resource.Bank).Deposit(ctx.Tx(), ringSink, 1); err != nil {
			return err
		}
		if stepWork > 0 {
			time.Sleep(stepWork)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	for i := 0; i < n; i++ {
		openRingSink(t, cl, ringNodeName(i))
	}
	return cl, counters
}

func openRingSink(t *testing.T, cl *cluster.Cluster, name string) {
	t.Helper()
	if err := cl.WithTx(name, func(tx *txn.Tx, nd *node.Node) error {
		r, _ := nd.Resource("bank")
		return r.(*resource.Bank).OpenAccount(tx, ringSink, 0)
	}); err != nil {
		t.Fatal(err)
	}
}

// launchRingAgents starts agents with `steps` ring-placed work steps
// each, entry queues spread round-robin over the first `spread` nodes.
func launchRingAgents(t *testing.T, cl *cluster.Cluster, agents, steps, spread int) []<-chan cluster.Result {
	t.Helper()
	chans := make([]<-chan cluster.Result, agents)
	for i := 0; i < agents; i++ {
		id := fmt.Sprintf("ring%04d", i)
		sub := &itinerary.Sub{ID: "job-" + id}
		for s := 0; s < steps; s++ {
			sub.Entries = append(sub.Entries, itinerary.Step{Method: "ring.work", Loc: node.RingLoc})
		}
		it, err := itinerary.New(sub)
		if err != nil {
			t.Fatal(err)
		}
		a, entered, err := agent.New(id, "", it)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := cl.Launch(a, entered, ringNodeName(i%spread))
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	return chans
}

func awaitRingAgents(t *testing.T, chans []<-chan cluster.Result, timeout time.Duration) {
	t.Helper()
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for i, ch := range chans {
		select {
		case r := <-ch:
			if r.Failed {
				t.Fatalf("agent %d failed: %s", i, r.Reason)
			}
		case <-deadline.C:
			t.Fatalf("agent %d did not complete within %v", i, timeout)
		}
	}
}

// sumRingSinks totals the sink accounts over every node, including ones
// that left: deposits on a drained node still count.
func sumRingSinks(t *testing.T, cl *cluster.Cluster) int64 {
	t.Helper()
	var total int64
	for _, name := range cl.NodeNames() {
		nd, ok := cl.Node(name)
		if !ok {
			t.Fatalf("node %s missing", name)
		}
		if err := cl.WithTx(name, func(tx *txn.Tx, _ *node.Node) error {
			r, _ := nd.Resource("bank")
			bal, err := r.(*resource.Bank).Balance(tx, ringSink)
			if err != nil {
				return err
			}
			total += bal
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return total
}

// TestMembershipJoinMigratesFairShare joins a node mid-workload and
// checks it receives its ring share of live agents through committed
// forwards, with conservation intact.
func TestMembershipJoinMigratesFairShare(t *testing.T) {
	const (
		nodes  = 3
		agents = 32
		steps  = 4
	)
	cl, counters := ringCluster(t, nodes, 20*time.Millisecond)
	chans := launchRingAgents(t, cl, agents, steps, nodes)

	time.Sleep(30 * time.Millisecond) // let the workload get going
	joined := ringNodeName(nodes)
	if err := cl.Join(joined, bankFactory("bank", true)); err != nil {
		t.Fatal(err)
	}
	openRingSink(t, cl, joined)

	awaitRingAgents(t, chans, time.Minute)

	if got, want := sumRingSinks(t, cl), int64(agents*steps); got != want {
		t.Fatalf("sink total %d, want %d (lost or duplicated steps)", got, want)
	}
	snap := counters.Snapshot()
	if snap.Migrations == 0 {
		t.Fatal("no committed migrations despite a mid-workload join")
	}

	// The joined node's view must have converged and own a share of the
	// ring; the agents it owns should largely have arrived by a forward.
	nd, ok := cl.Node(joined)
	if !ok {
		t.Fatalf("joined node %s missing", joined)
	}
	ring := nd.Membership().Ring()
	if got, want := len(ring.Members()), nodes+1; got != want {
		t.Fatalf("joined node sees %d ring members, want %d", got, want)
	}
	owned := 0
	for i := 0; i < agents; i++ {
		if ring.Owner(fmt.Sprintf("ring%04d", i)) == joined {
			owned++
		}
	}
	if owned == 0 {
		t.Fatalf("ring assigns no agents to %s (vnode placement broken)", joined)
	}
	forwarded := make(map[string]bool)
	for _, r := range cl.TraceRecords() {
		if r.Op == trace.OpMigrate && r.Name == "commit" && r.B == joined {
			forwarded[r.Agent] = true
		}
	}
	t.Logf("joined node owns %d/%d agents, %d forwarded to it (migrations=%d aborts=%d)",
		owned, agents, len(forwarded), snap.Migrations, snap.MigrationAborts)
	if len(forwarded) < (owned+3)/4 {
		t.Fatalf("%d agents forwarded to the joined node, want at least ~%d/4 of its %d owned",
			len(forwarded), owned, owned)
	}
}

// TestMembershipLeaveDrains drains a node mid-workload: Leave must block
// until every ring-placed agent migrated off, every agent still
// completes exactly once, and the survivors' rings exclude the leaver.
func TestMembershipLeaveDrains(t *testing.T) {
	const (
		nodes  = 4
		agents = 24
		steps  = 3
	)
	cl, _ := ringCluster(t, nodes, 10*time.Millisecond)
	chans := launchRingAgents(t, cl, agents, steps, nodes)

	time.Sleep(25 * time.Millisecond)
	leaver := ringNodeName(1)
	if err := cl.Leave(leaver, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := cl.LeftNodes(); len(got) != 1 || got[0] != leaver {
		t.Fatalf("LeftNodes() = %v, want [%s]", got, leaver)
	}
	nd, _ := cl.Node(leaver)
	if depth, err := nd.Queue().Len(); err != nil || depth != 0 {
		t.Fatalf("left node queue depth %d (err %v), want 0", depth, err)
	}

	awaitRingAgents(t, chans, time.Minute)

	if got, want := sumRingSinks(t, cl), int64(agents*steps); got != want {
		t.Fatalf("sink total %d, want %d (lost or duplicated steps)", got, want)
	}
	survivor, _ := cl.Node(ringNodeName(0))
	for _, m := range survivor.Membership().Ring().Members() {
		if m == leaver {
			t.Fatalf("survivor ring still contains %s after Leave", leaver)
		}
	}
}

// TestMembershipCrashDuringRebalance crashes a migration source right
// after a join — in-doubt hand-offs must resolve by presumed abort or
// durable decision, and every agent still completes exactly once.
func TestMembershipCrashDuringRebalance(t *testing.T) {
	const (
		nodes  = 3
		agents = 24
		steps  = 3
	)
	cl, counters := ringCluster(t, nodes, 10*time.Millisecond)
	chans := launchRingAgents(t, cl, agents, steps, nodes)

	time.Sleep(20 * time.Millisecond)
	joined := ringNodeName(nodes)
	if err := cl.Join(joined, bankFactory("bank", true)); err != nil {
		t.Fatal(err)
	}
	openRingSink(t, cl, joined)

	// Crash a source while its workers forward agents toward the
	// newcomer, then bring it back; recovery resolves the in-doubt
	// hand-offs and the workers forward what is still misplaced.
	victim := ringNodeName(0)
	if err := cl.Crash(victim); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	if err := cl.Recover(victim); err != nil {
		t.Fatal(err)
	}

	awaitRingAgents(t, chans, time.Minute)

	if got, want := sumRingSinks(t, cl), int64(agents*steps); got != want {
		t.Fatalf("sink total %d, want %d (lost or duplicated steps)", got, want)
	}
	snap := counters.Snapshot()
	t.Logf("migrations=%d aborts=%d announces=%d",
		snap.Migrations, snap.MigrationAborts, snap.MemberAnnounces)
}

// TestMembershipForwardedAgentReturns sends an agent off a node and
// brings it back there by a later ring step, twice: launched on w1 with
// its first step owned by w0, it is forwarded to w0 unexecuted, and its
// steps then alternate between w1 and w0. Nothing on w1 remembers the
// forward, so the returning agent runs like any other: every step runs
// once and the agent completes.
func TestMembershipForwardedAgentReturns(t *testing.T) {
	cl, counters := ringCluster(t, 3, 0)
	w0, _ := cl.Node(ringNodeName(0))
	ring := w0.Membership().Ring()
	keyOf := func(owner string) string {
		for i := 0; ; i++ {
			if k := fmt.Sprint("k", i); ring.Owner(k) == owner {
				return k
			}
		}
	}
	on0 := node.RingLoc + ":" + keyOf(ringNodeName(0))
	on1 := node.RingLoc + ":" + keyOf(ringNodeName(1))
	sub := &itinerary.Sub{ID: "job-back"}
	for _, loc := range []string{on0, on1, on0, on1} {
		sub.Entries = append(sub.Entries, itinerary.Step{Method: "ring.work", Loc: loc})
	}
	it, err := itinerary.New(sub)
	if err != nil {
		t.Fatal(err)
	}
	a, entered, err := agent.New("back", "", it)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := cl.Launch(a, entered, ringNodeName(1))
	if err != nil {
		t.Fatal(err)
	}
	awaitRingAgents(t, []<-chan cluster.Result{ch}, 30*time.Second)
	if got := sumRingSinks(t, cl); got != 4 {
		t.Fatalf("sink total %d, want 4 (lost or duplicated steps)", got)
	}
	if n := counters.Snapshot().Migrations; n != 1 {
		t.Fatalf("%d forwards committed, want the one off w1", n)
	}
}
