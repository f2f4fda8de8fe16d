package cluster_test

// Permanent-failure recovery over replicated stable storage: unlike
// Crash/Recover (the paper's fault model, where the disk survives),
// KillPermanent destroys a node's storage and fails its identity over
// onto the most caught-up surviving replica. These tests drive the full
// path — quorum-acked group commits, replica promotion, §4.3 recovery on
// the promoted store, and a reborn coordinator answering in-doubt
// queries from replicated decision records.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/itinerary"
	"repro/internal/node"
	"repro/internal/resource"
	"repro/internal/stable"
	_ "repro/internal/stable/wal" // register the "wal" engine
	"repro/internal/txn"
)

// replCluster builds an n-node cluster with a bank on every node and a
// shared deposit step, replicated per spec.
func replCluster(t *testing.T, n int, spec stable.Spec) *cluster.Cluster {
	t.Helper()
	spec.Counters = nil
	cl := cluster.New(cluster.Options{
		Workers:    2,
		RetryDelay: time.Millisecond,
		AckTimeout: 2 * time.Second,
		Store:      spec,
	})
	for i := 0; i < n; i++ {
		if err := cl.AddNode(fmt.Sprintf("r%d", i), bankFactory("bank", false)); err != nil {
			t.Fatal(err)
		}
	}
	reg := cl.Registry()
	if err := reg.RegisterStep("repl.deposit", func(ctx agent.StepContext) error {
		r, ok := ctx.Resource("bank")
		if !ok {
			return errors.New("repl.deposit: no bank")
		}
		if err := r.(*resource.Bank).Transfer(ctx.Tx(), "pool", "sink", 1); err != nil {
			return err
		}
		ctx.LogComp(core.OpResource, "repl.undeposit", core.NewParams())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterComp("repl.undeposit", func(ctx agent.CompContext) error {
		r, err := ctx.Resource("bank")
		if err != nil {
			return err
		}
		return r.(*resource.Bank).Transfer(ctx.Tx(), "sink", "pool", 1)
	}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	for i := 0; i < n; i++ {
		if err := cl.WithTx(fmt.Sprintf("r%d", i), func(tx *txn.Tx, nd *node.Node) error {
			b := mustBank(t, nd, "bank")
			if err := b.OpenAccount(tx, "pool", 1000); err != nil {
				return err
			}
			return b.OpenAccount(tx, "sink", 0)
		}); err != nil {
			t.Fatal(err)
		}
	}
	return cl
}

func launchReplAgents(t *testing.T, cl *cluster.Cluster, nodes, agents, steps int) []<-chan cluster.Result {
	t.Helper()
	var chans []<-chan cluster.Result
	for i := 0; i < agents; i++ {
		id := fmt.Sprintf("repl%02d", i)
		sub := &itinerary.Sub{ID: "job-" + id}
		for s := 0; s < steps; s++ {
			sub.Entries = append(sub.Entries, itinerary.Step{
				Method: "repl.deposit", Loc: fmt.Sprintf("r%d", (i+s)%nodes),
			})
		}
		it, err := itinerary.New(sub)
		if err != nil {
			t.Fatal(err)
		}
		a, entered, err := agent.New(id, "", it)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := cl.Launch(a, entered, fmt.Sprintf("r%d", i%nodes))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	return chans
}

func sumAccounts(t *testing.T, cl *cluster.Cluster, nodes int) (pool, sink int64) {
	t.Helper()
	for i := 0; i < nodes; i++ {
		if err := cl.WithTx(fmt.Sprintf("r%d", i), func(tx *txn.Tx, nd *node.Node) error {
			b := mustBank(t, nd, "bank")
			p, err := b.Balance(tx, "pool")
			if err != nil {
				return err
			}
			s, err := b.Balance(tx, "sink")
			if err != nil {
				return err
			}
			pool += p
			sink += s
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return pool, sink
}

// TestReplKillPermanentWAL is the headline scenario: a WAL-backed node is
// killed with its disk mid-workload, its identity fails over onto a
// surviving replica, and every agent still completes with exactly-once
// effects.
func TestReplKillPermanentWAL(t *testing.T) {
	const nodes, agents, steps = 3, 10, 4
	cl := replCluster(t, nodes, stable.Spec{
		Engine: "wal",
		Dir:    t.TempDir(),
		WAL:    stable.WALSpec{SegmentSize: 16 << 10, CheckpointEvery: 32 << 10},
		Repl:   stable.ReplSpec{Followers: 2, Acks: stable.AcksQuorum},
	})
	chans := launchReplAgents(t, cl, nodes, agents, steps)

	deadline := time.Now().Add(30 * time.Second)
	for cl.Counters().Snapshot().StepTxns < 5 {
		if time.Now().After(deadline) {
			t.Fatal("no steps committed before kill point")
		}
		time.Sleep(time.Millisecond)
	}
	if err := cl.KillPermanent("r0"); err != nil {
		t.Fatal(err)
	}

	timeout := time.After(60 * time.Second)
	for _, ch := range chans {
		select {
		case res := <-ch:
			if res.Failed {
				t.Fatalf("agent %s failed after failover: %s", res.AgentID, res.Reason)
			}
		case <-timeout:
			t.Fatal("agents did not complete after permanent kill")
		}
	}
	pool, sink := sumAccounts(t, cl, nodes)
	if want := int64(agents * steps); sink != want {
		t.Errorf("sink = %d, want %d (failover duplicated or dropped steps)", sink, want)
	}
	if pool+sink != nodes*1000 {
		t.Errorf("money not conserved: pool %d + sink %d", pool, sink)
	}

	// The promoted store must be the node's durable identity now: a plain
	// crash/recover cycle reopens it from the promoted directory.
	if err := cl.Crash("r0"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Recover("r0"); err != nil {
		t.Fatal(err)
	}
	if err := cl.AwaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, sink2 := sumAccounts(t, cl, nodes); sink2 != sink {
		t.Errorf("sink changed across reboot of promoted store: %d -> %d", sink, sink2)
	}
	if st, ok := cl.ReplStatus("r0"); !ok || st.Epoch == 0 {
		t.Errorf("promoted r0 should report a bumped epoch, got %+v (ok=%v)", st, ok)
	}
}

// TestReplKillPermanentMem exercises failover with memory-backed replicas
// (no disk at all): the cluster-owned replica MemStores are the only
// survivors of the kill.
func TestReplKillPermanentMem(t *testing.T) {
	const nodes, agents, steps = 3, 8, 3
	cl := replCluster(t, nodes, stable.Spec{
		Repl: stable.ReplSpec{Followers: 2, Acks: stable.AcksQuorum},
	})
	chans := launchReplAgents(t, cl, nodes, agents, steps)
	deadline := time.Now().Add(30 * time.Second)
	for cl.Counters().Snapshot().StepTxns < 3 {
		if time.Now().After(deadline) {
			t.Fatal("no steps committed before kill point")
		}
		time.Sleep(time.Millisecond)
	}
	if err := cl.KillPermanent("r1"); err != nil {
		t.Fatal(err)
	}
	timeout := time.After(60 * time.Second)
	for _, ch := range chans {
		select {
		case res := <-ch:
			if res.Failed {
				t.Fatalf("agent %s failed after failover: %s", res.AgentID, res.Reason)
			}
		case <-timeout:
			t.Fatal("agents did not complete after permanent kill")
		}
	}
	if _, sink := sumAccounts(t, cl, nodes); sink != int64(agents*steps) {
		t.Errorf("sink = %d, want %d", sink, agents*steps)
	}
}

// TestReplCoordinatorStandby pins the decision-record contract: a source
// in doubt about a hand-off whose decider — the node that coordinates its
// outcome — was permanently killed resolves it against the reborn
// identity, which answers from the replicated outcome record and runs the
// agent it enqueued.
func TestReplCoordinatorStandby(t *testing.T) {
	const nodes = 3
	cl := replCluster(t, nodes, stable.Spec{
		Engine: "wal",
		Dir:    t.TempDir(),
		Repl:   stable.ReplSpec{Followers: 2, Acks: stable.AcksQuorum},
	})

	// The source r0's branch of a hand-off to r1, prepared and in doubt.
	const txnID = "r0#9001"
	n0, ok := cl.Node("r0")
	if !ok {
		t.Fatal("no node r0")
	}
	tx := n0.Manager().BeginWithID(txnID)
	tx.AddCommitOps(stable.Put("standby/settled", []byte{1}))
	if err := tx.PrepareDelegated("r1"); err != nil {
		t.Fatal(err)
	}

	// The decider r1's commit, exactly as its Decide writes it: the
	// entry and the outcome record in one batch. The quorum-acked Apply
	// guarantees the record reaches a surviving replica before anything
	// downstream could observe the commit.
	sub := &itinerary.Sub{ID: "job-standby", Entries: []itinerary.Entry{itinerary.Step{Method: "repl.deposit", Loc: "r1"}}}
	it, err := itinerary.New(sub)
	if err != nil {
		t.Fatal(err)
	}
	a, entered, err := agent.New("standby01", "", it)
	if err != nil {
		t.Fatal(err)
	}
	a.Owner = "~collector"
	if err := node.AppendInitialSavepoints(a, entered, core.StateLogging); err != nil {
		t.Fatal(err)
	}
	data, err := node.EncodeContainer(&node.Container{Mode: node.ModeStep, Agent: a})
	if err != nil {
		t.Fatal(err)
	}
	n1, ok := cl.Node("r1")
	if !ok {
		t.Fatal("no node r1")
	}
	if err := n1.Queue().Enqueue(a.ID, data, txn.OutcomeOp(txnID, true, 1)); err != nil {
		t.Fatal(err)
	}

	// The source crashes; the decider dies for good. The source's
	// recovery must resolve its branch against r1's reborn identity.
	if err := cl.Crash("r0"); err != nil {
		t.Fatal(err)
	}
	if err := cl.KillPermanent("r1"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Recover("r0"); err != nil {
		t.Fatal(err)
	}

	// The branch commits on r0, and the agent runs its deposit on r1.
	// (A bank reloads only once its node's recovery resolved what was in
	// doubt, so "no resource yet" also just means "keep waiting".)
	deadline := time.Now().Add(30 * time.Second)
	for {
		var sink int64
		err := cl.WithTx("r1", func(tx *txn.Tx, nd *node.Node) error {
			r, ok := nd.Resource("bank")
			if !ok {
				return errors.New("bank not loaded yet")
			}
			var err error
			sink, err = r.(*resource.Bank).Balance(tx, "sink")
			return err
		})
		settled := false
		if n0, ok := cl.Node("r0"); ok {
			_, settled, _ = n0.Manager().Store().Get("standby/settled")
		}
		if err == nil && sink == 1 && settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hand-off never resolved via the reborn decider (sink=%d, branch settled=%v, err=%v)", sink, settled, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplAsyncAcks: with Acks: 1 the primary never waits for followers;
// the workload must still complete and the followers converge at
// quiescence.
func TestReplAsyncAcks(t *testing.T) {
	const nodes, agents, steps = 3, 6, 3
	cl := replCluster(t, nodes, stable.Spec{
		Repl: stable.ReplSpec{Followers: 2, Acks: 1},
	})
	chans := launchReplAgents(t, cl, nodes, agents, steps)
	timeout := time.After(60 * time.Second)
	for _, ch := range chans {
		select {
		case res := <-ch:
			if res.Failed {
				t.Fatalf("agent %s failed: %s", res.AgentID, res.Reason)
			}
		case <-timeout:
			t.Fatal("agents did not complete")
		}
	}
	// Followers catch up via the resend loop even without quorum waits.
	deadline := time.Now().Add(10 * time.Second)
	for {
		lagging := false
		for i := 0; i < nodes; i++ {
			st, ok := cl.ReplStatus(fmt.Sprintf("r%d", i))
			if !ok {
				t.Fatalf("r%d has no replication status", i)
			}
			for _, pos := range st.Acked {
				if pos < st.LSN {
					lagging = true
				}
			}
			if len(st.Acked) < 2 {
				lagging = true
			}
		}
		if !lagging {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("followers never converged to the primary LSN")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
