package cluster_test

// Crash scenarios that once ran as permanent kills over replicated stable
// storage. §4.3's fault model keeps the disk: a crashed node comes back
// with its own store, so the same workloads now crash a node and recover
// it in place. The tests keep the names they had under replication, so
// `-run` selections written for them still find them.

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

// depositCluster builds an n-node cluster with a bank on every node and a
// shared deposit step, storing per spec.
func depositCluster(t *testing.T, n int, spec stable.Spec) *cluster.Cluster {
	t.Helper()
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
	if err := reg.RegisterStep("disk.deposit", func(ctx agent.StepContext) error {
		r, ok := ctx.Resource("bank")
		if !ok {
			return errors.New("disk.deposit: no bank")
		}
		if err := r.(*resource.Bank).Transfer(ctx.Tx(), "pool", "sink", 1); err != nil {
			return err
		}
		ctx.LogComp(core.OpResource, "disk.undeposit", core.NewParams())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterComp("disk.undeposit", func(ctx agent.CompContext) error {
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

func launchDeposits(t *testing.T, cl *cluster.Cluster, nodes, agents, steps int) []<-chan cluster.Result {
	t.Helper()
	var chans []<-chan cluster.Result
	for i := 0; i < agents; i++ {
		id := fmt.Sprintf("disk%02d", i)
		sub := &itinerary.Sub{ID: "job-" + id}
		for s := 0; s < steps; s++ {
			sub.Entries = append(sub.Entries, itinerary.Step{
				Method: "disk.deposit", Loc: fmt.Sprintf("r%d", (i+s)%nodes),
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

// crashMidWorkload waits until minSteps step transactions committed,
// then crashes victim, holds it down for a moment and recovers it. It
// returns once recovery finished, so victim's resources are loaded again.
func crashMidWorkload(t *testing.T, cl *cluster.Cluster, victim string, minSteps int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for cl.Counters().Snapshot().StepTxns < minSteps {
		if time.Now().After(deadline) {
			t.Fatal("no steps committed before the crash point")
		}
		time.Sleep(time.Millisecond)
	}
	if err := cl.Crash(victim); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := cl.Recover(victim); err != nil {
		t.Fatal(err)
	}
	if err := cl.AwaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func awaitAgents(t *testing.T, chans []<-chan cluster.Result) {
	t.Helper()
	timeout := time.After(60 * time.Second)
	for _, ch := range chans {
		select {
		case res := <-ch:
			if res.Failed {
				t.Fatalf("agent %s failed after the crash: %s", res.AgentID, res.Reason)
			}
		case <-timeout:
			t.Fatal("agents did not complete after the crash")
		}
	}
}

// TestReplKillPermanentWAL: a WAL-backed node crashes mid-workload and
// comes back from its own disk; every agent still completes with
// exactly-once effects, and a second reboot replays to the same state.
func TestReplKillPermanentWAL(t *testing.T) {
	const nodes, agents, steps = 3, 10, 4
	cl := depositCluster(t, nodes, stable.Spec{
		Engine: "wal",
		Dir:    t.TempDir(),
		WAL:    stable.WALSpec{SegmentSize: 16 << 10, CheckpointEvery: 32 << 10},
	})
	chans := launchDeposits(t, cl, nodes, agents, steps)
	crashMidWorkload(t, cl, "r0", 5)
	awaitAgents(t, chans)

	pool, sink := sumAccounts(t, cl, nodes)
	if want := int64(agents * steps); sink != want {
		t.Errorf("sink = %d, want %d (recovery duplicated or dropped steps)", sink, want)
	}
	if pool+sink != nodes*1000 {
		t.Errorf("money not conserved: pool %d + sink %d", pool, sink)
	}

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
		t.Errorf("sink changed across a quiescent reboot: %d -> %d", sink, sink2)
	}
}

// TestReplKillPermanentMem: the same workload on memory-backed stores,
// where the store object itself outlives the crashed runtime.
func TestReplKillPermanentMem(t *testing.T) {
	const nodes, agents, steps = 3, 8, 3
	cl := depositCluster(t, nodes, stable.Spec{})
	chans := launchDeposits(t, cl, nodes, agents, steps)
	crashMidWorkload(t, cl, "r1", 3)
	awaitAgents(t, chans)
	pool, sink := sumAccounts(t, cl, nodes)
	if sink != int64(agents*steps) {
		t.Errorf("sink = %d, want %d", sink, agents*steps)
	}
	if pool+sink != nodes*1000 {
		t.Errorf("money not conserved: pool %d + sink %d", pool, sink)
	}
}

// TestReplCoordinatorStandby pins the decision-record contract: a source
// in doubt about a hand-off whose decider — the node that coordinates its
// outcome — is down when the source recovers keeps asking, and resolves
// the branch once the decider is back from its disk and answers from its
// outcome record. The decider also runs the agent it enqueued.
func TestReplCoordinatorStandby(t *testing.T) {
	const nodes = 3
	cl := depositCluster(t, nodes, stable.Spec{Engine: "wal", Dir: t.TempDir()})

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
	// entry and the outcome record in one batch.
	sub := &itinerary.Sub{ID: "job-standby", Entries: []itinerary.Entry{itinerary.Step{Method: "disk.deposit", Loc: "r1"}}}
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
	if err := n1.Queue().Enqueue(a.ID, data, txn.OutcomeOp(txnID, true, 1, nil)); err != nil {
		t.Fatal(err)
	}

	// Both crash. The source recovers first, while its decider is still
	// down, so its first queries go unanswered; the decider then reboots
	// from the directory its store was closed on.
	if err := cl.Crash("r0"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Crash("r1"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Recover("r0"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := cl.Recover("r1"); err != nil {
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
			t.Fatalf("hand-off never resolved via the recovered decider (sink=%d, branch settled=%v, err=%v)", sink, settled, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
