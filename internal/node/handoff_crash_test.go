package node_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/itinerary"
	"repro/internal/membership"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/stable"
	_ "repro/internal/stable/wal" // registers the wal engine
	"repro/internal/trace"
	"repro/internal/txn"
)

var crashNodes = []string{"n0", "n1", "n2"}

const crashSeed = 100

// crashCluster starts three nodes with a bank each on engine, running
// the optimized rollback (Figure 5) with the membership layer on, so a
// step may be ring-placed. Every "deposit" step moves one unit
// from the node's pool to its sink and logs the resource compensation
// that moves it back; the first also logs an agent compensation marking
// the WRO. "rollonce" deposits too, and rolls the tour back unless that
// mark is set.
func crashCluster(t *testing.T, engine string) *cluster.Cluster {
	t.Helper()
	spec := stable.Spec{Engine: engine}
	if engine != "mem" {
		spec.Dir = t.TempDir()
	}
	cl := cluster.New(cluster.Options{
		AckTimeout: 200 * time.Millisecond,
		RetryDelay: 5 * time.Millisecond,
		Store:      spec,
		Optimized:  true,
		Membership: true,
	})
	for _, n := range crashNodes {
		err := cl.AddNode(n, func(s stable.Store) (resource.Resource, error) { return resource.NewBank(s, "bank", false) })
		if err != nil {
			t.Fatal(err)
		}
	}
	reg := cl.Registry()
	deposit := func(ctx agent.StepContext) error {
		r, ok := ctx.Resource("bank")
		if !ok {
			return errors.New("no bank")
		}
		ctx.LogComp(core.OpResource, "undeposit", core.NewParams())
		if ctx.StepSeq() == 0 {
			ctx.LogComp(core.OpAgent, "mark", core.NewParams())
		}
		return r.(*resource.Bank).Transfer(ctx.Tx(), "pool", "sink", 1)
	}
	for _, err := range []error{
		reg.RegisterStep("deposit", deposit),
		reg.RegisterStep("rollonce", func(ctx agent.StepContext) error {
			if err := deposit(ctx); err != nil {
				return err
			}
			if rolled, err := ctx.WRO().Has("rolled"); err != nil || rolled {
				return err
			}
			return ctx.RollbackCurrentSub()
		}),
		reg.RegisterComp("undeposit", func(ctx agent.CompContext) error {
			r, err := ctx.Resource("bank")
			if err != nil {
				return err
			}
			return r.(*resource.Bank).Transfer(ctx.Tx(), "sink", "pool", 1)
		}),
		reg.RegisterComp("mark", func(ctx agent.CompContext) error {
			wro, err := ctx.WRO()
			if err != nil {
				return err
			}
			return wro.Set("rolled", true)
		}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	for _, n := range crashNodes {
		err := cl.WithTx(n, func(tx *txn.Tx, nd *node.Node) error {
			r, _ := nd.Resource("bank")
			b := r.(*resource.Bank)
			if err := b.OpenAccount(tx, "pool", crashSeed); err != nil {
				return err
			}
			return b.OpenAccount(tx, "sink", 0)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return cl
}

// tourAgent is an agent depositing once on each node, n0 → n1 → n2.
func tourAgent(t *testing.T, id string) (*agent.Agent, []string) {
	return tour(t, id, "deposit")
}

// rollbackAgent is tourAgent whose step on n2 rolls the tour back once.
// The rollback compensates on n2 (no mixed entry), shipping n1's resource
// compensation to n1 in a transaction n2 decides, then n0's to n0 in the
// transaction that hands the agent back to n0 — which decides it and is
// its party too. Then the tour runs again, and every bank ends one unit
// up.
func rollbackAgent(t *testing.T, id string) (*agent.Agent, []string) {
	return tour(t, id, "rollonce")
}

// forwardAgent deposits on n1, n2 and n0, in that order, with the step on
// n1 ring-placed: launched on n0, it is claimed there first and forwarded
// to n1 unexecuted.
func forwardAgent(t *testing.T, id string) (*agent.Agent, []string) {
	ring := membership.NewRing(crashNodes)
	key := "k0"
	for i := 1; ring.Owner(key) != "n1"; i++ {
		key = fmt.Sprint("k", i)
	}
	return route(t, id, []string{node.RingLoc + ":" + key, "n2", "n0"}, "deposit")
}

func tour(t *testing.T, id, last string) (*agent.Agent, []string) {
	return route(t, id, crashNodes, last)
}

// route is an agent depositing at each of locs in turn, with method last
// at the last one.
func route(t *testing.T, id string, locs []string, last string) (*agent.Agent, []string) {
	t.Helper()
	sub := &itinerary.Sub{ID: "tour-" + id}
	for i, loc := range locs {
		method := "deposit"
		if i == len(locs)-1 {
			method = last
		}
		sub.Entries = append(sub.Entries, itinerary.Step{Method: method, Loc: loc})
	}
	it, err := itinerary.New(sub)
	if err != nil {
		t.Fatal(err)
	}
	a, entered, err := agent.New(id, "", it)
	if err != nil {
		t.Fatal(err)
	}
	return a, entered
}

// awaitAgent waits for the agent's one result and checks that no second
// one follows.
func awaitAgent(t *testing.T, ch <-chan cluster.Result) {
	t.Helper()
	select {
	case res := <-ch:
		if res.Failed {
			t.Fatalf("agent %s failed: %s", res.AgentID, res.Reason)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("agent never completed")
	}
}

// checkQuiesced asserts every node's bank moved exactly one unit per
// agent and conserved the rest, and that no prepared branch, commit
// record or fence survives on any node.
func checkQuiesced(t *testing.T, cl *cluster.Cluster, agents int) {
	t.Helper()
	if err := cl.AwaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var left []string
		for _, n := range crashNodes {
			nd, _ := cl.Node(n)
			for _, prefix := range []string{txn.BranchPrefix, txn.OutcomePrefix} {
				keys, err := nd.Manager().Store().Keys(prefix)
				if err != nil {
					t.Fatal(err)
				}
				left = append(left, keys...)
			}
		}
		if len(left) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("records survive quiesce: %v", left)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, n := range crashNodes {
		err := cl.WithTx(n, func(tx *txn.Tx, nd *node.Node) error {
			r, _ := nd.Resource("bank")
			b := r.(*resource.Bank)
			pool, err := b.Balance(tx, "pool")
			if err != nil {
				return err
			}
			sink, err := b.Balance(tx, "sink")
			if err != nil {
				return err
			}
			if sink != int64(agents) || pool+sink != crashSeed {
				return fmt.Errorf("pool %d, sink %d; want sink %d and %d in all", pool, sink, agents, crashSeed)
			}
			return nil
		})
		if err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
}

// TestHandoffCrashAtEveryDurablePoint kills a node at each durable
// point of a distributed transaction — the source after its prepare and
// before the send, the source after the send with its worker returned
// and its branch parked, the decider after its commit and before the
// outcome, the source after the outcome and before it settles its
// branch; and, in a rollback with RCE parties, the compensating node
// after its RCE list left with its worker returned, a party after its
// branch is prepared and before the exec ack, and a decider after a
// record with parties and before the party verdicts leave; and the first
// four again
// for a container forwarded unexecuted to the ring owner of its step — on the
// mem and the wal engine. Each time the agent completes exactly once,
// every bank ends exactly one unit up, and no branch, commit record or
// fence survives quiesce; a forwarded agent was forwarded exactly once.
func TestHandoffCrashAtEveryDurablePoint(t *testing.T) {
	for _, engine := range []string{"mem", "wal"} {
		for _, tc := range []struct {
			node, point, row string
			agent            func(*testing.T, string) (*agent.Agent, []string)
		}{
			{"n0", node.PointSourcePrepared, "", tourAgent},
			{"n0", node.PointSourceHeld, "", tourAgent},
			{"n1", node.PointDeciderCommitted, "", tourAgent},
			{"n0", node.PointSourceDecided, "", tourAgent},
			{"n2", node.PointCompHeld, "", rollbackAgent},
			{"n1", node.PointPartyPrepared, "", rollbackAgent},
			{"n2", node.PointDeciderRecorded, "", rollbackAgent},
			{"n0", node.PointSourcePrepared, "forward-", forwardAgent},
			{"n0", node.PointSourceHeld, "forward-", forwardAgent},
			{"n1", node.PointDeciderCommitted, "forward-", forwardAgent},
			{"n0", node.PointSourceDecided, "forward-", forwardAgent},
		} {
			t.Run(engine+"/"+tc.row+tc.point, func(t *testing.T) {
				cl := crashCluster(t, engine)
				hit := make(chan struct{})
				var once sync.Once
				var dead atomic.Bool // killed, not yet crashed
				node.SetCrashAt(t, func(n, point string) bool {
					if n != tc.node {
						return false
					}
					if dead.Load() {
						return true // a killed node dies at every later point
					}
					if point != tc.point {
						return false
					}
					fired := false
					once.Do(func() { fired = true; close(hit) })
					dead.Store(fired)
					return fired
				})
				a, entered := tc.agent(t, "crash-"+tc.point)
				ch, err := cl.Launch(a, entered, "n0")
				if err != nil {
					t.Fatal(err)
				}
				select {
				case <-hit:
				case <-time.After(10 * time.Second):
					t.Fatalf("the agent never reached %s on %s", tc.point, tc.node)
				}
				switch tc.point {
				case node.PointSourceHeld:
					// The worker sends its prepare and returns; the node
					// dies once the decider has decided it.
					awaitDecided(t, cl, tc.node)
				case node.PointCompHeld:
					// The worker ships its RCE list and returns; the node
					// dies once the party has prepared its branch.
					awaitBranch(t, cl, "n1", tc.node)
				}
				if err := cl.Crash(tc.node); err != nil {
					t.Fatal(err)
				}
				dead.Store(false)
				if err := cl.Recover(tc.node); err != nil {
					t.Fatal(err)
				}
				awaitAgent(t, ch)
				checkQuiesced(t, cl, 1)
				if tc.point == node.PointCompHeld || tc.point == node.PointPartyPrepared || tc.point == node.PointDeciderRecorded {
					if n := cl.Counters().Snapshot().RemoteCompBatches; n < 2 {
						t.Fatalf("%d RCE lists shipped, want the rollback's two at least", n)
					}
				}
				if n := cl.Counters().Snapshot().Migrations; tc.row != "" && n != 1 {
					t.Fatalf("%d forwards committed, want 1", n)
				}
			})
		}
	}
}

// awaitDecided waits until another node holds a decider record of one
// of source's transactions.
func awaitDecided(t *testing.T, cl *cluster.Cluster, source string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, n := range crashNodes {
			nd, _ := cl.Node(n)
			keys, err := nd.Manager().Store().Keys(txn.OutcomePrefix + source + "#")
			if err != nil {
				t.Fatal(err)
			}
			if n != source && len(keys) > 0 {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no decider recorded a hand-off of %s", source)
		}
		time.Sleep(time.Millisecond)
	}
}

// awaitBranch waits until party holds a prepared branch of one of
// source's transactions.
func awaitBranch(t *testing.T, cl *cluster.Cluster, party, source string) {
	t.Helper()
	nd, _ := cl.Node(party)
	deadline := time.Now().Add(10 * time.Second)
	for {
		keys, err := nd.Manager().Store().Keys(txn.BranchPrefix + source + "#")
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s prepared no branch of %s", party, source)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLateDuplicatePrepareAfterCollection delivers a copy of a settled
// hand-off's prepare to its decider after the source's mark collected
// the commit record: the decider drops it — no second entry, no new
// record, no second deposit. The hand-off is n0's step transaction, or
// the forward of the agent n0 claimed for a ring step n1 owns; the
// decider's drop is what keeps a replayed forward from running an agent
// twice.
func TestLateDuplicatePrepareAfterCollection(t *testing.T) {
	for _, engine := range []string{"mem", "wal"} {
		for _, tc := range []struct {
			row   string
			agent func(*testing.T, string) (*agent.Agent, []string)
			op    trace.Op // the trace record naming n0's hand-off
		}{
			{"", tourAgent, trace.OpAgentStep},
			{"-forward", forwardAgent, trace.OpMigrate},
		} {
			t.Run(engine+tc.row, func(t *testing.T) {
				lateDuplicatePrepare(t, engine, tc.agent, tc.op)
			})
		}
	}
}

func lateDuplicatePrepare(t *testing.T, engine string, newAgent func(*testing.T, string) (*agent.Agent, []string), op trace.Op) {
	cl := crashCluster(t, engine)
	a, entered := newAgent(t, "dup")
	ch, err := cl.Launch(a, entered, "n0")
	if err != nil {
		t.Fatal(err)
	}
	awaitAgent(t, ch)
	checkQuiesced(t, cl, 1) // the mark has collected every record

	// The first hand-off of n0, decided by n1.
	var txnID string
	for _, r := range cl.TraceRecords() {
		if r.Op == op && r.Node == "n0" && r.Agent == "dup" && txnID == "" {
			txnID = r.Txn
		}
	}
	if protocol.Origin(txnID) != "n0" {
		t.Fatalf("no %v transaction of n0 in the trace (%q)", op, txnID)
	}
	again, entered := newAgent(t, "dup")
	if err := node.AppendInitialSavepoints(again, entered, core.StateLogging); err != nil {
		t.Fatal(err)
	}
	data, err := node.EncodeContainer(&node.Container{Mode: node.ModeStep, Agent: again})
	if err != nil {
		t.Fatal(err)
	}
	n1, _ := cl.Node("n1")
	prep := &protocol.PrepareMsg{TxnID: txnID, EntryID: "dup", Mark: 1, Data: data}
	n1.Deliver(network.Message{From: "n0", To: "n1", Kind: protocol.KindEnqueuePrepare, Payload: prep.AppendTo(nil)})
	time.Sleep(50 * time.Millisecond)
	if depth, err := n1.Queue().Len(); err != nil || depth != 0 {
		t.Fatalf("decider queue after the late copy = %d, %v; want empty", depth, err)
	}
	checkQuiesced(t, cl, 1)
}
