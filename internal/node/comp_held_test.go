package node

import (
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/itinerary"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/stable"
)

// compContainer encodes an agent in rollback to its savepoint "s", with
// one step to compensate: logged at "co" with a resource compensation
// entry ("undo", which co runs) and an agent compensation entry ("mark",
// which p runs). Reaching the savepoint restores the agent to its one
// step, a "noop" on p, so p decides its own compensation transaction.
func compContainer(t *testing.T, id string) []byte {
	t.Helper()
	it, err := itinerary.New(&itinerary.Sub{ID: "s", Entries: []itinerary.Entry{itinerary.Step{Method: "noop", Loc: "p"}}})
	if err != nil {
		t.Fatal(err)
	}
	a, entered, err := agent.New(id, "own", it)
	if err != nil {
		t.Fatal(err)
	}
	if err := AppendInitialSavepoints(a, entered, core.StateLogging); err != nil {
		t.Fatal(err)
	}
	a.Log.Append(&core.BeginStepEntry{Node: "co"})
	a.Log.Append(&core.OpEntry{Kind: core.OpResource, Op: "undo", Params: core.NewParams()})
	a.Log.Append(&core.OpEntry{Kind: core.OpAgent, Op: "mark", Params: core.NewParams()})
	a.Log.Append(&core.EndStepEntry{Node: "co"})
	data, err := EncodeContainer(&Container{Mode: ModeRollback, SpID: "s", Agent: a})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// recvRCEExec waits for an RCE list at a party endpoint.
func recvRCEExec(t *testing.T, ep network.Endpoint) protocol.RCEExecMsg {
	t.Helper()
	msg := recvMsg(t, ep, 2*time.Second)
	var rm protocol.RCEExecMsg
	if msg.Kind != protocol.KindRCEExec || protocol.Decode(msg.Payload, &rm) != nil {
		t.Fatalf("expected an RCE list, got %s", msg.Kind)
	}
	return rm
}

// recvDone waits for a completion notification and returns its agent.
func recvDone(t *testing.T, ep network.Endpoint) Done {
	t.Helper()
	msg := recvMsg(t, ep, 5*time.Second)
	if msg.Kind != KindAgentDone {
		t.Fatalf("expected agent done, got %s", msg.Kind)
	}
	d, err := DecodeDone(msg.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if d.Failed {
		t.Fatalf("agent %s failed: %s", d.AgentID, d.Reason)
	}
	return d
}

// recvVerdict waits for a decider's verdict and returns whether it
// commits.
func recvVerdict(t *testing.T, ep network.Endpoint, txnID string) bool {
	t.Helper()
	msg := recvMsg(t, ep, 2*time.Second)
	var st protocol.StatusMsg
	if msg.Kind != protocol.KindOutcome || protocol.Decode(msg.Payload, &st) != nil || st.TxnID != txnID {
		t.Fatalf("expected the verdict on %s, got %s", txnID, msg.Kind)
	}
	return st.Committed
}

func sendExecAck(t *testing.T, coEp network.Endpoint, txnID string) {
	t.Helper()
	ack := (&protocol.AckMsg{TxnID: txnID, OK: true}).AppendTo(nil)
	if err := coEp.Send("p", protocol.KindRCEExecAck, ack); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerFreeWhileCompensationAwaitsExecAck: with one worker, node p
// runs another agent's step to completion while a compensation awaits
// its RCE list's exec ack (Figure 5b); the ack then finishes the held
// compensation — p decides it and tells the party commit — and the
// exec-ack timer is cancelled, not left to fire.
func TestWorkerFreeWhileCompensationAwaitsExecAck(t *testing.T) {
	vc := network.NewVirtualClock(time.Time{})
	n, coEp, ownEp := vcNode(t, vc, 1)

	if err := n.Queue().Enqueue("agent-comp", compContainer(t, "agent-comp")); err != nil {
		t.Fatal(err)
	}
	rm := recvRCEExec(t, coEp)
	if rm.Decider != "p" || len(rm.Ops) != 1 || rm.Ops[0].Op != "undo" {
		t.Fatalf("RCE list = %+v, want undo decided by p", rm)
	}
	if err := n.Queue().Enqueue("agent-next", vcContainer(t, "agent-next", "p")); err != nil {
		t.Fatal(err)
	}
	if d := recvDone(t, ownEp); d.AgentID != "agent-next" {
		t.Fatalf("expected the second agent's completion, got %s", d.AgentID)
	}

	sendExecAck(t, coEp, rm.TxnID)
	if !recvVerdict(t, coEp, rm.TxnID) {
		t.Fatal("the party was told abort after its ack")
	}
	d := recvDone(t, ownEp)
	if d.AgentID != "agent-comp" {
		t.Fatalf("expected the compensated agent's completion, got %s", d.AgentID)
	}
	if marked, err := d.Agent.WRO.Has("marked"); err != nil || !marked {
		t.Fatalf("the agent compensation entry did not run: %v, %v", marked, err)
	}
	// With the verdict and both completions acknowledged, the lazily
	// retired timers fire within one RetryInterval and nothing stays
	// armed short of AckTimeout (100 ms): the exec-ack timer was
	// cancelled.
	ack := (&protocol.AckMsg{TxnID: rm.TxnID, OK: true}).AppendTo(nil)
	if err := coEp.Send("p", protocol.KindOutcomeAck, ack); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"agent-next", "agent-comp"} {
		ack, err := EncodeDoneAck(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := ownEp.Send("p", KindAgentDoneAck, ack); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	vc.Advance(60 * time.Millisecond)
	waitUntil(t, "the wheel empties", func() bool { return n.wheel.Len() == 0 })
}

// TestSilentPartyAbortsCompensation: a party that never acks makes the
// compensation abort once AckTimeout of virtual time has passed, not
// before; the party is told abort, the retry ships a fresh list and,
// acked, completes the agent exactly once; the first list's late ack
// changes nothing.
func TestSilentPartyAbortsCompensation(t *testing.T) {
	vc := network.NewVirtualClock(time.Time{})
	n, coEp, ownEp := vcNode(t, vc, 1)

	if err := n.Queue().Enqueue("agent-comp", compContainer(t, "agent-comp")); err != nil {
		t.Fatal(err)
	}
	first := recvRCEExec(t, coEp).TxnID
	vc.Advance(99 * time.Millisecond)
	assertNoMessage(t, coEp, 50*time.Millisecond)
	vc.Advance(time.Millisecond)
	if recvVerdict(t, coEp, first) {
		t.Fatal("the silent party was told commit")
	}

	// The retry waits RetryDelay on the wall clock.
	second := recvRCEExec(t, coEp).TxnID
	if second == first {
		t.Fatalf("the retry shipped under the first transaction %s", first)
	}
	sendExecAck(t, coEp, first) // late: nothing awaits it
	assertNoMessage(t, coEp, 50*time.Millisecond)
	sendExecAck(t, coEp, second)
	if !recvVerdict(t, coEp, second) {
		t.Fatal("the acked retry was told abort")
	}
	if d := recvDone(t, ownEp); d.AgentID != "agent-comp" {
		t.Fatalf("expected agent-comp's completion, got %s", d.AgentID)
	}
	assertNoMessage(t, ownEp, 80*time.Millisecond)
	if depth, err := n.Queue().Len(); err != nil || depth != 0 {
		t.Fatalf("queue depth %d, %v after completion; want empty", depth, err)
	}
}

// TestRecoveryAsksOncePerInterval restarts node p with a hand-off in
// doubt whose decider stays silent: recovery asks at once, then exactly
// once per RetryInterval, and the verdict ends recovery.
func TestRecoveryAsksOncePerInterval(t *testing.T) {
	sim := network.NewSim(network.SimConfig{})
	t.Cleanup(sim.Close)
	coEp, err := sim.Endpoint("co")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Endpoint("own"); err != nil {
		t.Fatal(err)
	}
	store := stable.NewMemStore(nil)
	vc := network.NewVirtualClock(time.Time{})
	n := startVCNode(t, sim, vc, store, 1)
	<-n.Ready()
	if err := n.Queue().Enqueue("agent-r", vcContainer(t, "agent-r", "p", "co")); err != nil {
		t.Fatal(err)
	}
	txnID := recvPrepare(t, coEp).TxnID
	n.Stop()

	n = startVCNode(t, sim, vc, store, 1)
	recvQuery := func(when string) {
		t.Helper()
		msg := recvMsg(t, coEp, 2*time.Second)
		var q protocol.CtlMsg
		if msg.Kind != protocol.KindTxnQuery || protocol.Decode(msg.Payload, &q) != nil || q.TxnID != txnID {
			t.Fatalf("%s: expected a query on %s, got %s", when, txnID, msg.Kind)
		}
		assertNoMessage(t, coEp, 50*time.Millisecond)
	}
	recvQuery("recovery")
	for i := 0; i < 3; i++ {
		vc.Advance(50 * time.Millisecond) // RetryInterval: 5×RetryDelay
		recvQuery("retry interval")
	}
	select {
	case <-n.Ready():
		t.Fatal("ready with a branch in doubt")
	default:
	}
	outcome := (&protocol.StatusMsg{TxnID: txnID, Committed: true}).AppendTo(nil)
	if err := coEp.Send("p", protocol.KindOutcome, outcome); err != nil {
		t.Fatal(err)
	}
	select {
	case <-n.Ready():
	case <-time.After(5 * time.Second):
		t.Fatal("recovery never ended after the verdict")
	}
	if ids, err := n.Manager().InDoubtBranches(); err != nil || len(ids) != 0 {
		t.Fatalf("branches in doubt = %v, %v; want none", ids, err)
	}
}
