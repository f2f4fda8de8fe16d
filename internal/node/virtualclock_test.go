package node

import (
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/itinerary"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/stable"
)

// vcNode starts node p on a frozen virtual clock with a "noop" step, a
// "mark" agent compensation and a bank, running the Figure 5 rollback,
// and returns it with the endpoints of the peers "co" (a decider, or an
// RCE party, that answers only when the test says so) and "own" (an
// owner).
func vcNode(t *testing.T, vc *network.VirtualClock, workers int) (n *Node, coEp, ownEp network.Endpoint) {
	t.Helper()
	sim := network.NewSim(network.SimConfig{})
	t.Cleanup(sim.Close)
	var err error
	if coEp, err = sim.Endpoint("co"); err != nil {
		t.Fatal(err)
	}
	if ownEp, err = sim.Endpoint("own"); err != nil {
		t.Fatal(err)
	}
	n = startVCNode(t, sim, vc, stable.NewMemStore(nil), workers)
	<-n.Ready()
	return n, coEp, ownEp
}

// startVCNode starts node p of vcNode on store, attaching (or
// re-attaching) its endpoint to sim.
func startVCNode(t *testing.T, sim *network.Sim, vc *network.VirtualClock, store stable.Store, workers int) *Node {
	t.Helper()
	ep, err := sim.Endpoint("p")
	if err != nil {
		t.Fatal(err)
	}
	reg := agent.NewRegistry()
	if err := reg.RegisterStep("noop", func(ctx agent.StepContext) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterComp("mark", func(ctx agent.CompContext) error {
		wro, err := ctx.WRO()
		if err != nil {
			return err
		}
		return wro.Set("marked", true)
	}); err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{Name: "p", Optimized: true, RetryDelay: 10 * time.Millisecond, AckTimeout: 100 * time.Millisecond, Workers: workers, Clock: vc}, ep,
		store, reg,
		func(st stable.Store) (resource.Resource, error) { return resource.NewBank(st, "bank", true) })
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	t.Cleanup(n.Stop)
	return n
}

// vcContainer encodes a fresh agent whose "noop" steps run at locs.
func vcContainer(t *testing.T, id string, locs ...string) []byte {
	t.Helper()
	sub := &itinerary.Sub{ID: "s"}
	for _, loc := range locs {
		sub.Entries = append(sub.Entries, itinerary.Step{Method: "noop", Loc: loc})
	}
	it, err := itinerary.New(sub)
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
	data, err := EncodeContainer(&Container{Mode: ModeStep, Agent: a})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// recvPrepare waits for a hand-off's prepare at a decider endpoint.
func recvPrepare(t *testing.T, ep network.Endpoint) protocol.PrepareMsg {
	t.Helper()
	msg := recvMsg(t, ep, 2*time.Second)
	var pm protocol.PrepareMsg
	if msg.Kind != protocol.KindEnqueuePrepare || protocol.Decode(msg.Payload, &pm) != nil {
		t.Fatalf("expected a prepare, got %s", msg.Kind)
	}
	return pm
}

// TestProtocolTimersOnVirtualClock drives the source's in-doubt query
// cycle and the completion-resend cycle on a manually advanced clock.
// Node p hands an agent to a decider that goes silent: no query leaves
// until the virtual clock moves past the hand-off's StaleAfter, and each
// Advance then fires exactly one deterministic query; the decider's outcome
// settles the branch and its q.resolved follows after the hold linger.
// As a decider, p answers a hand-off at once — no timer involved — and
// the agent it adopted completes; the unacknowledged completion
// notification is re-sent once per Advance until acked. This is the
// wheel-driven replacement for the old per-tick polling dispatcher.
func TestProtocolTimersOnVirtualClock(t *testing.T) {
	vc := network.NewVirtualClock(time.Time{})
	n, coEp, ownEp := vcNode(t, vc, 1)

	// Source: p runs the first step and hands the agent to co.
	if err := n.Queue().Enqueue("agent-vc", vcContainer(t, "agent-vc", "p", "co")); err != nil {
		t.Fatal(err)
	}
	pm := recvPrepare(t, coEp)
	// The decider goes silent. The branch is in doubt, but no query may
	// leave the node while the virtual clock is frozen.
	assertNoMessage(t, coEp, 80*time.Millisecond)
	// Past StaleAfter (2×AckTimeout) the source asks; then each Advance
	// past the retry interval fires exactly one query.
	vc.Advance(100 * time.Millisecond)
	assertNoMessage(t, coEp, 30*time.Millisecond)
	vc.Advance(100 * time.Millisecond)
	for i := 0; i < 3; i++ {
		if kind := recvKind(t, coEp, 2*time.Second); kind != protocol.KindTxnQuery {
			t.Fatalf("advance %d: expected txn query, got %s", i, kind)
		}
		assertNoMessage(t, coEp, 30*time.Millisecond)
		vc.Advance(50 * time.Millisecond)
	}
	if kind := recvKind(t, coEp, 2*time.Second); kind != protocol.KindTxnQuery {
		t.Fatalf("expected txn query, got %s", kind)
	}
	// The verdict settles the branch; the confirmation waits out the hold
	// linger.
	outcome := (&protocol.StatusMsg{TxnID: pm.TxnID, Committed: true}).AppendTo(nil)
	if err := coEp.Send("p", protocol.KindOutcome, outcome); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if d, err := n.Manager().Decider(pm.TxnID); err != nil || d != "" {
		t.Fatalf("branch %s still prepared after the outcome: %v", pm.TxnID, err)
	}
	vc.Advance(10 * time.Millisecond)
	if kind := recvKind(t, coEp, 2*time.Second); kind != protocol.KindResolved {
		t.Fatalf("expected q.resolved, got %s", kind)
	}
	vc.Advance(200 * time.Millisecond)
	assertNoMessage(t, coEp, 80*time.Millisecond)

	// Decider: a hand-off from co is decided at once, and its agent runs
	// to completion; the owner is notified immediately.
	payload := (&protocol.PrepareMsg{TxnID: "co#1", EntryID: "agent-vc2", Mark: 1, Data: vcContainer(t, "agent-vc2", "p")}).AppendTo(nil)
	if err := coEp.Send("p", protocol.KindEnqueuePrepare, payload); err != nil {
		t.Fatal(err)
	}
	if kind := recvKind(t, coEp, 2*time.Second); kind != protocol.KindOutcome {
		t.Fatalf("expected the outcome, got %s", kind)
	}
	if kind := recvKind(t, ownEp, 5*time.Second); kind != KindAgentDone {
		t.Fatalf("expected agent done, got %s", kind)
	}

	// Unacknowledged completion: re-sent exactly once per Advance.
	assertNoMessage(t, ownEp, 80*time.Millisecond)
	vc.Advance(50 * time.Millisecond)
	if kind := recvKind(t, ownEp, 2*time.Second); kind != KindAgentDone {
		t.Fatalf("expected done resend, got %s", kind)
	}
	ack, err := EncodeDoneAck("agent-vc2")
	if err != nil {
		t.Fatal(err)
	}
	if err := ownEp.Send("p", KindAgentDoneAck, ack); err != nil {
		t.Fatal(err)
	}
	// Give the ack a moment to drop the record, then advance: silence.
	time.Sleep(50 * time.Millisecond)
	vc.Advance(200 * time.Millisecond)
	assertNoMessage(t, ownEp, 80*time.Millisecond)
}

// TestInDoubtQueriesOnVirtualClock hands two agents to the same silent
// decider and single-steps the clock: past StaleAfter each asks once,
// then each hand-off's own query timer re-asks it with a plain txn.query
// once per RetryInterval — not before — and after the verdicts nothing
// is asked again.
func TestInDoubtQueriesOnVirtualClock(t *testing.T) {
	vc := network.NewVirtualClock(time.Time{})
	n, coEp, _ := vcNode(t, vc, 2)
	for _, id := range []string{"agent-q1", "agent-q2"} {
		if err := n.Queue().Enqueue(id, vcContainer(t, id, "p", "co")); err != nil {
			t.Fatal(err)
		}
	}
	first := recvPrepare(t, coEp).TxnID
	txns := map[string]bool{first: true, recvPrepare(t, coEp).TxnID: true}

	// askedOnce receives one plain query per in-doubt hand-off.
	askedOnce := func(when string) {
		t.Helper()
		asked := map[string]bool{}
		for range txns {
			msg := recvMsg(t, coEp, 2*time.Second)
			var q protocol.CtlMsg
			if msg.Kind != protocol.KindTxnQuery || protocol.Decode(msg.Payload, &q) != nil {
				t.Fatalf("%s: expected %s, got %s", when, protocol.KindTxnQuery, msg.Kind)
			}
			asked[q.TxnID] = true
		}
		if len(asked) != len(txns) {
			t.Fatalf("%s: asked %v, want each of %v once", when, asked, txns)
		}
		assertNoMessage(t, coEp, 30*time.Millisecond)
	}

	// Frozen clock: both branches are in doubt but nothing leaves.
	assertNoMessage(t, coEp, 80*time.Millisecond)
	vc.Advance(200 * time.Millisecond)
	askedOnce("stale")
	for i := 0; i < 2; i++ {
		vc.Advance(50 * time.Millisecond)
		askedOnce("retry interval")
	}

	// Half an interval on nothing is asked; the armed timers fire at the
	// end of the interval.
	vc.Advance(25 * time.Millisecond)
	assertNoMessage(t, coEp, 30*time.Millisecond)
	vc.Advance(25 * time.Millisecond)
	askedOnce("half-interval check")

	// The outcomes settle both; later fires ask nothing, and only the
	// confirmations leave.
	for txn := range txns {
		outcome := (&protocol.StatusMsg{TxnID: txn, Committed: true}).AppendTo(nil)
		if err := coEp.Send("p", protocol.KindOutcome, outcome); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	vc.Advance(200 * time.Millisecond)
	for {
		select {
		case msg := <-coEp.Recv():
			if msg.Kind != protocol.KindResolved {
				t.Fatalf("unexpected %s after the outcomes", msg.Kind)
			}
			continue
		case <-time.After(80 * time.Millisecond):
		}
		break
	}
}

func recvMsg(t *testing.T, ep network.Endpoint, timeout time.Duration) network.Message {
	t.Helper()
	select {
	case msg, ok := <-ep.Recv():
		if !ok {
			t.Fatal("endpoint closed")
		}
		return msg
	case <-time.After(timeout):
		t.Fatal("no message within timeout")
		return network.Message{}
	}
}

func recvKind(t *testing.T, ep network.Endpoint, timeout time.Duration) string {
	t.Helper()
	select {
	case msg, ok := <-ep.Recv():
		if !ok {
			t.Fatal("endpoint closed")
		}
		return msg.Kind
	case <-time.After(timeout):
		t.Fatal("no message within timeout")
		return ""
	}
}

func assertNoMessage(t *testing.T, ep network.Endpoint, quiet time.Duration) {
	t.Helper()
	select {
	case msg := <-ep.Recv():
		t.Fatalf("unexpected message %s from %s", msg.Kind, msg.From)
	case <-time.After(quiet):
	}
}
