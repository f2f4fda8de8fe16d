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

// TestProtocolTimersOnVirtualClock drives the full in-doubt query cycle
// and the completion-resend cycle on a manually advanced clock: a
// participant stages a hand-off whose coordinator goes silent, and no
// query leaves the node until the virtual clock moves — each Advance
// then fires exactly one deterministic query. The coordinator's verdict
// commits the stage, the agent runs, and the unacknowledged completion
// notification is re-sent once per Advance until acked. This is the
// wheel-driven replacement for the old per-tick polling dispatcher.
func TestProtocolTimersOnVirtualClock(t *testing.T) {
	vc := network.NewVirtualClock(time.Time{})
	sim := network.NewSim(network.SimConfig{})
	defer sim.Close()
	ep, err := sim.Endpoint("p")
	if err != nil {
		t.Fatal(err)
	}
	coEp, err := sim.Endpoint("co")
	if err != nil {
		t.Fatal(err)
	}
	ownEp, err := sim.Endpoint("own")
	if err != nil {
		t.Fatal(err)
	}

	reg := agent.NewRegistry()
	if err := reg.RegisterStep("noop", func(ctx agent.StepContext) error { return nil }); err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{Name: "p", RetryDelay: 10 * time.Millisecond, Clock: vc}, ep,
		stable.NewMemStore(nil), reg,
		func(st stable.Store) (resource.Resource, error) { return resource.NewBank(st, "bank", true) })
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()
	<-n.Ready()

	// A real one-step agent container, staged under a remote
	// coordinator's transaction.
	it, err := itinerary.New(&itinerary.Sub{ID: "s", Entries: []itinerary.Entry{
		itinerary.Step{Method: "noop", Loc: "p"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	a, entered, err := agent.New("agent-vc", "own", it)
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
	payload := (&protocol.PrepareMsg{TxnID: "co#1", EntryID: a.ID, Data: data}).AppendTo(nil)
	if err := coEp.Send("p", protocol.KindEnqueuePrepare, payload); err != nil {
		t.Fatal(err)
	}
	if kind := recvKind(t, coEp, 2*time.Second); kind != protocol.KindEnqueuePrepareAck {
		t.Fatalf("expected prepare ack, got %s", kind)
	}

	// The coordinator goes silent. The staged entry is in-doubt, but no
	// query may leave the node while the virtual clock is frozen.
	assertNoMessage(t, coEp, 80*time.Millisecond)

	// Each Advance past the retry interval fires exactly one query.
	for i := 0; i < 3; i++ {
		vc.Advance(50 * time.Millisecond)
		if kind := recvKind(t, coEp, 2*time.Second); kind != protocol.KindTxnQuery {
			t.Fatalf("advance %d: expected txn query, got %s", i, kind)
		}
		assertNoMessage(t, coEp, 30*time.Millisecond)
	}

	// The verdict commits the stage; the agent runs to completion and
	// the owner is notified immediately (no timer involved).
	status := (&protocol.StatusMsg{TxnID: "co#1", Committed: true}).AppendTo(nil)
	if err := coEp.Send("p", protocol.KindTxnStatus, status); err != nil {
		t.Fatal(err)
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
	ack, err := EncodeDoneAck(a.ID)
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

// TestQueryBatchOnVirtualClock stages two hand-offs under the same
// silent remote coordinator and single-steps the clock: the coalesced
// per-peer query timer fires once per Advance, and once both staged
// entries share the due bucket one Advance emits a single query.batch
// frame carrying both transactions — the wire-level half of the
// per-peer coalescing that timers_test.go pins at the machine level.
func TestQueryBatchOnVirtualClock(t *testing.T) {
	vc := network.NewVirtualClock(time.Time{})
	sim := network.NewSim(network.SimConfig{})
	defer sim.Close()
	ep, err := sim.Endpoint("p")
	if err != nil {
		t.Fatal(err)
	}
	coEp, err := sim.Endpoint("co")
	if err != nil {
		t.Fatal(err)
	}

	reg := agent.NewRegistry()
	if err := reg.RegisterStep("noop", func(ctx agent.StepContext) error { return nil }); err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{Name: "p", RetryDelay: 10 * time.Millisecond, Clock: vc}, ep,
		stable.NewMemStore(nil), reg,
		func(st stable.Store) (resource.Resource, error) { return resource.NewBank(st, "bank", true) })
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()
	<-n.Ready()

	stage := func(txn, agentID string) {
		t.Helper()
		it, err := itinerary.New(&itinerary.Sub{ID: "s", Entries: []itinerary.Entry{
			itinerary.Step{Method: "noop", Loc: "p"},
		}})
		if err != nil {
			t.Fatal(err)
		}
		a, entered, err := agent.New(agentID, "own", it)
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
		payload := (&protocol.PrepareMsg{TxnID: txn, EntryID: a.ID, Data: data}).AppendTo(nil)
		if err := coEp.Send("p", protocol.KindEnqueuePrepare, payload); err != nil {
			t.Fatal(err)
		}
		if kind := recvKind(t, coEp, 2*time.Second); kind != protocol.KindEnqueuePrepareAck {
			t.Fatalf("expected prepare ack for %s, got %s", txn, kind)
		}
	}
	stage("co#1", "agent-qb1")
	stage("co#2", "agent-qb2")

	// Frozen clock: both entries are in doubt but nothing leaves.
	assertNoMessage(t, coEp, 80*time.Millisecond)

	// First fire drains only the first entry (the second was enqueued
	// while the timer ticked and is promoted): a lone survivor still
	// travels as the plain single-transaction query.
	vc.Advance(50 * time.Millisecond)
	msg := recvMsg(t, coEp, 2*time.Second)
	if msg.Kind != protocol.KindTxnQuery {
		t.Fatalf("first advance: expected %s, got %s", protocol.KindTxnQuery, msg.Kind)
	}

	// Second fire finds both due: exactly one query.batch frame naming
	// both transactions, and nothing else.
	vc.Advance(50 * time.Millisecond)
	msg = recvMsg(t, coEp, 2*time.Second)
	if msg.Kind != protocol.KindQueryBatch {
		t.Fatalf("second advance: expected %s, got %s", protocol.KindQueryBatch, msg.Kind)
	}
	var qb protocol.QueryBatchMsg
	if err := protocol.Decode(msg.Payload, &qb); err != nil {
		t.Fatalf("decode query batch: %v", err)
	}
	got := map[string]bool{}
	for _, id := range qb.TxnIDs {
		got[id] = true
	}
	if len(qb.TxnIDs) != 2 || !got["co#1"] || !got["co#2"] {
		t.Fatalf("query batch = %v, want co#1+co#2", qb.TxnIDs)
	}
	assertNoMessage(t, coEp, 30*time.Millisecond)

	// Presumed abort resolves both; the next fire drains to silence.
	for _, txn := range []string{"co#1", "co#2"} {
		status := (&protocol.StatusMsg{TxnID: txn, Committed: false}).AppendTo(nil)
		if err := coEp.Send("p", protocol.KindTxnStatus, status); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	vc.Advance(200 * time.Millisecond)
	assertNoMessage(t, coEp, 80*time.Millisecond)
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
