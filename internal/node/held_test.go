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

// TestWorkerFreeWhileHandOffInDoubt: with one worker, node p runs
// another agent's step to completion while its first hand-off still
// waits for the verdict; the verdict then settles the parked branch,
// and the hand-off's stale timer is cancelled, not left to fire.
func TestWorkerFreeWhileHandOffInDoubt(t *testing.T) {
	vc := network.NewVirtualClock(time.Time{})
	n, coEp, ownEp := vcNode(t, vc, 1)

	if err := n.Queue().Enqueue("agent-held", vcContainer(t, "agent-held", "p", "co")); err != nil {
		t.Fatal(err)
	}
	held := recvPrepare(t, coEp).TxnID
	if err := n.Queue().Enqueue("agent-next", vcContainer(t, "agent-next", "p")); err != nil {
		t.Fatal(err)
	}
	if kind := recvKind(t, ownEp, 5*time.Second); kind != KindAgentDone {
		t.Fatalf("expected the second agent's completion, got %s", kind)
	}
	if d, err := n.Manager().Decider(held); err != nil || d != "co" {
		t.Fatalf("held branch %s: decider %q, %v; want still prepared for co", held, d, err)
	}
	ack, err := EncodeDoneAck("agent-next")
	if err != nil {
		t.Fatal(err)
	}
	if err := ownEp.Send("p", KindAgentDoneAck, ack); err != nil {
		t.Fatal(err)
	}

	outcome := (&protocol.StatusMsg{TxnID: held, Committed: true}).AppendTo(nil)
	if err := coEp.Send("p", protocol.KindOutcome, outcome); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the held branch settles", func() bool {
		d, err := n.Manager().Decider(held)
		return err == nil && d == ""
	})
	// Short of StaleAfter (200 ms), the lazily retired timers fire and
	// nothing stays armed: the stale timer was cancelled.
	vc.Advance(100 * time.Millisecond)
	waitUntil(t, "the wheel empties", func() bool { return n.wheel.Len() == 0 })
	if kind := recvKind(t, coEp, 2*time.Second); kind != protocol.KindResolved {
		t.Fatalf("expected q.resolved, got %s", kind)
	}
}

// TestUnreachableDeciderSettlesInsideDelegate: a hand-off to a crashed
// node fails at its send, so the verdict settles the branch inside the
// worker's own Delegate step, before the worker has returned. The
// attempt still ends, waits AckTimeout before the next one, and the
// fourth attempt hands the agent to the step's alternative.
func TestUnreachableDeciderSettlesInsideDelegate(t *testing.T) {
	sim := network.NewSim(network.SimConfig{})
	t.Cleanup(sim.Close)
	eps := map[string]network.Endpoint{}
	for _, name := range []string{"p", "co", "gone"} {
		ep, err := sim.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		eps[name] = ep
	}
	sim.Crash("gone")
	reg := agent.NewRegistry()
	if err := reg.RegisterStep("noop", func(ctx agent.StepContext) error { return nil }); err != nil {
		t.Fatal(err)
	}
	const ackTimeout = 50 * time.Millisecond
	n, err := New(Config{Name: "p", RetryDelay: time.Millisecond, AckTimeout: ackTimeout, Clock: network.NewVirtualClock(time.Time{})},
		eps["p"], stable.NewMemStore(nil), reg)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	t.Cleanup(n.Stop)
	<-n.Ready()

	it, err := itinerary.New(&itinerary.Sub{ID: "s", Entries: []itinerary.Entry{
		itinerary.Step{Method: "noop", Loc: "p"},
		itinerary.Step{Method: "noop", Loc: "gone", Alt: []string{"co"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	a, entered, err := agent.New("agent-alt", "own", it)
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
	start := time.Now()
	if err := n.Queue().Enqueue(a.ID, data); err != nil {
		t.Fatal(err)
	}
	pm := recvPrepare(t, eps["co"])
	if waited := time.Since(start); waited < 3*ackTimeout {
		t.Fatalf("alternative reached after %v, want three unreachable attempts of %v each", waited, ackTimeout)
	}
	if ids, err := n.Manager().InDoubtBranches(); err != nil || len(ids) != 1 || ids[0] != pm.TxnID {
		t.Fatalf("branches in doubt = %v, %v; want only %s", ids, err, pm.TxnID)
	}
	outcome := (&protocol.StatusMsg{TxnID: pm.TxnID, Committed: true}).AppendTo(nil)
	if err := eps["co"].Send("p", protocol.KindOutcome, outcome); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the queue and the branches empty", func() bool {
		depth, _ := n.Queue().Len()
		ids, _ := n.Manager().InDoubtBranches()
		return depth == 0 && len(ids) == 0
	})
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
