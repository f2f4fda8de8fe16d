package protocol_test

import (
	"fmt"
	"maps"
	"testing"

	"repro/internal/protocol"
)

// Interval choices are irrelevant to these tests: the machine is pure,
// so a "fire" is just Step(TimerFired{...}) — the tests single-step the
// clock by hand, which is what makes coalesced firing deterministic.

// armedIDs returns the IDs of every ArmTimer effect, in order.
func armedIDs(effs []protocol.Effect) []string {
	var ids []string
	for _, a := range pick[protocol.ArmTimer](effs) {
		ids = append(ids, a.ID)
	}
	return ids
}

// decide drives one committed coordinator decision with a single
// queue participant on peer.
func decide(m *protocol.Machine, txn, peer string) []protocol.Effect {
	return m.Step(protocol.CoordDecided{TxnID: txn, Commit: true, Parts: []protocol.Participant{
		{Node: peer, Kind: protocol.PartQueue},
	}})
}

// TestPeerCtlTimerCoalescesResends pins the tentpole behaviour: many
// decided transactions headed to one participant peer share a single
// resend timer, and a fire with more than one survivor emits one
// multi-transaction CtlBatchMsg frame instead of N singles.
func TestPeerCtlTimerCoalescesResends(t *testing.T) {
	m := newReady("co")

	// First decision arms the shared (pctl, p) timer...
	if ids := armedIDs(decide(m, "co#1", "p")); len(ids) != 1 || ids[0] != "pctl|p" {
		t.Fatalf("first decide armed %v, want [pctl|p]", ids)
	}
	// ...the second rides the already-armed slot: no new timer.
	if ids := armedIDs(decide(m, "co#2", "p")); len(ids) != 0 {
		t.Fatalf("second decide armed %v, want none", ids)
	}
	if m.SchedSlots() != 1 {
		t.Fatalf("SchedSlots = %d, want 1", m.SchedSlots())
	}

	// First fire drains only the due bucket (co#1 — enqueued a full
	// interval ago); co#2 was pending and is promoted. A single
	// survivor travels as the plain per-transaction frame.
	effs := m.Step(protocol.TimerFired{ID: "pctl|p"})
	sends := pick[protocol.SendMsg](effs)
	if len(sends) != 1 || sends[0].Kind != protocol.KindEnqueueCommit {
		t.Fatalf("first fire sends = %+v", sends)
	}
	if sends[0].Payload.(*protocol.CtlMsg).TxnID != "co#1" {
		t.Fatalf("first fire resent %+v, want co#1", sends[0].Payload)
	}
	if ids := armedIDs(effs); len(ids) != 1 || ids[0] != "pctl|p" {
		t.Fatalf("first fire re-armed %v", ids)
	}

	// Second fire finds both transactions due: one CtlBatchMsg frame.
	effs = m.Step(protocol.TimerFired{ID: "pctl|p"})
	sends = pick[protocol.SendMsg](effs)
	if len(sends) != 1 || sends[0].Kind != protocol.KindCtlBatch || sends[0].To != "p" {
		t.Fatalf("second fire sends = %+v", sends)
	}
	items := sends[0].Payload.(*protocol.CtlBatchMsg).Items
	got := map[string]bool{}
	for _, it := range items {
		if it.RCE || !it.Commit {
			t.Fatalf("batch item %+v, want queue commit", it)
		}
		got[it.TxnID] = true
	}
	if len(items) != 2 || !got["co#1"] || !got["co#2"] {
		t.Fatalf("batch items = %+v, want co#1+co#2", items)
	}

	// Retirement is lazy: the ack only clears the decision record, the
	// next fire filters the dead entry and resends only the survivor.
	effs = m.Step(protocol.AckReceived{Kind: protocol.KindEnqueueCommitAck, TxnID: "co#1", From: "p", OK: true})
	if len(effs) != 1 || len(pick[protocol.ClearDecision](effs)) != 1 {
		t.Fatalf("ack effects = %+v, want only ClearDecision (lazy retirement)", effs)
	}
	effs = m.Step(protocol.TimerFired{ID: "pctl|p"})
	sends = pick[protocol.SendMsg](effs)
	if len(sends) != 1 || sends[0].Kind != protocol.KindEnqueueCommit ||
		sends[0].Payload.(*protocol.CtlMsg).TxnID != "co#2" {
		t.Fatalf("post-ack fire sends = %+v, want lone co#2 plain frame", sends)
	}

	// Last ack, then the fire on fully dead state: no send, no re-arm,
	// slot garbage-collected — the quiescence invariant.
	m.Step(protocol.AckReceived{Kind: protocol.KindEnqueueCommitAck, TxnID: "co#2", From: "p", OK: true})
	effs = m.Step(protocol.TimerFired{ID: "pctl|p"})
	if len(effs) != 0 {
		t.Fatalf("fire on dead state emitted %+v", effs)
	}
	if m.SchedSlots() != 0 {
		t.Fatalf("SchedSlots = %d after quiescence, want 0", m.SchedSlots())
	}
}

// TestPeerQueryTimerCoalescesInDoubt drives two staged entries plus a
// recovered branch for the same coordinator through the shared query
// timer: the fire emits one QueryBatchMsg with per-transaction dedup
// (a staged entry and a branch of the same transaction ask once).
func TestPeerQueryTimerCoalescesInDoubt(t *testing.T) {
	m := newReady("p")

	stage := func(txn string) []protocol.Effect {
		m.Step(protocol.PrepareReceived{TxnID: txn, EntryID: "e-" + txn, From: "co", Data: []byte("x")})
		return m.Step(protocol.StageOutcome{TxnID: txn, OK: true})
	}
	if ids := armedIDs(stage("co#1")); len(ids) != 1 || ids[0] != "pquery|co" {
		t.Fatalf("first stage armed %v, want [pquery|co]", ids)
	}
	if ids := armedIDs(stage("co#2")); len(ids) != 0 {
		t.Fatalf("second stage armed %v, want none", ids)
	}
	// A recovered branch of co#1 joins the same slot: the immediate
	// recovery query goes out, but no second timer appears.
	effs := m.Step(protocol.RecoveredBranch{TxnID: "co#1"})
	if ids := armedIDs(effs); len(ids) != 0 {
		t.Fatalf("recovered branch armed %v, want none", ids)
	}
	if m.SchedSlots() != 1 {
		t.Fatalf("SchedSlots = %d, want 1", m.SchedSlots())
	}

	// Fire until both buckets have cycled into due, then check the
	// batched frame dedups co#1 (staged + branch entries).
	m.Step(protocol.TimerFired{ID: "pquery|co"})
	effs = m.Step(protocol.TimerFired{ID: "pquery|co"})
	sends := pick[protocol.SendMsg](effs)
	if len(sends) != 1 || sends[0].Kind != protocol.KindQueryBatch || sends[0].To != "co" {
		t.Fatalf("query fire sends = %+v", sends)
	}
	txns := sends[0].Payload.(*protocol.QueryBatchMsg).TxnIDs
	got := map[string]bool{}
	for _, id := range txns {
		got[id] = true
	}
	if len(txns) != 2 || !got["co#1"] || !got["co#2"] {
		t.Fatalf("query batch = %v, want deduped co#1+co#2", txns)
	}

	// Verdicts settle everything; the next fires drain to silence.
	m.Step(protocol.StatusReceived{TxnID: "co#1", Committed: true})
	m.Step(protocol.StatusReceived{TxnID: "co#2", Committed: false})
	m.Step(protocol.TimerFired{ID: "pquery|co"})
	if effs := m.Step(protocol.TimerFired{ID: "pquery|co"}); len(effs) != 0 {
		t.Fatalf("fire after verdicts emitted %+v", effs)
	}
	if m.SchedSlots() != 0 {
		t.Fatalf("SchedSlots = %d after verdicts, want 0", m.SchedSlots())
	}
}

// TestPeerStaleTimerHandsOffToQuery pins the branch path: a prepared
// RCE branch joins the per-peer stale timer, and its fire both asks the
// coordinator immediately and moves the branch onto the shared query
// cadence.
func TestPeerStaleTimerHandsOffToQuery(t *testing.T) {
	m := newReady("r")

	m.Step(protocol.RCEExecReceived{TxnID: "co#9", From: "co"})
	effs := m.Step(protocol.BranchPrepared{TxnID: "co#9", OK: true})
	if ids := armedIDs(effs); len(ids) != 1 || ids[0] != "pstale|co" {
		t.Fatalf("branch prepared armed %v, want [pstale|co]", ids)
	}

	effs = m.Step(protocol.TimerFired{ID: "pstale|co"})
	sends := pick[protocol.SendMsg](effs)
	if len(sends) != 1 || sends[0].Kind != protocol.KindTxnQuery ||
		sends[0].Payload.(*protocol.CtlMsg).TxnID != "co#9" {
		t.Fatalf("stale fire sends = %+v, want one co#9 query", sends)
	}
	ids := armedIDs(effs)
	if len(ids) != 1 || ids[0] != "pquery|co" {
		t.Fatalf("stale fire armed %v, want handoff to [pquery|co]", ids)
	}

	// The verdict resolves the branch; the pending query obligation
	// dies lazily and the slot drains.
	m.Step(protocol.StatusReceived{TxnID: "co#9", Committed: true})
	if effs := m.Step(protocol.TimerFired{ID: "pquery|co"}); len(pick[protocol.SendMsg](effs)) != 0 {
		t.Fatalf("query fire after verdict sent %+v", effs)
	}
	if m.SchedSlots() != 0 {
		t.Fatalf("SchedSlots = %d, want 0", m.SchedSlots())
	}
}

// TestPeerDoneTimerCoalesces drives two completion notifications to one
// owner through the shared done timer; resends surface as per-agent
// ResendDone effects (the driver re-reads the durable record) and
// retire lazily on ack.
func TestPeerDoneTimerCoalesces(t *testing.T) {
	m := newReady("n")

	if ids := armedIDs(m.Step(protocol.DoneRecorded{AgentID: "a1", Owner: "own"})); len(ids) != 1 || ids[0] != "pdone|own" {
		t.Fatalf("first done armed %v, want [pdone|own]", ids)
	}
	if ids := armedIDs(m.Step(protocol.DoneRecorded{AgentID: "a2", Owner: "own"})); len(ids) != 0 {
		t.Fatalf("second done armed %v, want none", ids)
	}

	m.Step(protocol.TimerFired{ID: "pdone|own"})
	effs := m.Step(protocol.TimerFired{ID: "pdone|own"})
	resends := pick[protocol.ResendDone](effs)
	if len(resends) != 2 {
		t.Fatalf("second fire resends = %+v, want both agents", resends)
	}

	effs = m.Step(protocol.DoneAcked{AgentID: "a1"})
	if len(effs) != 1 || len(pick[protocol.DropDone](effs)) != 1 {
		t.Fatalf("done ack effects = %+v, want only DropDone (lazy retirement)", effs)
	}
	effs = m.Step(protocol.TimerFired{ID: "pdone|own"})
	resends = pick[protocol.ResendDone](effs)
	if len(resends) != 1 || resends[0].AgentID != "a2" {
		t.Fatalf("post-ack fire resends = %+v, want lone a2", resends)
	}

	m.Step(protocol.DoneAcked{AgentID: "a2"})
	m.Step(protocol.TimerFired{ID: "pdone|own"})
	if m.SchedSlots() != 0 {
		t.Fatalf("SchedSlots = %d after acks, want 0", m.SchedSlots())
	}
}

// TestBatchTimersScaleWithPeersNotTxns is the acceptance pin: with 1000
// in-flight transactions spread over 4 peers, the scheduler arms exactly
// one timer per peer — the oracle is the set of distinct destinations in
// the input, not the number of transactions.
func TestBatchTimersScaleWithPeersNotTxns(t *testing.T) {
	const txns, peers = 1000, 4

	m := newReady("co")
	dests := map[string]bool{}
	armed := 0
	for i := 0; i < txns; i++ {
		peer := fmt.Sprintf("p%d", i%peers)
		dests[peer] = true
		armed += len(armedIDs(decide(m, fmt.Sprintf("co#%d", i), peer)))
	}
	if armed != len(dests) {
		t.Errorf("armed %d timers for %d txns, want %d (one per peer)", armed, txns, len(dests))
	}
	if got := m.SchedSlots(); got != len(dests) {
		t.Errorf("SchedSlots = %d, want %d", got, len(dests))
	}
}

// TestBatchedFramesMatchUnbatchedPerTxn is the differential check: the
// per-transaction (destination, kind, txn) resend obligations carried
// by batched frames, once exploded item-by-item the way the receive
// path does, are exactly the set the decided transactions owe — the
// oracle computed from the inputs. The framing never changes the
// protocol content.
func TestBatchedFramesMatchUnbatchedPerTxn(t *testing.T) {
	parts := map[string]protocol.PartKind{
		"co#1": protocol.PartQueue,
		"co#2": protocol.PartRCE,
		"co#3": protocol.PartQueue,
	}
	want := map[string]bool{}
	for txn, kind := range parts {
		ctl := protocol.KindEnqueueCommit
		if kind == protocol.PartRCE {
			ctl = protocol.KindRCECommit
		}
		want["p/"+ctl+"/"+txn] = true
	}

	m := newReady("co")
	var armed []string
	for txn, kind := range parts {
		effs := m.Step(protocol.CoordDecided{TxnID: txn, Commit: true, Parts: []protocol.Participant{
			{Node: "p", Kind: kind},
		}})
		armed = append(armed, armedIDs(effs)...)
	}
	// Fire every armed timer twice: the first fire drains the due
	// bucket and promotes the rest, the second drains everything (plus
	// re-sends the first survivor — set semantics below absorb the
	// duplicate).
	var resent []protocol.Effect
	for pass := 0; pass < 2; pass++ {
		for _, id := range armed {
			resent = append(resent, m.Step(protocol.TimerFired{ID: id})...)
		}
	}

	// Flatten sends into per-transaction obligations, undoing the batch
	// framing exactly like the dispatcher's receive path.
	got := map[string]bool{}
	for _, s := range pick[protocol.SendMsg](resent) {
		switch p := s.Payload.(type) {
		case *protocol.CtlMsg:
			got[s.To+"/"+s.Kind+"/"+p.TxnID] = true
		case *protocol.CtlBatchMsg:
			for _, it := range p.Items {
				kind := protocol.KindEnqueueCommit
				if it.RCE {
					kind = protocol.KindRCECommit
				}
				if !it.Commit {
					t.Fatalf("abort in resend batch: %+v", it)
				}
				got[s.To+"/"+kind+"/"+it.TxnID] = true
			}
		default:
			t.Fatalf("unexpected resend payload %T", p)
		}
	}
	if !maps.Equal(got, want) {
		t.Fatalf("resend obligations = %v, want %v", got, want)
	}
}
