package protocol_test

import (
	"fmt"
	"maps"
	"slices"
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

// decide commits one of the machine's own transactions with a single
// RCE party on peer.
func decide(m *protocol.Machine, txn, peer string) []protocol.Effect {
	return m.Step(protocol.LocalDecided{TxnID: txn, Commit: true, Parties: []string{peer}})
}

// verdicts returns the transactions of the commit verdicts in effs.
func verdicts(t *testing.T, effs []protocol.Effect, peer string) []string {
	t.Helper()
	var txns []string
	for _, s := range pick[protocol.SendMsg](effs) {
		st, ok := s.Payload.(*protocol.StatusMsg)
		if s.Kind != protocol.KindOutcome || !ok || !st.Committed || s.To != peer {
			t.Fatalf("resend %+v, want a commit verdict to %s", s, peer)
		}
		txns = append(txns, st.TxnID)
	}
	return txns
}

// TestPeerCtlTimerCoalescesResends pins the per-party resend slot: many
// commit verdicts one RCE party has not acknowledged share a single
// timer, and a fire re-sends every one still due, each as its plain
// q.outcome — the driver sends them in one batch.
func TestPeerCtlTimerCoalescesResends(t *testing.T) {
	m := newReady("co")

	// The first verdict arms the shared (pctl, p) timer...
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

	// The first fire drains only the due bucket (co#1 — enqueued a full
	// interval ago); co#2 was pending and is promoted.
	effs := m.Step(protocol.TimerFired{ID: "pctl|p"})
	if got := verdicts(t, effs, "p"); !slices.Equal(got, []string{"co#1"}) {
		t.Fatalf("first fire resent %v, want co#1", got)
	}
	if ids := armedIDs(effs); len(ids) != 1 || ids[0] != "pctl|p" {
		t.Fatalf("first fire re-armed %v", ids)
	}

	// The second fire finds both due: both verdicts in one fire.
	effs = m.Step(protocol.TimerFired{ID: "pctl|p"})
	if got := verdicts(t, effs, "p"); len(got) != 2 || !slices.Contains(got, "co#1") || !slices.Contains(got, "co#2") {
		t.Fatalf("second fire resent %v, want co#1 and co#2", got)
	}

	// Retirement is lazy: the ack only collects the record; the next
	// fire filters the dead entry and re-sends only the survivor.
	effs = m.Step(protocol.AckReceived{Kind: protocol.KindOutcomeAck, TxnID: "co#1", From: "p", OK: true})
	if len(effs) != 1 || len(pick[protocol.DropOutcomes](effs)) != 1 {
		t.Fatalf("ack effects = %+v, want only DropOutcomes (lazy retirement)", effs)
	}
	effs = m.Step(protocol.TimerFired{ID: "pctl|p"})
	if got := verdicts(t, effs, "p"); !slices.Equal(got, []string{"co#2"}) {
		t.Fatalf("post-ack fire resent %v, want co#2 alone", got)
	}

	// Last ack, then the fire on fully dead state: no send, no re-arm,
	// slot garbage-collected — the quiescence invariant.
	m.Step(protocol.AckReceived{Kind: protocol.KindOutcomeAck, TxnID: "co#2", From: "p", OK: true})
	effs = m.Step(protocol.TimerFired{ID: "pctl|p"})
	if len(effs) != 0 {
		t.Fatalf("fire on dead state emitted %+v", effs)
	}
	if m.SchedSlots() != 0 {
		t.Fatalf("SchedSlots = %d after quiescence, want 0", m.SchedSlots())
	}
}

// TestPeerQueryTimerCoalescesInDoubt drives two stale hand-offs waiting
// on the same decider plus a recovered RCE branch that decider decides
// through the shared query timer: the fire emits one QueryBatchMsg with
// per-transaction dedup.
func TestPeerQueryTimerCoalescesInDoubt(t *testing.T) {
	m := newReady("p")

	stale := func(txn string) []protocol.Effect {
		m.Step(protocol.Delegate{TxnID: txn, Decider: "co", EntryID: "e-" + txn, Data: []byte("x"), Mark: 1})
		return m.Step(protocol.DelegationStale{TxnID: txn})
	}
	if ids := armedIDs(stale("p#1")); len(ids) != 1 || ids[0] != "pquery|co" {
		t.Fatalf("first stale hand-off armed %v, want [pquery|co]", ids)
	}
	if ids := armedIDs(stale("p#2")); len(ids) != 0 {
		t.Fatalf("second stale hand-off armed %v, want none", ids)
	}
	// A recovered branch co decides joins the same slot: the immediate
	// recovery query goes out, but no second timer appears.
	effs := m.Step(protocol.RecoveredBranch{TxnID: "x#1", Decider: "co"})
	if ids := armedIDs(effs); len(ids) != 0 {
		t.Fatalf("recovered branch armed %v, want none", ids)
	}
	if m.SchedSlots() != 1 {
		t.Fatalf("SchedSlots = %d, want 1", m.SchedSlots())
	}

	// Fire until both buckets have cycled into due, then check the
	// batched frame carries each transaction once.
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
	if len(txns) != 3 || !got["p#1"] || !got["p#2"] || !got["x#1"] {
		t.Fatalf("query batch = %v, want p#1+p#2+x#1", txns)
	}

	// Verdicts settle everything; the next fires drain to silence.
	m.Step(protocol.OutcomeReceived{TxnID: "p#1", Committed: true})
	m.Step(protocol.OutcomeReceived{TxnID: "p#2", Committed: false})
	m.Step(protocol.OutcomeReceived{TxnID: "x#1", From: "co", Committed: false})
	m.Step(protocol.TimerFired{ID: "pquery|co"})
	if effs := m.Step(protocol.TimerFired{ID: "pquery|co"}); len(effs) != 0 {
		t.Fatalf("fire after verdicts emitted %+v", effs)
	}
	if m.SchedSlots() != 0 {
		t.Fatalf("SchedSlots = %d after verdicts, want 0", m.SchedSlots())
	}
}

// TestPeerStaleTimerHandsOffToQuery pins the branch path: a prepared
// RCE branch joins its decider's stale timer, and its fire both asks the
// decider immediately and moves the branch onto the shared query
// cadence.
func TestPeerStaleTimerHandsOffToQuery(t *testing.T) {
	m := newReady("r")

	m.Step(protocol.RCEExecReceived{TxnID: "co#9", From: "co", Decider: "d"})
	effs := m.Step(protocol.BranchPrepared{TxnID: "co#9", OK: true})
	if ids := armedIDs(effs); len(ids) != 1 || ids[0] != "pstale|d" {
		t.Fatalf("branch prepared armed %v, want [pstale|d]", ids)
	}

	effs = m.Step(protocol.TimerFired{ID: "pstale|d"})
	sends := pick[protocol.SendMsg](effs)
	if len(sends) != 1 || sends[0].Kind != protocol.KindTxnQuery ||
		sends[0].Payload.(*protocol.CtlMsg).TxnID != "co#9" {
		t.Fatalf("stale fire sends = %+v, want one co#9 query", sends)
	}
	ids := armedIDs(effs)
	if len(ids) != 1 || ids[0] != "pquery|d" {
		t.Fatalf("stale fire armed %v, want handoff to [pquery|d]", ids)
	}

	// The verdict resolves the branch; the pending query obligation
	// dies lazily and the slot drains.
	m.Step(protocol.OutcomeReceived{TxnID: "co#9", From: "d", Committed: true})
	if effs := m.Step(protocol.TimerFired{ID: "pquery|d"}); len(pick[protocol.SendMsg](effs)) != 0 {
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
// per-transaction (destination, kind, txn) verdicts the per-party timers
// re-send are exactly the set the decided transactions owe — the oracle
// computed from the inputs. Coalescing the timers never changes the
// protocol content.
func TestBatchedFramesMatchUnbatchedPerTxn(t *testing.T) {
	parts := map[string]string{"co#1": "p", "co#2": "p", "co#3": "q"}
	want := map[string]bool{}
	for txn, peer := range parts {
		want[peer+"/"+protocol.KindOutcome+"/"+txn] = true
	}

	m := newReady("co")
	var armed []string
	for txn, peer := range parts {
		armed = append(armed, armedIDs(decide(m, txn, peer))...)
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

	got := map[string]bool{}
	for _, s := range pick[protocol.SendMsg](resent) {
		st, ok := s.Payload.(*protocol.StatusMsg)
		if !ok || !st.Committed {
			t.Fatalf("unexpected resend %+v", s)
		}
		got[s.To+"/"+s.Kind+"/"+st.TxnID] = true
	}
	if !maps.Equal(got, want) {
		t.Fatalf("resend obligations = %v, want %v", got, want)
	}
}
