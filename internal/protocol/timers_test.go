package protocol_test

import (
	"maps"
	"slices"
	"testing"
	"time"

	"repro/internal/protocol"
)

// Interval choices are irrelevant to these tests: the machine is pure,
// so a "fire" is just Step(TimerFired{...}) — the tests single-step the
// clock by hand. Every obligation has its own timer, "<class>|<txn>" or
// "pdone|<agent>"; registering it again while it is armed adds no timer
// and keeps the armed deadline, and a fire on dead state re-arms nothing.

// armedIDs returns the IDs of every ArmTimer effect, in order.
func armedIDs(effs []protocol.Effect) []string {
	var ids []string
	for _, a := range pick[protocol.ArmTimer](effs) {
		ids = append(ids, a.ID)
	}
	return ids
}

// decide commits one of the machine's own transactions with RCE parties.
func decide(m *protocol.Machine, txn string, parties ...string) []protocol.Effect {
	return m.Step(protocol.LocalDecided{TxnID: txn, Commit: true, Parties: parties})
}

// verdicts returns the "<peer>/<txn>" of the commit verdicts in effs.
func verdicts(t *testing.T, effs []protocol.Effect) []string {
	t.Helper()
	var out []string
	for _, s := range pick[protocol.SendMsg](effs) {
		st, ok := s.Payload.(*protocol.StatusMsg)
		if s.Kind != protocol.KindOutcome || !ok || !st.Committed {
			t.Fatalf("resend %+v, want a commit verdict", s)
		}
		out = append(out, s.To+"/"+st.TxnID)
	}
	return out
}

// queries returns the transactions of the plain txn.query sends to peer
// in effs.
func queries(t *testing.T, effs []protocol.Effect, peer string) []string {
	t.Helper()
	var txns []string
	for _, s := range pick[protocol.SendMsg](effs) {
		q, ok := s.Payload.(*protocol.CtlMsg)
		if s.Kind != protocol.KindTxnQuery || !ok || s.To != peer {
			t.Fatalf("send %+v, want a txn.query to %s", s, peer)
		}
		txns = append(txns, q.TxnID)
	}
	return txns
}

// TestPeerCtlTimerCoalescesResends pins a decider's commit resend: one
// timer per transaction, whose fire re-sends the commit to every party
// that has not acknowledged it and re-arms; an ack cancels nothing, and
// the fire after the last ack finds nothing owed and re-arms nothing.
func TestPeerCtlTimerCoalescesResends(t *testing.T) {
	m := newReady("co")

	if ids := armedIDs(decide(m, "co#1", "p", "q")); !slices.Equal(ids, []string{"pctl|co#1"}) {
		t.Fatalf("first decide armed %v, want [pctl|co#1]", ids)
	}
	if ids := armedIDs(decide(m, "co#2", "p")); !slices.Equal(ids, []string{"pctl|co#2"}) {
		t.Fatalf("second decide armed %v, want [pctl|co#2]", ids)
	}

	effs := m.Step(protocol.TimerFired{ID: "pctl|co#1"})
	if got := verdicts(t, effs); !slices.Equal(got, []string{"p/co#1", "q/co#1"}) {
		t.Fatalf("fire resent %v, want co#1 to p and q", got)
	}
	if ids := armedIDs(effs); !slices.Equal(ids, []string{"pctl|co#1"}) {
		t.Fatalf("fire re-armed %v", ids)
	}

	// Retirement is lazy: the ack only updates the record; the next fire
	// re-sends to the party still owed.
	effs = m.Step(protocol.AckReceived{Kind: protocol.KindOutcomeAck, TxnID: "co#1", From: "p", OK: true})
	if len(effs) != 0 {
		t.Fatalf("ack effects = %+v, want none (lazy retirement)", effs)
	}
	effs = m.Step(protocol.TimerFired{ID: "pctl|co#1"})
	if got := verdicts(t, effs); !slices.Equal(got, []string{"q/co#1"}) {
		t.Fatalf("post-ack fire resent %v, want co#1 to q alone", got)
	}

	// The last ack collects the record; the fire on dead state sends and
	// arms nothing, and a second fire of the same ID is not armed.
	effs = m.Step(protocol.AckReceived{Kind: protocol.KindOutcomeAck, TxnID: "co#1", From: "q", OK: true})
	if len(effs) != 1 || len(pick[protocol.DropOutcomes](effs)) != 1 {
		t.Fatalf("last ack effects = %+v, want only DropOutcomes", effs)
	}
	for i := 0; i < 2; i++ {
		if effs := m.Step(protocol.TimerFired{ID: "pctl|co#1"}); len(effs) != 0 {
			t.Fatalf("fire %d on dead state emitted %+v", i, effs)
		}
	}
	// co#2's timer is its own.
	if got := verdicts(t, m.Step(protocol.TimerFired{ID: "pctl|co#2"})); !slices.Equal(got, []string{"p/co#2"}) {
		t.Fatalf("co#2 fire resent %v", got)
	}
}

// TestPeerQueryTimerCoalescesInDoubt drives two stale hand-offs waiting
// on the same decider plus a recovered RCE branch it decides: each is
// re-asked on its own timer with a plain txn.query. A repeated
// RecoveredBranch asks at once but arms nothing, so it neither adds a
// timer nor postpones the armed one; after the verdicts nothing fires.
func TestPeerQueryTimerCoalescesInDoubt(t *testing.T) {
	m := newReady("p")

	stale := func(txn string) []protocol.Effect {
		m.Step(protocol.Delegate{TxnID: txn, Decider: "co", EntryID: "e-" + txn, Data: []byte("x"), Mark: 1})
		return m.Step(protocol.TimerFired{ID: "pquery|" + txn})
	}
	for _, txn := range []string{"p#1", "p#2"} {
		effs := stale(txn)
		if got := queries(t, effs, "co"); !slices.Equal(got, []string{txn}) {
			t.Fatalf("stale %s asked %v", txn, got)
		}
		if ids := armedIDs(effs); !slices.Equal(ids, []string{"pquery|" + txn}) {
			t.Fatalf("stale %s armed %v", txn, ids)
		}
	}
	effs := m.Step(protocol.RecoveredBranch{TxnID: "x#1", Decider: "co"})
	if ids := armedIDs(effs); !slices.Equal(ids, []string{"pquery|x#1"}) {
		t.Fatalf("recovered branch armed %v, want [pquery|x#1]", ids)
	}

	// Re-registering a live obligation arms nothing.
	for _, ev := range []protocol.Event{
		protocol.RecoveredBranch{TxnID: "p#1", Decider: "co"},
		protocol.RecoveredBranch{TxnID: "x#1", Decider: "co"},
	} {
		if ids := armedIDs(m.Step(ev)); len(ids) != 0 {
			t.Fatalf("repeated %T armed %v", ev, ids)
		}
	}

	for _, txn := range []string{"p#1", "p#2", "x#1"} {
		effs := m.Step(protocol.TimerFired{ID: "pquery|" + txn})
		if got := queries(t, effs, "co"); !slices.Equal(got, []string{txn}) {
			t.Fatalf("%s fire asked %v", txn, got)
		}
		if ids := armedIDs(effs); !slices.Equal(ids, []string{"pquery|" + txn}) {
			t.Fatalf("%s fire re-armed %v", txn, ids)
		}
	}

	// Verdicts settle everything; the next fires are silent.
	m.Step(protocol.OutcomeReceived{TxnID: "p#1", Committed: true})
	m.Step(protocol.OutcomeReceived{TxnID: "p#2", Committed: false})
	m.Step(protocol.OutcomeReceived{TxnID: "x#1", From: "co", Committed: false})
	for _, txn := range []string{"p#1", "p#2", "x#1"} {
		if effs := m.Step(protocol.TimerFired{ID: "pquery|" + txn}); len(effs) != 0 {
			t.Fatalf("%s fire after the verdict emitted %+v", txn, effs)
		}
	}
}

// TestPeerStaleTimerHandsOffToQuery pins the one in-doubt timer of a
// prepared RCE branch and of a hand-off: armed at staleAfter, its fire
// asks the decider at once and re-arms the same ID at RetryInterval,
// and the verdict disarms it in either phase — nothing stays armed.
func TestPeerStaleTimerHandsOffToQuery(t *testing.T) {
	m := newReady("r")
	armed := map[string]bool{}
	track := func(effs []protocol.Effect) []protocol.Effect {
		for _, e := range effs {
			switch e := e.(type) {
			case protocol.ArmTimer:
				armed[e.ID] = true
			case protocol.CancelTimer:
				delete(armed, e.ID)
			}
		}
		return effs
	}

	m.Step(protocol.RCEExecReceived{TxnID: "co#9", From: "co", Decider: "d"})
	effs := track(m.Step(protocol.BranchPrepared{TxnID: "co#9", OK: true}))
	if got := pick[protocol.ArmTimer](effs); len(got) != 1 || got[0].ID != "pquery|co#9" || got[0].D != 300*time.Millisecond {
		t.Fatalf("branch prepared armed %+v, want pquery|co#9 at staleAfter", got)
	}
	track(m.Step(protocol.Delegate{TxnID: "r#1", Decider: "d", EntryID: "a", Mark: 1}))

	for _, txn := range []string{"co#9", "r#1"} {
		delete(armed, "pquery|"+txn) // the fire
		effs = track(m.Step(protocol.TimerFired{ID: "pquery|" + txn}))
		if got := queries(t, effs, "d"); !slices.Equal(got, []string{txn}) {
			t.Fatalf("stale fire asked %v, want %s", got, txn)
		}
		if got := pick[protocol.ArmTimer](effs); len(got) != 1 || got[0].ID != "pquery|"+txn || got[0].D != 50*time.Millisecond {
			t.Fatalf("stale fire armed %+v, want pquery|%s at RetryInterval", got, txn)
		}
	}

	// The verdicts land in the query phase and disarm the timers; a
	// late fire finds nothing armed.
	track(m.Step(protocol.OutcomeReceived{TxnID: "co#9", From: "d", Committed: true}))
	track(m.Step(protocol.OutcomeReceived{TxnID: "r#1", From: "d", Committed: false}))
	if len(armed) != 0 {
		t.Fatalf("armed after the verdicts: %v", armed)
	}
	if effs := m.Step(protocol.TimerFired{ID: "pquery|co#9"}); len(effs) != 0 {
		t.Fatalf("query fire after the verdict emitted %+v", effs)
	}
}

// TestPeerDoneTimerCoalesces drives two completion notifications to one
// owner: each agent has its own timer, a replayed DoneRecorded re-sends
// at once without arming a second one, fires surface as ResendDone
// effects (the driver re-reads the durable record), and an ack retires
// its timer lazily.
func TestPeerDoneTimerCoalesces(t *testing.T) {
	m := newReady("n")

	for _, ag := range []string{"a1", "a2"} {
		if ids := armedIDs(m.Step(protocol.DoneRecorded{AgentID: ag, Owner: "own"})); !slices.Equal(ids, []string{"pdone|" + ag}) {
			t.Fatalf("done %s armed %v", ag, ids)
		}
	}
	if ids := armedIDs(m.Step(protocol.DoneRecorded{AgentID: "a1", Owner: "own"})); len(ids) != 0 {
		t.Fatalf("replayed done armed %v, want none", ids)
	}

	effs := m.Step(protocol.DoneAcked{AgentID: "a1"})
	if len(effs) != 1 || len(pick[protocol.DropDone](effs)) != 1 {
		t.Fatalf("done ack effects = %+v, want only DropDone (lazy retirement)", effs)
	}
	if effs := m.Step(protocol.TimerFired{ID: "pdone|a1"}); len(effs) != 0 {
		t.Fatalf("acked agent's fire emitted %+v", effs)
	}
	effs = m.Step(protocol.TimerFired{ID: "pdone|a2"})
	if resends := pick[protocol.ResendDone](effs); len(resends) != 1 || resends[0].AgentID != "a2" {
		t.Fatalf("a2 fire resends = %+v", resends)
	}
	if ids := armedIDs(effs); !slices.Equal(ids, []string{"pdone|a2"}) {
		t.Fatalf("a2 fire re-armed %v", ids)
	}
}

// TestBatchedFramesMatchUnbatchedPerTxn is the differential check: the
// (destination, kind, txn) verdicts the ctl timers re-send are exactly
// the set the decided transactions owe — the oracle computed from the
// inputs.
func TestBatchedFramesMatchUnbatchedPerTxn(t *testing.T) {
	parts := map[string][]string{"co#1": {"p"}, "co#2": {"p", "q"}, "co#3": {"q"}}
	want := map[string]bool{}
	for txn, peers := range parts {
		for _, peer := range peers {
			want[peer+"/"+protocol.KindOutcome+"/"+txn] = true
		}
	}

	m := newReady("co")
	var armed []string
	for txn, peers := range parts {
		armed = append(armed, armedIDs(decide(m, txn, peers...))...)
	}
	if len(armed) != len(parts) {
		t.Fatalf("armed %v, want one timer per transaction", armed)
	}
	var resent []protocol.Effect
	for _, id := range armed {
		resent = append(resent, m.Step(protocol.TimerFired{ID: id})...)
	}

	got := map[string]bool{}
	for _, s := range pick[protocol.SendMsg](resent) {
		st, ok := s.Payload.(*protocol.StatusMsg)
		if !ok || !st.Committed {
			t.Fatalf("unexpected resend %+v", s)
		}
		key := s.To + "/" + s.Kind + "/" + st.TxnID
		if got[key] {
			t.Fatalf("verdict %s re-sent twice in one round", key)
		}
		got[key] = true
	}
	if !maps.Equal(got, want) {
		t.Fatalf("resend obligations = %v, want %v", got, want)
	}
}
