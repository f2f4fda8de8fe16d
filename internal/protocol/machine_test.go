package protocol_test

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/protocol"
)

// newReady builds a ready machine. The tests below pin each role's
// states and effects plus the obligation timer it arms and lazily
// retires; the timer rules themselves are covered by timers_test.go.
func newReady(node string) *protocol.Machine {
	m := protocol.NewMachine(protocol.Config{
		Node:          node,
		RetryInterval: 50 * time.Millisecond,
		AckTimeout:    150 * time.Millisecond,
	})
	m.Step(protocol.ReadyReached{})
	return m
}

// pick returns all effects of type T, in emission order.
func pick[T protocol.Effect](effs []protocol.Effect) []T {
	var out []T
	for _, e := range effs {
		if t, ok := e.(T); ok {
			out = append(out, t)
		}
	}
	return out
}

// TestDeciderDrivesPartiesToCommit: a hand-off listing RCE parties is
// decided once for all of them. The verdict goes to the source and to
// each party; a commit is re-sent on the transaction's timer until every
// party acknowledges, and the record stays until every party has acknowledged
// and the source's mark has passed it — below the mark, no record means
// abort. The decider's own transaction (its agent stays) is recorded
// from LocalDecided and goes with the last acknowledgement; until its
// own mark passes the ID, a party asking about it gets no answer.
func TestDeciderDrivesPartiesToCommit(t *testing.T) {
	m := newReady("d")
	const txn = "s#5"
	effs := m.Step(protocol.HandoffReceived{TxnID: txn, From: "s", EntryID: "a", Mark: 5, Parties: []string{"p", "r"}})
	dec := pick[protocol.Decide](effs)
	if len(dec) != 1 || !dec[0].Commit || dec[0].Branch || !slices.Equal(dec[0].Parties, []string{"p", "r"}) {
		t.Fatalf("hand-off effects = %+v", effs)
	}
	if effs := m.Step(protocol.QueryReceived{TxnID: txn, From: "p"}); len(effs) != 0 {
		t.Fatalf("party query while deciding = %+v", effs)
	}
	effs = m.Step(protocol.HandoffDecided{TxnID: txn, Commit: true, OK: true})
	var to []string
	for _, s := range pick[protocol.SendMsg](effs) {
		if s.Kind != protocol.KindOutcome || !s.Payload.(*protocol.StatusMsg).Committed {
			t.Fatalf("decided send = %+v", s)
		}
		to = append(to, s.To)
	}
	if !slices.Equal(to, []string{"s", "p", "r"}) {
		t.Fatalf("verdict went to %v, want the source and both parties", to)
	}
	if got := pick[protocol.ArmTimer](effs); len(got) != 1 || got[0].ID != "pctl|"+txn {
		t.Fatalf("resend timers = %+v", effs)
	}
	if s := m.Stats(); s.Outcomes != 1 || s.PendingParties != 2 {
		t.Fatalf("stats = %+v", s)
	}

	// An unacknowledged commit is re-sent to each party; a party's query
	// is answered from the record.
	effs = m.Step(protocol.TimerFired{ID: "pctl|" + txn})
	if got := pick[protocol.SendMsg](effs); len(got) != 2 || got[0].To != "p" || got[1].To != "r" || got[0].Kind != protocol.KindOutcome {
		t.Fatalf("resend = %+v", effs)
	}
	effs = m.Step(protocol.QueryReceived{TxnID: txn, From: "r"})
	if got := pick[protocol.SendMsg](effs); len(got) != 1 || got[0].To != "r" || !got[0].Payload.(*protocol.StatusMsg).Committed {
		t.Fatalf("party query = %+v", effs)
	}

	// The record outlives the source's mark until the last party
	// acknowledges; a duplicate acknowledgement changes nothing.
	ack := func(from, id string) []protocol.Effect {
		return m.Step(protocol.AckReceived{Kind: protocol.KindOutcomeAck, TxnID: id, From: from, OK: true})
	}
	if effs := ack("p", txn); len(effs) != 0 {
		t.Fatalf("first ack = %+v", effs)
	}
	if effs := ack("p", txn); len(effs) != 0 {
		t.Fatalf("duplicate ack = %+v", effs)
	}
	if effs := m.Step(protocol.ResolvedReceived{From: "s", Mark: 6}); len(effs) != 0 {
		t.Fatalf("mark with a party pending = %+v", effs)
	}
	effs = ack("r", txn)
	if drop := pick[protocol.DropOutcomes](effs); len(drop) != 1 || !slices.Equal(drop[0].TxnIDs, []string{txn}) || len(effs) != 1 {
		t.Fatalf("last ack = %+v", effs)
	}
	if effs := m.Step(protocol.TimerFired{ID: "pctl|" + txn}); len(effs) != 0 {
		t.Fatalf("resend timer after the last ack = %+v", effs)
	}
	effs = m.Step(protocol.QueryReceived{TxnID: txn, From: "p"})
	if got := pick[protocol.SendMsg](effs); len(got) != 1 || got[0].Payload.(*protocol.StatusMsg).Committed {
		t.Fatalf("query below the mark without a record = %+v, want abort", effs)
	}

	// Its own transaction.
	const own = "d#9"
	effs = m.Step(protocol.LocalDecided{TxnID: own, Commit: true, Parties: []string{"p"}})
	if got := pick[protocol.SendMsg](effs); len(got) != 1 || got[0].To != "p" || !got[0].Payload.(*protocol.StatusMsg).Committed {
		t.Fatalf("local commit = %+v", effs)
	}
	effs = ack("p", own)
	if drop := pick[protocol.DropOutcomes](effs); len(drop) != 1 || drop[0].TxnIDs[0] != own {
		t.Fatalf("ack of its own transaction = %+v", effs)
	}
	if effs := m.Step(protocol.QueryReceived{TxnID: own, From: "p", Mark: 9}); len(effs) != 0 {
		t.Fatalf("query while its own mark is at the ID = %+v", effs)
	}
	effs = m.Step(protocol.QueryReceived{TxnID: own, From: "p", Mark: 10})
	if got := pick[protocol.SendMsg](effs); len(got) != 1 || got[0].Payload.(*protocol.StatusMsg).Committed {
		t.Fatalf("query past its own mark = %+v, want abort", effs)
	}
	if effs := m.Step(protocol.TimerFired{ID: "pctl|" + own}); len(effs) != 0 {
		t.Fatalf("resend timer after the last ack = %+v", effs)
	}
	if s := m.Stats(); s.Outcomes != 0 || s.PendingParties != 0 {
		t.Fatalf("decider state lingers: %+v", s)
	}
}

// TestDeciderAbortNotifiesPartiesOnce: an abort is sent to each party
// once and not recorded — presumed abort covers a lost one — whether the
// node settled its own transaction or refused a hand-off with a fence.
func TestDeciderAbortNotifiesPartiesOnce(t *testing.T) {
	m := newReady("co")
	effs := m.Step(protocol.LocalDecided{TxnID: "co#3", Parties: []string{"r"}})
	sends := pick[protocol.SendMsg](effs)
	if len(sends) != 1 || sends[0].To != "r" || sends[0].Payload.(*protocol.StatusMsg).Committed || len(effs) != 1 {
		t.Fatalf("local abort = %+v", effs)
	}
	if s := m.Stats(); s.Outcomes != 0 || s.PendingParties != 0 {
		t.Fatalf("abort left state: %+v", s)
	}

	m = protocol.NewMachine(protocol.Config{Node: "d"}) // recovering: refuses
	m.Step(protocol.HandoffReceived{TxnID: "s#4", From: "s", EntryID: "a", Parties: []string{"r"}})
	effs = m.Step(protocol.HandoffDecided{TxnID: "s#4", Commit: false, OK: true})
	var to []string
	for _, s := range pick[protocol.SendMsg](effs) {
		if s.Payload.(*protocol.StatusMsg).Committed {
			t.Fatalf("fence sent a commit: %+v", effs)
		}
		to = append(to, s.To)
	}
	if !slices.Equal(to, []string{"s", "r"}) || len(pick[protocol.ArmTimer](effs)) != 0 {
		t.Fatalf("fence effects = %+v", effs)
	}
}

// TestDeciderIsItsOwnParty: an RCE branch naming this node as decider
// commits inside the decider's own write — the Decide says so, and the
// verdict settles the branch state without a SettleBranch — and a
// branch whose prepare never comes asks the local decider, without a
// message, which fences and aborts it.
func TestDeciderIsItsOwnParty(t *testing.T) {
	m := newReady("d")
	m.Step(protocol.RCEExecReceived{TxnID: "s#7", From: "s", Decider: "d"})
	effs := m.Step(protocol.BranchPrepared{TxnID: "s#7", OK: true})
	if got := pick[protocol.ArmTimer](effs); len(got) != 1 || got[0].ID != "pquery|s#7" {
		t.Fatalf("prepared effects = %+v", effs)
	}
	effs = m.Step(protocol.HandoffReceived{TxnID: "s#7", From: "s", EntryID: "a", Mark: 7, Parties: []string{"d", "r"}})
	dec := pick[protocol.Decide](effs)
	if len(dec) != 1 || !dec[0].Commit || !dec[0].Branch || !slices.Equal(dec[0].Parties, []string{"r"}) {
		t.Fatalf("hand-off effects = %+v", effs)
	}
	effs = m.Step(protocol.HandoffDecided{TxnID: "s#7", Commit: true, OK: true})
	if len(pick[protocol.SettleBranch](effs)) != 0 || len(pick[protocol.SendMsg](effs)) != 2 {
		t.Fatalf("decided effects = %+v", effs)
	}
	if s := m.Stats(); s.BranchesPrepared != 0 || s.PendingParties != 1 {
		t.Fatalf("stats = %+v", s)
	}

	m.Step(protocol.RCEExecReceived{TxnID: "s#8", From: "s", Decider: "d"})
	m.Step(protocol.BranchPrepared{TxnID: "s#8", OK: true})
	// s#7's stale timer finds its branch gone; s#8's asks.
	if effs := m.Step(protocol.TimerFired{ID: "pquery|s#7"}); len(effs) != 0 {
		t.Fatalf("stale timer of a committed branch = %+v", effs)
	}
	effs = m.Step(protocol.TimerFired{ID: "pquery|s#8"})
	if dec := pick[protocol.Decide](effs); len(dec) != 1 || dec[0].TxnID != "s#8" || dec[0].Commit || len(pick[protocol.SendMsg](effs)) != 0 {
		t.Fatalf("stale own branch = %+v, want a local fence", effs)
	}
	effs = m.Step(protocol.HandoffDecided{TxnID: "s#8", Commit: false, OK: true})
	if got := pick[protocol.SettleBranch](effs); len(got) != 1 || got[0].Commit {
		t.Fatalf("fenced own branch = %+v", effs)
	}
	if s := m.Stats(); s.BranchesPrepared != 0 {
		t.Fatalf("branch state lingers: %+v", s)
	}
}

// TestSourceDelegationLifecycle: a hand-off arms its stale timer and
// sends its prepare, and its verdict settles the branch through the
// same effect whether the delegation is live or recovered — disarming
// the stale timer and sending the source's mark; a stale fire asks the
// decider; a send that never left settles the branch at once and sends
// no mark; a recovered branch asks its decider at once and on the query
// timer.
func TestSourceDelegationLifecycle(t *testing.T) {
	m := newReady("s")
	effs := m.Step(protocol.Delegate{TxnID: "s#1", Decider: "d", EntryID: "a1", Data: []byte("x"), Mark: 1})
	sh := pick[protocol.SendHandoff](effs)
	if len(sh) != 1 || sh[0].To != "d" || sh[0].Msg.TxnID != "s#1" || sh[0].Msg.Mark != 1 || len(effs) != 2 {
		t.Fatalf("delegate effects = %+v", effs)
	}
	if got := pick[protocol.ArmTimer](effs); len(got) != 1 || got[0].ID != "pquery|s#1" || got[0].D != 300*time.Millisecond {
		t.Fatalf("delegate did not arm its stale timer first: %+v", effs)
	}
	if _, first := effs[0].(protocol.ArmTimer); !first {
		t.Fatalf("the prepare leaves before the stale timer is armed: %+v", effs)
	}
	if s := m.Stats(); s.BranchesPrepared != 1 {
		t.Fatalf("stats = %+v", s)
	}
	effs = m.Step(protocol.OutcomeReceived{TxnID: "s#1", From: "d", Committed: true})
	want := []protocol.Effect{protocol.SettleBranch{TxnID: "s#1", Commit: true}, protocol.CancelTimer{ID: "pquery|s#1"}, protocol.SendResolved{To: "d"}}
	if !reflect.DeepEqual(effs, want) {
		t.Fatalf("outcome effects = %+v, want %+v", effs, want)
	}
	if effs := m.Step(protocol.OutcomeReceived{TxnID: "s#1", Committed: false}); len(effs) != 0 {
		t.Fatalf("duplicate outcome produced effects: %+v", effs)
	}
	if effs := m.Step(protocol.TimerFired{ID: "pquery|s#1"}); len(effs) != 0 {
		t.Fatalf("disarmed stale timer produced effects: %+v", effs)
	}

	m.Step(protocol.Delegate{TxnID: "s#2", Decider: "d", EntryID: "a2", Mark: 2})
	effs = m.Step(protocol.TimerFired{ID: "pquery|s#2"})
	if q := pick[protocol.SendMsg](effs); len(q) != 1 || q[0].Kind != protocol.KindTxnQuery || q[0].To != "d" {
		t.Fatalf("stale delegation effects = %+v", effs)
	}
	if got := pick[protocol.ArmTimer](effs); len(got) != 1 || got[0].ID != "pquery|s#2" {
		t.Fatalf("stale delegation did not arm its query timer: %+v", effs)
	}
	// The verdict lands in the query phase and disarms the same timer.
	effs = m.Step(protocol.OutcomeReceived{TxnID: "s#2", From: "d", Committed: false})
	if got := pick[protocol.SettleBranch](effs); len(got) != 1 || got[0].Commit || !reflect.DeepEqual(pick[protocol.CancelTimer](effs), []protocol.CancelTimer{{ID: "pquery|s#2"}}) {
		t.Fatalf("stale delegation's abort = %+v", effs)
	}

	m.Step(protocol.Delegate{TxnID: "s#3", Decider: "d", EntryID: "a3", Mark: 3})
	effs = m.Step(protocol.OutcomeReceived{TxnID: "s#3", Err: "unreachable"}) // the send never left
	want = []protocol.Effect{protocol.SettleBranch{TxnID: "s#3", Err: "unreachable"}, protocol.CancelTimer{ID: "pquery|s#3"}}
	if !reflect.DeepEqual(effs, want) {
		t.Fatalf("unreachable effects = %+v, want %+v", effs, want)
	}

	effs = m.Step(protocol.RecoveredBranch{TxnID: "s#4", Decider: "d"})
	if q := pick[protocol.SendMsg](effs); len(q) != 1 || q[0].Kind != protocol.KindTxnQuery || q[0].To != "d" {
		t.Fatalf("recovered delegation effects = %+v", effs)
	}
	if got := pick[protocol.ArmTimer](effs); len(got) != 1 || got[0].ID != "pquery|s#4" {
		t.Fatalf("recovered delegation did not arm its query timer: %+v", effs)
	}
	effs = m.Step(protocol.TimerFired{ID: "pquery|s#4"})
	if q := pick[protocol.SendMsg](effs); len(q) != 1 || q[0].Kind != protocol.KindTxnQuery {
		t.Fatalf("query timer effects = %+v", effs)
	}
	effs = m.Step(protocol.OutcomeReceived{TxnID: "s#4", From: "d", Committed: true})
	want = []protocol.Effect{protocol.SettleBranch{TxnID: "s#4", Commit: true}, protocol.CancelTimer{ID: "pquery|s#4"}, protocol.SendResolved{To: "d"}}
	if !reflect.DeepEqual(effs, want) {
		t.Fatalf("recovered outcome effects = %+v, want %+v", effs, want)
	}
	if effs := m.Step(protocol.TimerFired{ID: "pquery|s#4"}); len(effs) != 0 {
		t.Fatalf("stale query timer produced effects: %+v", effs)
	}
	if s := m.Stats(); s.BranchesPrepared+s.BranchesInDoubt != 0 {
		t.Fatalf("delegation state lingers: %+v", s)
	}
	// Another node's transaction is refused at once, settling the branch.
	effs = m.Step(protocol.Delegate{TxnID: "x#1", Decider: "d"})
	if got := pick[protocol.SettleBranch](effs); len(got) != 1 || got[0].Commit || got[0].Err == "" || len(effs) != 1 {
		t.Fatalf("foreign delegate effects = %+v", effs)
	}
}

// TestDeciderLifecycle replaces the staged participant: the decider
// writes its verdict (Decide), answers once it is durable, answers a
// duplicate prepare and the source's query from the record, fences an
// ID it never saw before answering abort, and collects its records once
// the source's mark passes them — after which a late copy of the
// prepare is dropped. No timer is ever armed on this side.
func TestDeciderLifecycle(t *testing.T) {
	m := newReady("d")
	effs := m.Step(protocol.HandoffReceived{TxnID: "s#5", From: "s", EntryID: "a1", Data: []byte("x"), Mark: 5})
	dec := pick[protocol.Decide](effs)
	if len(dec) != 1 || !dec[0].Commit || dec[0].Mark != 5 || dec[0].EntryID != "a1" || len(effs) != 1 {
		t.Fatalf("hand-off effects = %+v", effs)
	}
	// Nothing is answered until the verdict is durable.
	if effs := m.Step(protocol.QueryReceived{TxnID: "s#5", From: "s"}); len(effs) != 0 {
		t.Fatalf("query while deciding = %+v", effs)
	}
	effs = m.Step(protocol.HandoffDecided{TxnID: "s#5", Commit: true, OK: true})
	out := pick[protocol.SendMsg](effs)
	if len(out) != 1 || out[0].Kind != protocol.KindOutcome || out[0].To != "s" || !out[0].Payload.(*protocol.StatusMsg).Committed {
		t.Fatalf("decided effects = %+v", effs)
	}
	for _, ev := range []protocol.Event{
		protocol.HandoffReceived{TxnID: "s#5", From: "s", EntryID: "a1", Mark: 5},
		protocol.QueryReceived{TxnID: "s#5", From: "s"},
	} {
		effs := m.Step(ev)
		if o := pick[protocol.SendMsg](effs); len(o) != 1 || !o[0].Payload.(*protocol.StatusMsg).Committed || len(effs) != 1 {
			t.Fatalf("%T answered %+v, want the recorded commit", ev, effs)
		}
	}

	// An ID never seen: fence first, then abort.
	effs = m.Step(protocol.QueryReceived{TxnID: "s#6", From: "s"})
	if dec := pick[protocol.Decide](effs); len(dec) != 1 || dec[0].Commit {
		t.Fatalf("unknown query = %+v, want a fence", effs)
	}
	effs = m.Step(protocol.HandoffDecided{TxnID: "s#6", Commit: false, OK: true})
	if o := pick[protocol.SendMsg](effs); len(o) != 1 || o[0].Payload.(*protocol.StatusMsg).Committed {
		t.Fatalf("fenced answer = %+v", effs)
	}
	// The late prepare meets the fence.
	effs = m.Step(protocol.HandoffReceived{TxnID: "s#6", From: "s", EntryID: "a2", Mark: 5})
	if o := pick[protocol.SendMsg](effs); len(o) != 1 || o[0].Payload.(*protocol.StatusMsg).Committed || len(pick[protocol.Decide](effs)) != 0 {
		t.Fatalf("prepare after the fence = %+v", effs)
	}
	if s := m.Stats(); s.Outcomes != 2 {
		t.Fatalf("stats = %+v", s)
	}

	// The source's mark passes both: collected, and a late copy below
	// the mark is dropped without an answer.
	effs = m.Step(protocol.ResolvedReceived{From: "s", Mark: 7})
	drop := pick[protocol.DropOutcomes](effs)
	if len(drop) != 1 || len(drop[0].TxnIDs) != 2 || drop[0].TxnIDs[0] != "s#5" || drop[0].TxnIDs[1] != "s#6" {
		t.Fatalf("mark effects = %+v", effs)
	}
	if effs := m.Step(protocol.HandoffReceived{TxnID: "s#5", From: "s", EntryID: "a1", Mark: 5}); len(effs) != 0 {
		t.Fatalf("late duplicate after collection = %+v", effs)
	}
	if s := m.Stats(); s.Outcomes != 0 || s.Deciding != 0 {
		t.Fatalf("decider state lingers: %+v", s)
	}
}

// TestDeciderFencesWhileRecovering: a recovering node accepts no agent —
// a hand-off is fenced, which answers abort — and refuses RCE
// executions.
func TestDeciderFencesWhileRecovering(t *testing.T) {
	m := protocol.NewMachine(protocol.Config{Node: "p"})
	effs := m.Step(protocol.HandoffReceived{TxnID: "co#4", From: "co", EntryID: "a"})
	if dec := pick[protocol.Decide](effs); len(dec) != 1 || dec[0].Commit {
		t.Fatalf("recovering hand-off = %+v, want a fence", effs)
	}
	effs = m.Step(protocol.RCEExecReceived{TxnID: "co#4", From: "co"})
	acks := pick[protocol.SendMsg](effs)
	if len(acks) != 1 || acks[0].Payload.(*protocol.AckMsg).OK {
		t.Fatalf("recovering exec = %+v", effs)
	}
}

func TestRCEBranchHappyPath(t *testing.T) {
	m := newReady("p")
	const txn = "co#5"
	ops := []*core.OpEntry{{Kind: core.OpResource, Op: "c"}}

	effs := m.Step(protocol.RCEExecReceived{TxnID: txn, From: "co", Decider: "d", Ops: ops})
	if got := pick[protocol.ExecBranch](effs); len(got) != 1 || got[0].Decider != "d" {
		t.Fatalf("exec effects = %+v", effs)
	}
	// A duplicate request while executing is silently deduplicated.
	if effs := m.Step(protocol.RCEExecReceived{TxnID: txn, From: "co", Decider: "d", Ops: ops}); len(effs) != 0 {
		t.Fatalf("duplicate exec produced effects: %+v", effs)
	}
	effs = m.Step(protocol.BranchPrepared{TxnID: txn, OK: true})
	acks := pick[protocol.SendMsg](effs)
	if len(acks) != 1 || !acks[0].Payload.(*protocol.AckMsg).OK {
		t.Fatalf("prepared effects = %+v", effs)
	}
	if got := pick[protocol.ArmTimer](effs); len(got) != 1 || got[0].ID != "pquery|"+txn {
		t.Fatalf("stale-branch timer not armed: %+v", effs)
	}
	if got := pick[protocol.CountCompOps](effs); len(got) != 1 || got[0].N != 1 {
		t.Fatalf("comp ops not counted: %+v", effs)
	}
	// A duplicate request after prepare re-acks (lost ack).
	effs = m.Step(protocol.RCEExecReceived{TxnID: txn, From: "co", Decider: "d", Ops: ops})
	if acks := pick[protocol.SendMsg](effs); len(acks) != 1 || !acks[0].Payload.(*protocol.AckMsg).OK {
		t.Fatalf("duplicate-after-prepare = %+v", effs)
	}

	// The decider's commit verdict settles the parked transaction, and
	// the branch acknowledges it to the decider.
	effs = m.Step(protocol.OutcomeReceived{TxnID: txn, From: "d", Committed: true})
	if got := pick[protocol.SettleBranch](effs); len(got) != 1 || !got[0].Commit {
		t.Fatalf("commit verdict effects = %+v", effs)
	}
	if got := pick[protocol.CancelTimer](effs); len(got) != 1 || got[0].ID != "pquery|"+txn {
		t.Fatalf("commit verdict left the stale timer armed: %+v", effs)
	}
	if acks := pick[protocol.SendMsg](effs); len(acks) != 1 || acks[0].Kind != protocol.KindOutcomeAck || acks[0].To != "d" {
		t.Fatalf("commit verdict ack = %+v", effs)
	}
	if s := m.Stats(); s.BranchesPrepared != 0 {
		t.Fatalf("branch state lingers: %+v", s)
	}
}

func TestRCEStaleBranchQueriesDecider(t *testing.T) {
	m := newReady("p")
	const txn = "co#6"
	m.Step(protocol.RCEExecReceived{TxnID: txn, From: "co", Decider: "d", Ops: nil})
	m.Step(protocol.BranchPrepared{TxnID: txn, OK: true})
	effs := m.Step(protocol.TimerFired{ID: "pquery|" + txn})
	q := pick[protocol.SendMsg](effs)
	if len(q) != 1 || q[0].Kind != protocol.KindTxnQuery || q[0].To != "d" {
		t.Fatalf("stale branch timer = %+v", effs)
	}
	if got := pick[protocol.ArmTimer](effs); len(got) != 1 || got[0].ID != "pquery|"+txn {
		t.Fatalf("stale branch did not enter the query cadence: %+v", effs)
	}
	// The decider's abort resolves it; an abort is not acknowledged, and
	// it disarms the query timer.
	effs = m.Step(protocol.OutcomeReceived{TxnID: txn, From: "d", Committed: false})
	want := []protocol.Effect{protocol.SettleBranch{TxnID: txn}, protocol.CancelTimer{ID: "pquery|" + txn}}
	if !reflect.DeepEqual(effs, want) {
		t.Fatalf("abort verdict = %+v, want %+v", effs, want)
	}
}

func TestRecoveredBranchResolution(t *testing.T) {
	m := newReady("p")
	const txn = "co#7"
	effs := m.Step(protocol.RecoveredBranch{TxnID: txn, Decider: "d"})
	q := pick[protocol.SendMsg](effs)
	if len(q) != 1 || q[0].Kind != protocol.KindTxnQuery || q[0].To != "d" {
		t.Fatalf("recovered branch = %+v", effs)
	}
	if s := m.Stats(); s.BranchesInDoubt != 1 {
		t.Fatalf("stats = %+v", s)
	}
	effs = m.Step(protocol.OutcomeReceived{TxnID: txn, From: "d", Committed: true})
	rec := pick[protocol.SettleBranch](effs)
	if len(rec) != 1 || !rec[0].Commit || len(pick[protocol.SendMsg](effs)) != 1 {
		t.Fatalf("recovered resolution = %+v", effs)
	}
	if s := m.Stats(); s.BranchesInDoubt != 0 {
		t.Fatalf("in-doubt state lingers: %+v", s)
	}
}

func TestNotifierResendCycle(t *testing.T) {
	m := newReady("n")
	effs := m.Step(protocol.DoneRecorded{AgentID: "a1", Owner: "own"})
	if len(pick[protocol.ResendDone](effs)) != 1 || len(pick[protocol.ArmTimer](effs)) != 1 {
		t.Fatalf("done recorded = %+v", effs)
	}
	effs = m.Step(protocol.TimerFired{ID: "pdone|a1"})
	if len(pick[protocol.ResendDone](effs)) != 1 || len(pick[protocol.ArmTimer](effs)) != 1 {
		t.Fatalf("done timer = %+v", effs)
	}
	effs = m.Step(protocol.DoneAcked{AgentID: "a1"})
	if len(pick[protocol.DropDone](effs)) != 1 || len(effs) != 1 {
		t.Fatalf("done acked = %+v", effs)
	}
	if effs := m.Step(protocol.TimerFired{ID: "pdone|a1"}); len(effs) != 0 {
		t.Fatalf("stale done timer = %+v", effs)
	}
	if s := m.Stats(); s.DonePending != 0 {
		t.Fatalf("done state lingers: %+v", s)
	}
}

// TestPartyEarlyQueryFences: a party that asks before the prepare
// reaches the decider meets an unknown ID, which the decider fences
// exactly as for a source: abort to the party (and to the source), and
// the prepare that arrives later gets the recorded abort back instead of
// a commit.
func TestPartyEarlyQueryFences(t *testing.T) {
	m := newReady("d")
	effs := m.Step(protocol.QueryReceived{TxnID: "s#9", From: "p"})
	if dec := pick[protocol.Decide](effs); len(dec) != 1 || dec[0].Commit || dec[0].From != "s" {
		t.Fatalf("early party query = %+v, want a fence", effs)
	}
	effs = m.Step(protocol.HandoffDecided{TxnID: "s#9", Commit: false, OK: true})
	var to []string
	for _, s := range pick[protocol.SendMsg](effs) {
		if s.Payload.(*protocol.StatusMsg).Committed {
			t.Fatalf("fence answered commit: %+v", effs)
		}
		to = append(to, s.To)
	}
	if !slices.Equal(to, []string{"s", "p"}) {
		t.Fatalf("fence answered %v, want the source and the party", to)
	}
	effs = m.Step(protocol.HandoffReceived{TxnID: "s#9", From: "s", EntryID: "a", Mark: 9, Parties: []string{"p"}})
	if len(pick[protocol.Decide](effs)) != 0 {
		t.Fatalf("prepare after the fence decided again: %+v", effs)
	}
	if got := pick[protocol.SendMsg](effs); len(got) != 1 || got[0].To != "s" || got[0].Payload.(*protocol.StatusMsg).Committed {
		t.Fatalf("prepare after the fence = %+v", effs)
	}
}

func TestOrigin(t *testing.T) {
	cases := map[string]string{
		"nodeA#42":    "nodeA",
		"a#b#7":       "a#b", // last separator wins
		"noseparator": "",
	}
	for id, want := range cases {
		if got := protocol.Origin(id); got != want {
			t.Errorf("Origin(%q) = %q, want %q", id, got, want)
		}
	}
}

func TestPopToTarget(t *testing.T) {
	mkLog := func() *core.Log {
		l := &core.Log{}
		if err := l.AppendSavepoint("base", nil, map[string][]byte{}, core.StateLogging, true); err != nil {
			t.Fatal(err)
		}
		l.Append(&core.BeginStepEntry{Node: "n", Seq: 0})
		l.Append(&core.EndStepEntry{Node: "n", Seq: 0})
		if err := l.AppendSavepoint("target", nil, map[string][]byte{}, core.StateLogging, true); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendSpecialSavepoint("stale1", "target", true); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendSpecialSavepoint("stale2", "target", true); err != nil {
			t.Fatal(err)
		}
		return l
	}

	// Target buried under stale savepoints: they are popped, target kept.
	l := mkLog()
	reached, popped := protocol.PopToTarget(l, "target")
	if !reached || popped != 2 {
		t.Errorf("reached=%v popped=%d, want true/2", reached, popped)
	}
	if !l.LastIsSavepoint("target") {
		t.Errorf("log after pops: %s", l)
	}

	// Target not in the trailing savepoint run: everything trailing is
	// popped (Figure 4b's savepoint pop), reached=false.
	l2 := mkLog()
	reached, popped = protocol.PopToTarget(l2, "base")
	if reached || popped != 3 {
		t.Errorf("reached=%v popped=%d, want false/3", reached, popped)
	}
	if _, ok := l2.Last().(*core.EndStepEntry); !ok {
		t.Errorf("log after pops: %s", l2)
	}

	// Non-savepoint tail: nothing popped.
	l3 := &core.Log{}
	l3.Append(&core.EndStepEntry{Node: "n"})
	reached, popped = protocol.PopToTarget(l3, "x")
	if reached || popped != 0 {
		t.Errorf("reached=%v popped=%d, want false/0", reached, popped)
	}
}

func TestPeekEOS(t *testing.T) {
	l := &core.Log{}
	if _, ok := protocol.PeekEOS(l); ok {
		t.Error("PeekEOS on empty log")
	}
	l.Append(&core.BeginStepEntry{Node: "n", Seq: 0})
	l.Append(&core.EndStepEntry{Node: "resnode", Seq: 0, HasMixed: true})
	if err := l.AppendSavepoint("sp", nil, map[string][]byte{}, core.StateLogging, true); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendSpecialSavepoint("sp2", "sp", true); err != nil {
		t.Fatal(err)
	}
	eos, ok := protocol.PeekEOS(l)
	if !ok || eos.Node != "resnode" || !eos.HasMixed {
		t.Errorf("PeekEOS = %+v, %v", eos, ok)
	}
	// A BOS directly at the tail (malformed for peeking) yields no EOS.
	l2 := &core.Log{}
	l2.Append(&core.BeginStepEntry{Node: "n"})
	if _, ok := protocol.PeekEOS(l2); ok {
		t.Error("PeekEOS found EOS behind a BOS tail")
	}
}

func TestPickDestination(t *testing.T) {
	alts := []string{"alt1", "alt2"}
	for attempt := 1; attempt <= 3; attempt++ {
		if got := protocol.PickDestination("primary", alts, attempt); got != "primary" {
			t.Errorf("attempt %d: %q, want primary", attempt, got)
		}
	}
	if got := protocol.PickDestination("primary", alts, 4); got != "alt1" {
		t.Errorf("attempt 4: %q, want alt1", got)
	}
	if got := protocol.PickDestination("primary", alts, 5); got != "alt2" {
		t.Errorf("attempt 5: %q, want alt2", got)
	}
	if got := protocol.PickDestination("primary", alts, 6); got != "alt1" {
		t.Errorf("attempt 6: %q, want alt1 (wrap)", got)
	}
	// Without alternatives the primary is used forever.
	if got := protocol.PickDestination("primary", nil, 99); got != "primary" {
		t.Errorf("no alts: %q", got)
	}
}

func TestCompensationRouting(t *testing.T) {
	mixed := &core.EndStepEntry{Node: "res", HasMixed: true}
	plain := &core.EndStepEntry{Node: "res"}
	if got := protocol.CompensationDest(plain, false, "here"); got != "res" {
		t.Errorf("basic dest = %q", got)
	}
	if got := protocol.CompensationDest(plain, true, "here"); got != "here" {
		t.Errorf("optimized dest = %q (agent must stay)", got)
	}
	if got := protocol.CompensationDest(mixed, true, "here"); got != "res" {
		t.Errorf("optimized mixed dest = %q (agent must travel)", got)
	}
	if !protocol.CompensateLocally(plain, false, "here") {
		t.Error("basic mode must compensate locally")
	}
	if protocol.CompensateLocally(plain, true, "here") {
		t.Error("optimized non-mixed remote step must split")
	}
	if !protocol.CompensateLocally(plain, true, "res") {
		t.Error("step executed here must compensate locally")
	}

	aces, rces, err := protocol.SplitCompOps([]*core.OpEntry{
		{Kind: core.OpAgent, Op: "a1"},
		{Kind: core.OpResource, Op: "r1"},
		{Kind: core.OpAgent, Op: "a2"},
	})
	if err != nil || len(aces) != 2 || len(rces) != 1 {
		t.Errorf("split = %v / %v / %v", aces, rces, err)
	}
	if _, _, err := protocol.SplitCompOps([]*core.OpEntry{{Kind: core.OpMixed, Op: "m"}}); err == nil {
		t.Error("mixed entry accepted in non-mixed split")
	}
}

func TestPopLastStep(t *testing.T) {
	l := &core.Log{}
	l.Append(&core.BeginStepEntry{Node: "n", Seq: 0})
	l.Append(&core.OpEntry{Kind: core.OpAgent, Op: "op1"})
	l.Append(&core.OpEntry{Kind: core.OpResource, Op: "op2"})
	l.Append(&core.EndStepEntry{Node: "n", Seq: 0})
	eos, ops, err := protocol.PopLastStep(l)
	if err != nil || eos.Node != "n" {
		t.Fatalf("PopLastStep: %v, %v", eos, err)
	}
	// Reverse execution order: op2 before op1.
	if len(ops) != 2 || ops[0].Op != "op2" || ops[1].Op != "op1" {
		t.Errorf("ops = %v", ops)
	}
	if l.Len() != 0 {
		t.Errorf("log not fully popped: %d entries", l.Len())
	}
	// A log without an EOS at the tail is malformed.
	l2 := &core.Log{}
	l2.Append(&core.BeginStepEntry{Node: "n"})
	if _, _, err := protocol.PopLastStep(l2); err == nil {
		t.Error("malformed log accepted")
	}
}

// TestCompensatorAwaitsExecAck pins the compensator's half of Figure 5b:
// shipping arms pexec at AckTimeout and sends rce.exec naming the
// decider; the party's ack ends the wait once, with its answer, and
// disarms the timer; a pexec fire ends it refused; a duplicate ack, an
// ack from another node and an ack after the timeout do nothing.
func TestCompensatorAwaitsExecAck(t *testing.T) {
	m := newReady("co")
	ops := []*core.OpEntry{{Kind: core.OpResource, Op: "c"}}
	ship := func(txn string) {
		t.Helper()
		effs := m.Step(protocol.RCEShipped{TxnID: txn, To: "p", Decider: "d", Ops: ops})
		if got := pick[protocol.ArmTimer](effs); len(got) != 1 || got[0].ID != "pexec|"+txn || got[0].D != 150*time.Millisecond {
			t.Fatalf("ship armed %+v, want pexec|%s at AckTimeout", got, txn)
		}
		sends := pick[protocol.SendMsg](effs)
		if len(sends) != 1 || sends[0].To != "p" || sends[0].Kind != protocol.KindRCEExec {
			t.Fatalf("ship sent %+v", sends)
		}
		if msg := sends[0].Payload.(*protocol.RCEExecMsg); msg.TxnID != txn || msg.Decider != "d" || len(msg.Ops) != 1 {
			t.Fatalf("rce.exec = %+v", msg)
		}
		if s := m.Stats(); s.BranchesExec != 1 {
			t.Fatalf("stats while shipped = %+v", s)
		}
	}
	ack := func(txn, from string, ok bool) []protocol.Effect {
		return m.Step(protocol.AckReceived{Kind: protocol.KindRCEExecAck, TxnID: txn, From: from, OK: ok, Err: "busy"})
	}

	ship("co#1")
	if effs := ack("co#1", "q", true); len(effs) != 0 {
		t.Fatalf("ack from a node never shipped to = %+v", effs)
	}
	want := []protocol.Effect{protocol.ExecAcked{TxnID: "co#1", OK: true, Err: "busy"}, protocol.CancelTimer{ID: "pexec|co#1"}}
	if effs := ack("co#1", "p", true); !reflect.DeepEqual(effs, want) {
		t.Fatalf("ack effects = %+v, want %+v", effs, want)
	}
	if effs := ack("co#1", "p", true); len(effs) != 0 {
		t.Fatalf("duplicate ack = %+v", effs)
	}
	if effs := m.Step(protocol.TimerFired{ID: "pexec|co#1"}); len(effs) != 0 {
		t.Fatalf("disarmed pexec fired %+v", effs)
	}

	ship("co#2")
	if got := pick[protocol.ExecAcked](ack("co#2", "p", false)); len(got) != 1 || got[0].OK || got[0].Err != "busy" {
		t.Fatalf("refusal = %+v", got)
	}

	ship("co#3")
	effs := m.Step(protocol.TimerFired{ID: "pexec|co#3"})
	if len(effs) != 1 {
		t.Fatalf("pexec fire = %+v, want one ExecAcked", effs)
	}
	if got := effs[0].(protocol.ExecAcked); got.TxnID != "co#3" || got.OK || got.Err == "" {
		t.Fatalf("pexec fire = %+v, want a timed-out ExecAcked", got)
	}
	if effs := ack("co#3", "p", true); len(effs) != 0 {
		t.Fatalf("late ack = %+v", effs)
	}
	if s := m.Stats(); s.BranchesExec != 0 {
		t.Fatalf("shipped state lingers: %+v", s)
	}
}
