package protocol_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/protocol"
)

// newReady builds a ready machine. The tests below pin each role's
// states and effects plus the per-peer timer it arms and lazily retires;
// the coalescing itself is covered by timers_test.go.
func newReady(node string) *protocol.Machine {
	m := protocol.NewMachine(protocol.Config{
		Node:          node,
		RetryInterval: 50 * time.Millisecond,
		StaleAfter:    300 * time.Millisecond,
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

func TestCoordinatorLifecycle(t *testing.T) {
	m := newReady("co")
	const txn = "co#1"

	// Prepare marks the transaction active and ships the prepare.
	effs := m.Step(protocol.CoordPrepareEnqueue{TxnID: txn, Dest: "p", EntryID: "a1", Data: []byte("x")})
	sends := pick[protocol.SendMsg](effs)
	if len(sends) != 1 || sends[0].Kind != protocol.KindEnqueuePrepare || sends[0].To != "p" {
		t.Fatalf("prepare effects = %+v", effs)
	}
	if s := m.Stats(); s.CoordActive != 1 {
		t.Fatalf("stats after prepare: %+v", s)
	}

	// While active and undecided, queries are answered with silence.
	if effs := m.Step(protocol.QueryReceived{TxnID: txn, From: "p", StoreDecided: false}); len(effs) != 0 {
		t.Fatalf("active query answered: %+v", effs)
	}
	// With the decision record present, queries answer committed even
	// while active (commit landed, ctls still going out).
	effs = m.Step(protocol.QueryReceived{TxnID: txn, From: "p", StoreDecided: true})
	st := pick[protocol.SendMsg](effs)
	if len(st) != 1 || !st[0].Payload.(*protocol.StatusMsg).Committed {
		t.Fatalf("decided query = %+v", effs)
	}

	// Decide commit with two participants: two ctl sends + one resend
	// timer per participant peer.
	parts := []protocol.Participant{
		{Node: "p", Kind: protocol.PartQueue},
		{Node: "r", Kind: protocol.PartRCE},
	}
	effs = m.Step(protocol.CoordDecided{TxnID: txn, Commit: true, Parts: parts})
	if got := pick[protocol.SendMsg](effs); len(got) != 2 {
		t.Fatalf("decided effects = %+v", effs)
	}
	if got := pick[protocol.ArmTimer](effs); len(got) != 2 || got[0].ID != "pctl|p" || got[1].ID != "pctl|r" {
		t.Fatalf("ctl resend timers armed = %+v", effs)
	}
	if s := m.Stats(); s.CoordActive != 0 || s.CoordPendingCtl != 1 {
		t.Fatalf("stats after decide: %+v", s)
	}

	// Each peer's timer resends that peer's outstanding control and
	// re-arms.
	for peer, kind := range map[string]string{"p": protocol.KindEnqueueCommit, "r": protocol.KindRCECommit} {
		effs = m.Step(protocol.TimerFired{ID: "pctl|" + peer})
		got := pick[protocol.SendMsg](effs)
		if len(got) != 1 || got[0].To != peer || got[0].Kind != kind {
			t.Fatalf("timer resend to %s = %+v", peer, effs)
		}
		if len(pick[protocol.ArmTimer](effs)) != 1 {
			t.Fatalf("resend timer for %s did not re-arm: %+v", peer, effs)
		}
	}

	// A query whose store read raced the commit (StoreDecided=false but
	// controls pending) must answer committed from machine state — a
	// presumed-abort answer here would let the participant abort a
	// committed hand-off and lose the agent.
	effs = m.Step(protocol.QueryReceived{TxnID: txn, From: "p", StoreDecided: false})
	race := pick[protocol.SendMsg](effs)
	if len(race) != 1 || !race[0].Payload.(*protocol.StatusMsg).Committed {
		t.Fatalf("racing query answered %+v, want committed", effs)
	}

	// A refused control ack (participant store error) must not retire
	// the obligation: the resend timer keeps driving it.
	effs = m.Step(protocol.AckReceived{Kind: protocol.KindEnqueueCommitAck, TxnID: txn, From: "p", OK: false, Err: "io"})
	if len(effs) != 0 {
		t.Fatalf("refused ctl ack produced effects: %+v", effs)
	}
	if s := m.Stats(); s.CoordPendingCtl != 1 {
		t.Fatalf("refused ctl ack retired the obligation: %+v", s)
	}

	// First ack retires one participant; no decision GC yet.
	effs = m.Step(protocol.AckReceived{Kind: protocol.KindEnqueueCommitAck, TxnID: txn, From: "p", OK: true})
	if len(pick[protocol.ClearDecision](effs)) != 0 {
		t.Fatalf("decision cleared early: %+v", effs)
	}
	// Duplicate ack is ignored.
	if effs := m.Step(protocol.AckReceived{Kind: protocol.KindEnqueueCommitAck, TxnID: txn, From: "p", OK: true}); len(effs) != 0 {
		t.Fatalf("duplicate ack produced effects: %+v", effs)
	}
	// Last ack clears the decision record; the timers are left to fire.
	effs = m.Step(protocol.AckReceived{Kind: protocol.KindRCECommitAck, TxnID: txn, From: "r", OK: true})
	if len(pick[protocol.ClearDecision](effs)) != 1 || len(effs) != 1 {
		t.Fatalf("final ack effects = %+v", effs)
	}
	if s := m.Stats(); s.CoordPendingCtl != 0 {
		t.Fatalf("pending ctl after all acks: %+v", s)
	}
	// The armed timers of the settled transaction fire into nothing and
	// retire their slots (one-shot, self-healing).
	for _, peer := range []string{"p", "r"} {
		if effs := m.Step(protocol.TimerFired{ID: "pctl|" + peer}); len(effs) != 0 {
			t.Fatalf("stale ctl timer produced effects: %+v", effs)
		}
	}
	if n := m.SchedSlots(); n != 0 {
		t.Fatalf("%d timer slots linger after the settled timers fired", n)
	}

	// Forgotten transaction: presumed abort.
	effs = m.Step(protocol.QueryReceived{TxnID: txn, From: "p", StoreDecided: false})
	ans := pick[protocol.SendMsg](effs)
	if len(ans) != 1 || ans[0].Payload.(*protocol.StatusMsg).Committed {
		t.Fatalf("presumed abort answer = %+v", effs)
	}
}

func TestCoordinatorAbortNotifiesOnce(t *testing.T) {
	m := newReady("co")
	const txn = "co#2"
	m.Step(protocol.CoordPrepareRCE{TxnID: txn, Dest: "r", Ops: nil})
	effs := m.Step(protocol.CoordDecided{TxnID: txn, Commit: false, Parts: []protocol.Participant{{Node: "r", Kind: protocol.PartRCE}}})
	sends := pick[protocol.SendMsg](effs)
	if len(sends) != 1 || sends[0].Kind != protocol.KindRCEAbort {
		t.Fatalf("abort effects = %+v", effs)
	}
	if got := pick[protocol.ArmTimer](effs); len(got) != 0 {
		t.Fatalf("abort armed a retry timer: %+v", effs)
	}
	if s := m.Stats(); s.CoordActive != 0 || s.CoordPendingCtl != 0 {
		t.Fatalf("coordinator state lingers after abort: %+v", s)
	}
}

func TestParticipantStagedLifecycle(t *testing.T) {
	m := newReady("p")
	const txn = "co#3"

	effs := m.Step(protocol.PrepareReceived{TxnID: txn, EntryID: "a1", From: "co", Data: []byte("x")})
	stage := pick[protocol.StageEntry](effs)
	if len(stage) != 1 || stage[0].AckKind != protocol.KindEnqueuePrepareAck {
		t.Fatalf("prepare effects = %+v", effs)
	}
	effs = m.Step(protocol.StageOutcome{TxnID: txn, OK: true})
	if got := pick[protocol.ArmTimer](effs); len(got) != 1 || got[0].ID != "pquery|co" {
		t.Fatalf("stage outcome effects = %+v", effs)
	}
	if s := m.Stats(); s.Staged != 1 {
		t.Fatalf("stats = %+v", s)
	}

	// The in-doubt timer queries the coordinator and re-arms.
	effs = m.Step(protocol.TimerFired{ID: "pquery|co"})
	q := pick[protocol.SendMsg](effs)
	if len(q) != 1 || q[0].Kind != protocol.KindTxnQuery || q[0].To != "co" {
		t.Fatalf("staged timer effects = %+v", effs)
	}
	if len(pick[protocol.ArmTimer](effs)) != 1 {
		t.Fatalf("staged timer did not re-arm: %+v", effs)
	}

	// The commit control resolves the stage and acks with the outcome;
	// the query cycle ends at its next fire.
	effs = m.Step(protocol.CtlReceived{TxnID: txn, From: "co", Commit: true})
	res := pick[protocol.ResolveStaged](effs)
	if len(res) != 1 || !res[0].Commit || res[0].AckTo != "co" || res[0].AckKind != protocol.KindEnqueueCommitAck {
		t.Fatalf("ctl effects = %+v", effs)
	}
	if len(effs) != 1 {
		t.Fatalf("ctl produced extra effects: %+v", effs)
	}
	if s := m.Stats(); s.Staged != 0 {
		t.Fatalf("staged state lingers: %+v", s)
	}
	// The still-armed timer fires into nothing and retires its slot.
	if effs := m.Step(protocol.TimerFired{ID: "pquery|co"}); len(effs) != 0 {
		t.Fatalf("stale staged timer produced effects: %+v", effs)
	}
	if n := m.SchedSlots(); n != 0 {
		t.Fatalf("%d timer slots linger after the stale fire", n)
	}
}

func TestParticipantRefusesWhileRecovering(t *testing.T) {
	m := protocol.NewMachine(protocol.Config{Node: "p"})
	effs := m.Step(protocol.PrepareReceived{TxnID: "co#4", EntryID: "a", From: "co"})
	acks := pick[protocol.SendMsg](effs)
	if len(acks) != 1 || acks[0].Payload.(*protocol.AckMsg).OK {
		t.Fatalf("recovering prepare = %+v", effs)
	}
	effs = m.Step(protocol.RCEExecReceived{TxnID: "co#4", From: "co"})
	acks = pick[protocol.SendMsg](effs)
	if len(acks) != 1 || acks[0].Payload.(*protocol.AckMsg).OK {
		t.Fatalf("recovering exec = %+v", effs)
	}
}

func TestRCEBranchHappyPath(t *testing.T) {
	m := newReady("p")
	const txn = "co#5"
	ops := []*core.OpEntry{{Kind: core.OpResource, Op: "c"}}

	effs := m.Step(protocol.RCEExecReceived{TxnID: txn, From: "co", Ops: ops})
	if got := pick[protocol.ExecBranch](effs); len(got) != 1 {
		t.Fatalf("exec effects = %+v", effs)
	}
	// A duplicate request while executing is silently deduplicated.
	if effs := m.Step(protocol.RCEExecReceived{TxnID: txn, From: "co", Ops: ops}); len(effs) != 0 {
		t.Fatalf("duplicate exec produced effects: %+v", effs)
	}
	effs = m.Step(protocol.BranchPrepared{TxnID: txn, OK: true})
	acks := pick[protocol.SendMsg](effs)
	if len(acks) != 1 || !acks[0].Payload.(*protocol.AckMsg).OK {
		t.Fatalf("prepared effects = %+v", effs)
	}
	if got := pick[protocol.ArmTimer](effs); len(got) != 1 || got[0].ID != "pstale|co" {
		t.Fatalf("stale-branch timer not armed: %+v", effs)
	}
	if got := pick[protocol.CountCompOps](effs); len(got) != 1 || got[0].N != 1 {
		t.Fatalf("comp ops not counted: %+v", effs)
	}
	// A duplicate request after prepare re-acks (lost ack).
	effs = m.Step(protocol.RCEExecReceived{TxnID: txn, From: "co", Ops: ops})
	if acks := pick[protocol.SendMsg](effs); len(acks) != 1 || !acks[0].Payload.(*protocol.AckMsg).OK {
		t.Fatalf("duplicate-after-prepare = %+v", effs)
	}

	// Commit control settles the parked transaction.
	effs = m.Step(protocol.CtlReceived{TxnID: txn, From: "co", Commit: true, RCE: true})
	if got := pick[protocol.CommitBranch](effs); len(got) != 1 {
		t.Fatalf("commit ctl effects = %+v", effs)
	}
	if acks := pick[protocol.SendMsg](effs); len(acks) != 1 || acks[0].Kind != protocol.KindRCECommitAck {
		t.Fatalf("commit ctl ack = %+v", effs)
	}
	if s := m.Stats(); s.BranchesPrepared != 0 {
		t.Fatalf("branch state lingers: %+v", s)
	}
}

func TestRCEStaleBranchQueriesCoordinator(t *testing.T) {
	m := newReady("p")
	const txn = "co#6"
	m.Step(protocol.RCEExecReceived{TxnID: txn, From: "co", Ops: nil})
	m.Step(protocol.BranchPrepared{TxnID: txn, OK: true})
	effs := m.Step(protocol.TimerFired{ID: "pstale|co"})
	q := pick[protocol.SendMsg](effs)
	if len(q) != 1 || q[0].Kind != protocol.KindTxnQuery || q[0].To != "co" {
		t.Fatalf("stale branch timer = %+v", effs)
	}
	if got := pick[protocol.ArmTimer](effs); len(got) != 1 || got[0].ID != "pquery|co" {
		t.Fatalf("stale branch did not enter the query cadence: %+v", effs)
	}
	// Presumed abort resolves it.
	effs = m.Step(protocol.StatusReceived{TxnID: txn, Committed: false})
	if got := pick[protocol.AbortBranch](effs); len(got) != 1 {
		t.Fatalf("status abort = %+v", effs)
	}
}

func TestRecoveredBranchResolution(t *testing.T) {
	m := newReady("p")
	const txn = "co#7"
	effs := m.Step(protocol.RecoveredBranch{TxnID: txn})
	q := pick[protocol.SendMsg](effs)
	if len(q) != 1 || q[0].Kind != protocol.KindTxnQuery {
		t.Fatalf("recovered branch = %+v", effs)
	}
	if s := m.Stats(); s.BranchesInDoubt != 1 {
		t.Fatalf("stats = %+v", s)
	}
	effs = m.Step(protocol.StatusReceived{TxnID: txn, Committed: true})
	rec := pick[protocol.ResolveBranchRecord](effs)
	if len(rec) != 1 || !rec[0].Commit {
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
	effs = m.Step(protocol.TimerFired{ID: "pdone|own"})
	if len(pick[protocol.ResendDone](effs)) != 1 || len(pick[protocol.ArmTimer](effs)) != 1 {
		t.Fatalf("done timer = %+v", effs)
	}
	effs = m.Step(protocol.DoneAcked{AgentID: "a1"})
	if len(pick[protocol.DropDone](effs)) != 1 || len(effs) != 1 {
		t.Fatalf("done acked = %+v", effs)
	}
	if effs := m.Step(protocol.TimerFired{ID: "pdone|own"}); len(effs) != 0 {
		t.Fatalf("stale done timer = %+v", effs)
	}
	if n := m.SchedSlots(); n != 0 {
		t.Fatalf("%d timer slots linger after the stale fire", n)
	}
	if s := m.Stats(); s.DonePending != 0 {
		t.Fatalf("done state lingers: %+v", s)
	}
}

func TestSelfCoordinatedStagedSkipsQueryCycle(t *testing.T) {
	m := newReady("p")
	// A transaction coordinated by this very node never queries itself.
	m.Step(protocol.PrepareReceived{TxnID: "p#9", EntryID: "a", From: "p", Data: nil})
	effs := m.Step(protocol.StageOutcome{TxnID: "p#9", OK: true})
	if len(pick[protocol.ArmTimer](effs)) != 0 {
		t.Fatalf("self-coordinated staged armed a query timer: %+v", effs)
	}
}

func TestCoordinatorOf(t *testing.T) {
	cases := map[string]string{
		"nodeA#42":    "nodeA",
		"a#b#7":       "a#b", // last separator wins
		"noseparator": "",
	}
	for id, want := range cases {
		if got := protocol.Coordinator(id); got != want {
			t.Errorf("Coordinator(%q) = %q, want %q", id, got, want)
		}
	}
}

func TestPopToTarget(t *testing.T) {
	mkLog := func() *core.Log {
		l := &core.Log{}
		if err := l.AppendSavepoint("base", map[string][]byte{}, core.StateLogging, true); err != nil {
			t.Fatal(err)
		}
		l.Append(&core.BeginStepEntry{Node: "n", Seq: 0})
		l.Append(&core.EndStepEntry{Node: "n", Seq: 0})
		if err := l.AppendSavepoint("target", map[string][]byte{}, core.StateLogging, true); err != nil {
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
	if err := l.AppendSavepoint("sp", map[string][]byte{}, core.StateLogging, true); err != nil {
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
