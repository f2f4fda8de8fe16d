package protocol

// Source role: this node ran the step and handed the container on. Its
// own part (queue removal, resource records) is a durable branch
// prepared for the decider, held in the same states as an RCE party's
// branch (rce.go), and the decider's verdict settles it the same way.
// States per transaction:
//
//	(absent) --Delegate--> prepared (pquery|<txn> armed at staleAfter)
//	(absent) --RecoveredBranch (own ID)--> inDoubt + query the decider (pquery|<txn> re-armed)
//	prepared --pquery fire--> prepared + query the decider (pquery|<txn> re-armed)
//	prepared/inDoubt --OutcomeReceived--> (absent) + SettleBranch + q.resolved + pquery disarmed
//
// No worker waits on the verdict: the one that prepared the branch left
// it parked with the driver and went on, and SettleBranch settles the
// parked transaction, or after a crash the branch record. The source
// never decides, so it can never disagree with the decider; until the
// verdict arrives it keeps asking.

// delegate records the hand-off before its prepare leaves, so an
// outcome that races back finds it, and arms its query timer first, so
// a send that fails at once finds it armed and disarms it. Only this
// node's own transactions are handed off from here; any other is
// refused at once.
func (m *Machine) delegate(e Delegate) []Effect {
	if Origin(e.TxnID) != m.cfg.Node {
		return []Effect{SettleBranch{TxnID: e.TxnID, Err: "not this node's transaction"}}
	}
	b := &branch{state: branchPrepared, decider: e.Decider, timer: queryTimer(e.TxnID)}
	m.branches[e.TxnID] = b
	effs := append(make([]Effect, 0, 2), m.arm(b.timer, m.cfg.staleAfter())...)
	return append(effs, SendHandoff{To: e.Decider, Msg: &PrepareMsg{
		TxnID: e.TxnID, EntryID: e.EntryID, Mark: e.Mark, Parties: e.Parties, Data: e.Data,
	}})
}

// outcomeReceived applies a verdict on one of this node's hand-offs —
// the decider's outcome, then the source's mark to it; or the refusal at
// send, which no decider saw — or on an RCE branch it holds for another
// node. A source's duplicate (a re-sent outcome, a late answer to a
// query) finds nothing and does nothing.
func (m *Machine) outcomeReceived(e OutcomeReceived) []Effect {
	if Origin(e.TxnID) != m.cfg.Node {
		return m.partyVerdict(e.TxnID, e.From, e.Committed)
	}
	b, ok := m.branches[e.TxnID]
	if !ok {
		return nil
	}
	delete(m.branches, e.TxnID)
	effs := m.settle(e.TxnID, b, e.Committed, e.Err)
	if e.Err != "" {
		return effs
	}
	return append(effs, SendResolved{To: b.decider})
}

// settle is the one way a verdict reaches a prepared branch here, the
// source's or a party's: the SettleBranch effect, with the timer of b (nil
// when the machine holds no branch) disarmed, so a healthy hand-off
// leaves nothing armed.
func (m *Machine) settle(txnID string, b *branch, commit bool, reason string) []Effect {
	return m.disarm(append(make([]Effect, 0, 3), SettleBranch{TxnID: txnID, Commit: commit, Err: reason}), b)
}
