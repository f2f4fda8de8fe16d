package protocol

// Source role: this node ran the step and handed the container on. Its
// own part (queue removal, resource records) is a durable branch
// prepared for the decider, and the decider's verdict settles it. States
// per transaction:
//
//	(absent) --Delegate--> delegated --OutcomeReceived--> (absent)
//	   delegated --DelegationStale--> delegated + query the decider (pquery|<txn>)
//	(absent) --RecoveredBranch (own ID)--> recovered --OutcomeReceived--> (absent)
//
// A live delegation has a worker waiting: its verdict goes to that
// worker (DeliverAck), which commits or aborts the branch and then
// confirms with q.resolved. A recovered one has no worker: its verdict
// replays or drops the branch record, then confirms. The source never
// decides, so it can never disagree with the decider; until the verdict
// arrives it keeps asking.

// delegation is the source-side state of one hand-off.
type delegation struct {
	decider   string
	recovered bool // no live worker: the verdict settles the branch record
}

// delegate records the hand-off before its prepare leaves, so an
// outcome that races back finds it. Only this node's own transactions
// are handed off from here; any other is refused at once.
func (m *Machine) delegate(e Delegate) []Effect {
	if Origin(e.TxnID) != m.cfg.Node {
		return []Effect{DeliverAck{Kind: KindOutcome, TxnID: e.TxnID, Err: "not this node's transaction"}}
	}
	m.delegs[e.TxnID] = &delegation{decider: e.Decider}
	return []Effect{SendHandoff{To: e.Decider, Msg: &PrepareMsg{
		TxnID: e.TxnID, EntryID: e.EntryID, Mark: e.Mark, Parties: e.Parties, Data: e.Data,
	}}}
}

// outcomeReceived routes a verdict by who this node is in the
// transaction: the source of its own, or an RCE party of another's.
func (m *Machine) outcomeReceived(e OutcomeReceived) []Effect {
	if Origin(e.TxnID) == m.cfg.Node {
		return m.settleDelegation(e)
	}
	return m.partyVerdict(e.TxnID, e.From, e.Committed)
}

// settleDelegation applies a verdict: the decider's outcome or the
// refusal at send. Duplicates (a re-sent outcome, a late answer to a
// query) find nothing and do nothing.
func (m *Machine) settleDelegation(e OutcomeReceived) []Effect {
	d, ok := m.delegs[e.TxnID]
	if !ok {
		return nil
	}
	delete(m.delegs, e.TxnID)
	if !d.recovered {
		return []Effect{DeliverAck{Kind: KindOutcome, TxnID: e.TxnID, OK: e.Committed, Err: e.Err}}
	}
	return []Effect{ResolveBranchRecord{TxnID: e.TxnID, Commit: e.Committed}, SendResolved{To: d.decider}}
}

// delegationStale starts the in-doubt query cycle of a live hand-off
// whose outcome is late: ask now, then on the transaction's query timer.
func (m *Machine) delegationStale(e DelegationStale) []Effect {
	d, ok := m.delegs[e.TxnID]
	if !ok {
		return nil
	}
	return m.query(e.TxnID, d.decider)
}

// recoveredDelegation replays a crash-surviving branch of this node's
// own transaction.
func (m *Machine) recoveredDelegation(e RecoveredBranch) []Effect {
	if d, ok := m.delegs[e.TxnID]; ok && !d.recovered {
		return nil // the live delegation owns it
	}
	m.delegs[e.TxnID] = &delegation{decider: e.Decider, recovered: true}
	return m.query(e.TxnID, e.Decider)
}
