package protocol

// Coordinator role: the RCE branches (Figure 5b) of one distributed
// compensation transaction this node began. States per transaction:
//
//	(absent) --CoordPrepareRCE--> active --CoordDecided(commit)--> pendingCtl
//	                                 |                                  |
//	                                 | CoordDecided(abort)              | all CtlAcks in
//	                                 v                                  v
//	                              (absent)                          (absent) + ClearDecision
//
// While active, in-doubt queries are answered with silence (the
// decision is still open — the participant re-asks), and so they are
// while this node's own branch of the transaction is prepared: a
// compensation that hands the agent on is decided by the node receiving
// it (source.go), and its verdict is not known here yet. Otherwise a
// query is answered from the stable decision record alone: record
// present ⇒ committed, otherwise presumed abort. Commit control
// messages are resent on the per-peer timer (timers.go) until every
// participant acknowledged; abort notifications go out exactly once
// (presumed abort covers their loss).

// coordTxn is the coordinator-side state of one distributed
// transaction.
type coordTxn struct {
	active  bool
	pending map[string]bool // participant nodes with unacked commit controls
}

func (m *Machine) coordTxnFor(txnID string) *coordTxn {
	c, ok := m.coord[txnID]
	if !ok {
		c = &coordTxn{}
		m.coord[txnID] = c
	}
	return c
}

// coordPrepareRCE marks the transaction active *before* the RCE list
// leaves this node, so a racing in-doubt query cannot be answered
// "abort" while the decision is still open.
func (m *Machine) coordPrepareRCE(e CoordPrepareRCE) []Effect {
	m.coordTxnFor(e.TxnID).active = true
	return []Effect{SendMsg{
		To:      e.Dest,
		Kind:    KindRCEExec,
		Payload: &RCEExecMsg{TxnID: e.TxnID, Ops: e.Ops},
	}}
}

// coordDecided closes the decision. On commit the participants are
// driven to commit reliably (per-peer resend timer); on abort
// they are notified once and the transaction is forgotten — presumed
// abort resolves anything the notification misses.
func (m *Machine) coordDecided(e CoordDecided) []Effect {
	var effs []Effect
	if !e.Commit {
		for _, p := range e.Parts {
			effs = append(effs, SendMsg{To: p, Kind: KindRCEAbort, Payload: &CtlMsg{TxnID: e.TxnID}})
		}
		delete(m.coord, e.TxnID)
		return effs
	}
	c := m.coordTxnFor(e.TxnID)
	c.active = false
	if len(e.Parts) == 0 {
		// Purely local commit: nothing to drive, nothing to remember.
		delete(m.coord, e.TxnID)
		return nil
	}
	c.pending = make(map[string]bool, len(e.Parts))
	for _, p := range e.Parts {
		c.pending[p] = true
		effs = append(effs, SendMsg{To: p, Kind: KindRCECommit, Payload: &CtlMsg{TxnID: e.TxnID}})
	}
	// The first controls go out per-transaction (the driver's outbound
	// batch groups them per destination); only the resend obligation
	// joins the shared per-peer timer.
	for _, p := range e.Parts {
		effs = append(effs, m.enqueue(timerPeerCtl, p, dueEntry{id: e.TxnID}, m.cfg.RetryInterval)...)
	}
	return effs
}

// ackReceived handles the RCE acknowledgements: exec acks are routed to
// the worker blocked on them; commit acks retire the coordinator's
// reliable-resend obligation, and the last one garbage-collects the
// decision record.
func (m *Machine) ackReceived(e AckReceived) []Effect {
	switch e.Kind {
	case KindRCEExecAck:
		return []Effect{DeliverAck{Kind: e.Kind, TxnID: e.TxnID, OK: e.OK, Err: e.Err}}
	case KindRCECommitAck:
	default:
		return nil // abort acks retire nothing: aborts are sent once
	}
	if !e.OK {
		// The participant could not apply the control: keep the pending
		// obligation so the resend timer drives it again — retiring it
		// here would garbage-collect the decision record while the
		// participant is still in doubt.
		return nil
	}
	c, exists := m.coord[e.TxnID]
	if !exists || !c.pending[e.From] {
		return nil // duplicate or stale ack
	}
	delete(c.pending, e.From)
	if len(c.pending) > 0 {
		return nil
	}
	// The resend entries are dropped lazily at the next per-peer fire.
	// Every participant acknowledged the commit: the decision record can
	// be garbage-collected.
	delete(m.coord, e.TxnID)
	return []Effect{ClearDecision{TxnID: e.TxnID}}
}

// queryReceived answers an in-doubt query. A source asking about its
// hand-off is answered by the decider role (decider.go). For a
// transaction this node began: a decision record in the store means
// committed; a still-active transaction, or this node's own prepared
// branch of it, means "no answer yet" (stay silent, the participant
// retries); a known transaction with pending commit controls means
// committed even if the driver's store read raced the commit (pending
// controls only exist after the decision record landed durably);
// otherwise the transaction never committed — presumed abort.
func (m *Machine) queryReceived(e QueryReceived) []Effect {
	switch co := Coordinator(e.TxnID); {
	case co == e.From && co != m.cfg.Node:
		return m.queryDecided(e)
	case co != m.cfg.Node:
		return nil // not this node's transaction to answer for
	}
	if _, delegated := m.delegs[e.TxnID]; delegated || e.StorePrepared {
		return nil
	}
	committed := e.StoreDecided
	if !committed {
		if c, ok := m.coord[e.TxnID]; ok {
			if c.active {
				return nil // outcome not decided yet; participant will re-ask
			}
			// Decided commit, acks still outstanding: the driver's
			// Decided read predates the commit — answer from state.
			committed = len(c.pending) > 0
		}
	}
	return []Effect{SendMsg{
		To:      e.From,
		Kind:    KindTxnStatus,
		Payload: &StatusMsg{TxnID: e.TxnID, Committed: committed},
	}}
}
