package protocol

// Coordinator role: this node runs the decision side of a distributed
// step/compensation transaction. States per transaction:
//
//	(absent) --CoordPrepare*--> active --CoordDecided(commit)--> pendingCtl
//	                              |                                  |
//	                              | CoordDecided(abort)              | all CtlAcks in
//	                              v                                  v
//	                           (absent)                          (absent) + ClearDecision
//
// While active, in-doubt queries are answered with silence (the
// decision is still open — the participant re-asks). Once absent, a
// query is answered from the stable decision record alone: record
// present ⇒ committed, otherwise presumed abort. Commit control
// messages are resent on the per-peer timer (timers.go) until every
// participant acknowledged; abort notifications go out exactly once
// (presumed abort covers their loss).

// coordTxn is the coordinator-side state of one distributed
// transaction.
type coordTxn struct {
	active  bool
	pending map[Participant]bool // unacked commit controls
}

func (m *Machine) coordTxnFor(txnID string) *coordTxn {
	c, ok := m.coord[txnID]
	if !ok {
		c = &coordTxn{}
		m.coord[txnID] = c
	}
	return c
}

// coordPrepareEnqueue marks the transaction active *before* the
// prepare leaves this node, so a racing in-doubt query cannot be
// answered "abort" while the decision is still open.
func (m *Machine) coordPrepareEnqueue(e CoordPrepareEnqueue) []Effect {
	m.coordTxnFor(e.TxnID).active = true
	return []Effect{SendMsg{
		To:      e.Dest,
		Kind:    KindEnqueuePrepare,
		Payload: &PrepareMsg{TxnID: e.TxnID, EntryID: e.EntryID, Data: e.Data},
	}}
}

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
			effs = append(effs, SendMsg{To: p.Node, Kind: p.ctlKind(false), Payload: &CtlMsg{TxnID: e.TxnID}})
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
	c.pending = make(map[Participant]bool, len(e.Parts))
	for _, p := range e.Parts {
		c.pending[p] = true
		effs = append(effs, SendMsg{To: p.Node, Kind: p.ctlKind(true), Payload: &CtlMsg{TxnID: e.TxnID}})
	}
	// The first controls go out per-transaction (the driver's outbound
	// batch groups them per destination); only the resend obligation
	// joins the shared per-peer timer.
	for _, p := range e.Parts {
		effs = append(effs, m.enqueue(timerPeerCtl, p.Node, dueEntry{id: e.TxnID, aux: partAux(p.Kind)}, m.cfg.RetryInterval)...)
	}
	return effs
}

// ackReceived handles every acknowledgement kind: prepare/exec acks
// are routed to the worker blocked on them; control acks retire the
// coordinator's reliable-resend obligation, and the last commit ack
// garbage-collects the decision record.
func (m *Machine) ackReceived(e AckReceived) []Effect {
	switch e.Kind {
	case KindEnqueuePrepareAck, KindRCEExecAck:
		return []Effect{DeliverAck{Kind: e.Kind, TxnID: e.TxnID, OK: e.OK, Err: e.Err}}
	}
	pk, commit, ok := CtlKindOf(e.Kind)
	if !ok {
		return nil
	}
	if !e.OK {
		// The participant could not apply the control (e.g. a transient
		// store error committing its staged entry): keep the pending
		// obligation so the resend timer drives it again — retiring it
		// here would garbage-collect the decision record while the
		// participant is still in doubt.
		return nil
	}
	c, exists := m.coord[e.TxnID]
	if !exists || !c.pending[Participant{Node: e.From, Kind: pk}] {
		return nil // duplicate or stale ack
	}
	delete(c.pending, Participant{Node: e.From, Kind: pk})
	if len(c.pending) > 0 {
		return nil
	}
	// The resend entries are dropped lazily at the next per-peer fire.
	delete(m.coord, e.TxnID)
	if commit {
		// Every participant acknowledged the commit: the decision
		// record can be garbage-collected.
		return []Effect{ClearDecision{TxnID: e.TxnID}}
	}
	return nil
}

// queryReceived answers a participant's in-doubt query. A decision
// record in the store means committed; a still-active transaction
// means "no answer yet" (stay silent, the participant retries); a
// known transaction with pending commit controls means committed even
// if the driver's store read raced the commit (the machine state is
// authoritative: pending controls only exist after the decision record
// landed durably); otherwise the transaction never committed —
// presumed abort.
func (m *Machine) queryReceived(e QueryReceived) []Effect {
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
