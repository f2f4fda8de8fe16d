package protocol

// Participant role (queue hand-off): this node durably stages a
// container insertion under the coordinator's transaction and waits
// for the decision. States per transaction:
//
//	(absent) --PrepareReceived--> staging --StageOutcome(ok)--> staged
//	   staged --CtlReceived/StatusReceived--> (absent) + commit/abort of the stage
//
// A staged transaction with a remote coordinator is in-doubt: the
// per-peer query timer asks the coordinator on RetryInterval until
// the verdict arrives (presumed abort answers queries the coordinator
// no longer remembers). Control messages and verdicts are idempotent
// on the queue, so duplicates are harmless.

// prepareReceived stages a container insertion (participant prepare of
// the queue hand-off); a recovering node refuses.
func (m *Machine) prepareReceived(e PrepareReceived) []Effect {
	if !m.ready {
		return []Effect{SendMsg{
			To:      e.From,
			Kind:    KindEnqueuePrepareAck,
			Payload: &AckMsg{TxnID: e.TxnID, OK: false, Err: "node recovering"},
		}}
	}
	return []Effect{StageEntry{
		TxnID:   e.TxnID,
		EntryID: e.EntryID,
		From:    e.From,
		Data:    e.Data,
		AckKind: KindEnqueuePrepareAck,
	}}
}

// stageOutcome records a successfully staged transaction and, when its
// coordinator is remote, starts the in-doubt query cycle.
func (m *Machine) stageOutcome(e StageOutcome) []Effect {
	if !e.OK {
		return nil
	}
	co := Coordinator(e.TxnID)
	m.staged[e.TxnID] = co
	if co == "" || co == m.cfg.Node {
		return nil // self-coordinated: recovery resolves from the local decision record
	}
	return m.enqueue(timerPeerQuery, co, dueEntry{id: e.TxnID, aux: auxStaged}, m.cfg.RetryInterval)
}

// recoveredStaged replays a crash-surviving staged entry with a remote
// coordinator: query immediately, then on the usual cadence.
func (m *Machine) recoveredStaged(e RecoveredStaged) []Effect {
	co := Coordinator(e.TxnID)
	m.staged[e.TxnID] = co
	if co == "" || co == m.cfg.Node {
		return nil
	}
	effs := []Effect{SendMsg{To: co, Kind: KindTxnQuery, Payload: &CtlMsg{TxnID: e.TxnID}}}
	return append(effs, m.enqueue(timerPeerQuery, co, dueEntry{id: e.TxnID, aux: auxStaged}, m.cfg.RetryInterval)...)
}

// ctlReceived applies the coordinator's explicit commit/abort. Queue
// controls settle only the staged entry (acknowledged with the queue
// operation's outcome); RCE controls resolve every local trace of the
// transaction and always acknowledge.
func (m *Machine) ctlReceived(e CtlReceived) []Effect {
	if !e.RCE {
		ackKind := KindEnqueueAbortAck
		if e.Commit {
			ackKind = KindEnqueueCommitAck
		}
		m.dropStaged(e.TxnID)
		return []Effect{ResolveStaged{TxnID: e.TxnID, Commit: e.Commit, AckTo: e.From, AckKind: ackKind}}
	}
	ackKind := KindRCEAbortAck
	if e.Commit {
		ackKind = KindRCECommitAck
	}
	effs := m.resolve(e.TxnID, e.Commit, nil)
	return append(effs, SendMsg{
		To:      e.From,
		Kind:    ackKind,
		Payload: &AckMsg{TxnID: e.TxnID, OK: true},
	})
}

// resolve settles every local trace of a transaction with the
// coordinator's verdict: the staged queue entry, the live RCE branch
// (prepared or still executing — the abort-overtakes-execution edge),
// and the crash-surviving branch record. extra effects are appended
// after the resolution set.
func (m *Machine) resolve(txnID string, commit bool, extra []Effect) []Effect {
	effs := []Effect{ResolveStaged{TxnID: txnID, Commit: commit}}
	m.dropStaged(txnID)
	effs = append(effs, m.resolveBranch(txnID, commit)...)
	return append(effs, extra...)
}

func (m *Machine) dropStaged(txnID string) { delete(m.staged, txnID) }
