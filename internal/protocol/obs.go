package protocol

// Observability helpers: pure, allocation-free views of events and
// machine state for the trace ring. EventInfo names an event and pulls
// out its subject IDs without the caller type-switching over the event
// set; StateOf renders the machine's current state for one subject as a
// short label so a transition record can carry a "before → after" edge.

// EventInfo returns a stable name for the event plus the transaction
// and/or agent entry it concerns ("" when the event has no such
// subject). For acks the name is the ack's message kind, which already
// identifies the protocol round precisely.
func EventInfo(ev Event) (name, txnID, agentID string) {
	switch e := ev.(type) {
	case CoordPrepareEnqueue:
		return "CoordPrepareEnqueue", e.TxnID, e.EntryID
	case CoordPrepareRCE:
		return "CoordPrepareRCE", e.TxnID, ""
	case CoordDecided:
		if e.Commit {
			return "CoordDecided(commit)", e.TxnID, ""
		}
		return "CoordDecided(abort)", e.TxnID, ""
	case AckReceived:
		return e.Kind, e.TxnID, ""
	case QueryReceived:
		return "QueryReceived", e.TxnID, ""
	case StatusReceived:
		if e.Committed {
			return "StatusReceived(commit)", e.TxnID, ""
		}
		return "StatusReceived(abort)", e.TxnID, ""
	case PrepareReceived:
		return "PrepareReceived", e.TxnID, e.EntryID
	case StageOutcome:
		if e.OK {
			return "StageOutcome(ok)", e.TxnID, ""
		}
		return "StageOutcome(fail)", e.TxnID, ""
	case CtlReceived:
		switch {
		case e.RCE && e.Commit:
			return "CtlReceived(rce-commit)", e.TxnID, ""
		case e.RCE:
			return "CtlReceived(rce-abort)", e.TxnID, ""
		case e.Commit:
			return "CtlReceived(commit)", e.TxnID, ""
		default:
			return "CtlReceived(abort)", e.TxnID, ""
		}
	case RCEExecReceived:
		return "RCEExecReceived", e.TxnID, ""
	case BranchPrepared:
		if e.OK {
			return "BranchPrepared(ok)", e.TxnID, ""
		}
		return "BranchPrepared(fail)", e.TxnID, ""
	case DoneRecorded:
		return "DoneRecorded", "", e.AgentID
	case DoneAcked:
		return "DoneAcked", "", e.AgentID
	case RecoveredStaged:
		return "RecoveredStaged", e.TxnID, ""
	case RecoveredBranch:
		return "RecoveredBranch", e.TxnID, ""
	case ReadyReached:
		return "ReadyReached", "", ""
	case TimerFired:
		// The ID names a peer, and the fire concerns many transactions —
		// no single subject.
		return "TimerFired", "", ""
	default:
		return "Event?", "", ""
	}
}

// StateOf labels the machine's current state for a subject: the
// coordinator/participant role a transaction is in, or the
// completion-notification state of an agent. "-" means the machine
// holds no state for the subject (the terminal/absent state). Must be
// called under the same serialization as Step.
func (m *Machine) StateOf(txnID, agentID string) string {
	if txnID != "" {
		if c, ok := m.coord[txnID]; ok {
			switch {
			case c.active:
				return "coord-active"
			case len(c.pending) > 0:
				return "coord-pending-ctl"
			default:
				return "coord-idle"
			}
		}
		if _, ok := m.staged[txnID]; ok {
			return "staged"
		}
		if b, ok := m.branches[txnID]; ok {
			switch b.state {
			case branchExecuting:
				return "branch-executing"
			case branchExecutingAborted:
				return "branch-executing-aborted"
			case branchPrepared:
				return "branch-prepared"
			case branchInDoubt:
				return "branch-in-doubt"
			default:
				return "branch?"
			}
		}
		return "-"
	}
	if agentID != "" {
		if _, ok := m.done[agentID]; ok {
			return "done-pending"
		}
		return "-"
	}
	return "-"
}
