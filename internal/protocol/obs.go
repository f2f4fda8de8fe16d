package protocol

import "strings"

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
	case Delegate:
		return "Delegate", e.TxnID, e.EntryID
	case OutcomeReceived:
		if e.Committed {
			return "OutcomeReceived(commit)", e.TxnID, ""
		}
		return "OutcomeReceived(abort)", e.TxnID, ""
	case HandoffReceived:
		return "HandoffReceived", e.TxnID, e.EntryID
	case HandoffDecided:
		if e.Commit {
			return "HandoffDecided(commit)", e.TxnID, ""
		}
		return "HandoffDecided(fence)", e.TxnID, ""
	case ResolvedReceived:
		return "ResolvedReceived", "", ""
	case LocalDecided:
		if e.Commit {
			return "LocalDecided(commit)", e.TxnID, ""
		}
		return "LocalDecided(abort)", e.TxnID, ""
	case RecoveredOutcome:
		return "RecoveredOutcome", e.TxnID, ""
	case AckReceived:
		return e.Kind, e.TxnID, ""
	case QueryReceived:
		return "QueryReceived", e.TxnID, ""
	case RCEExecReceived:
		return "RCEExecReceived", e.TxnID, ""
	case RCEShipped:
		return "RCEShipped", e.TxnID, ""
	case BranchPrepared:
		if e.OK {
			return "BranchPrepared(ok)", e.TxnID, ""
		}
		return "BranchPrepared(fail)", e.TxnID, ""
	case DoneRecorded:
		return "DoneRecorded", "", e.AgentID
	case DoneAcked:
		return "DoneAcked", "", e.AgentID
	case RecoveredBranch:
		return "RecoveredBranch", e.TxnID, ""
	case ReadyReached:
		return "ReadyReached", "", ""
	case TimerFired:
		// The ID names the obligation: "<class>|<txn>", or
		// "pdone|<agent>".
		class, id, _ := strings.Cut(e.ID, "|")
		if class == timerDone {
			return "TimerFired", "", id
		}
		return "TimerFired", id, ""
	default:
		return "Event?", "", ""
	}
}

// StateOf labels the machine's current state for a subject: the
// role a transaction is in, or the
// completion-notification state of an agent. "-" means the machine
// holds no state for the subject (the terminal/absent state). Must be
// called under the same serialization as Step.
func (m *Machine) StateOf(txnID, agentID string) string {
	if txnID != "" {
		if _, ok := m.deciding[txnID]; ok {
			return "deciding"
		}
		if r, ok := m.decided[txnID]; ok {
			switch {
			case !r.commit:
				return "decided-fence"
			case len(r.pending) > 0:
				return "decided-commit-pending"
			}
			return "decided-commit"
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
