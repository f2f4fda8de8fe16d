package protocol

import "repro/internal/core"

// Message kinds of the node protocol. The q.* family implements the
// two-phase hand-off of agent containers between input queues (the
// remote half of a distributed step/compensation transaction); the
// rce.* family ships resource-compensation-entry lists to the resource
// node in the optimized rollback (Figure 5b); txn.query resolves
// in-doubt participants after crashes (presumed abort).
const (
	KindEnqueuePrepare    = "q.prepare"
	KindEnqueuePrepareAck = "q.prepare.ack"
	KindEnqueueCommit     = "q.commit"
	KindEnqueueCommitAck  = "q.commit.ack"
	KindEnqueueAbort      = "q.abort"
	KindEnqueueAbortAck   = "q.abort.ack"

	KindTxnQuery  = "txn.query"
	KindTxnStatus = "txn.status"

	KindRCEExec      = "rce.exec"
	KindRCEExecAck   = "rce.exec.ack"
	KindRCECommit    = "rce.commit"
	KindRCECommitAck = "rce.commit.ack"
	KindRCEAbort     = "rce.abort"
	KindRCEAbortAck  = "rce.abort.ack"

	// Cross-transaction control-plane batches (PR-10): one coalesced
	// resend-timer fire per peer travels as one frame instead of one
	// frame per transaction. Receivers explode them back into the
	// per-transaction events of the kinds above.
	KindCtlBatch   = "ctl.batch"
	KindQueryBatch = "query.batch"
)

// PartKind distinguishes the two participant flavors of a distributed
// transaction — a staged queue entry and a prepared RCE branch — which
// use different control-message families.
type PartKind int

// Participant kinds.
const (
	// PartQueue is a destination queue holding a staged container
	// (q.commit / q.abort control messages).
	PartQueue PartKind = iota + 1
	// PartRCE is a resource node holding a prepared compensation branch
	// (rce.commit / rce.abort control messages).
	PartRCE
)

// Participant is one remote prepared participant of a distributed
// transaction, as tracked by the coordinator.
type Participant struct {
	Node string
	Kind PartKind
}

// ctlKind returns the control message kind for this participant and
// decision.
func (p Participant) ctlKind(commit bool) string {
	switch {
	case p.Kind == PartRCE && commit:
		return KindRCECommit
	case p.Kind == PartRCE:
		return KindRCEAbort
	case commit:
		return KindEnqueueCommit
	default:
		return KindEnqueueAbort
	}
}

// CtlKindOf maps an ack kind back to the (participant kind, commit)
// pair it acknowledges; ok=false for non-ctl ack kinds.
func CtlKindOf(ackKind string) (kind PartKind, commit, ok bool) {
	switch ackKind {
	case KindEnqueueCommitAck:
		return PartQueue, true, true
	case KindEnqueueAbortAck:
		return PartQueue, false, true
	case KindRCECommitAck:
		return PartRCE, true, true
	case KindRCEAbortAck:
		return PartRCE, false, true
	}
	return 0, false, false
}

// PrepareMsg asks the destination to durably stage a container
// insertion under the coordinator's transaction ID.
type PrepareMsg struct {
	TxnID   string
	EntryID string
	Data    []byte
}

// AckMsg acknowledges a protocol request. OK=false carries the refusal
// reason (e.g. node still recovering).
type AckMsg struct {
	TxnID string
	OK    bool
	Err   string
}

// CtlMsg carries commit/abort/query instructions for a transaction.
type CtlMsg struct {
	TxnID string
}

// StatusMsg answers a txn.query: Committed=false means abort (presumed
// abort: no decision record implies the transaction never committed).
type StatusMsg struct {
	TxnID     string
	Committed bool
}

// RCEExecMsg ships the resource compensation entries of one step to
// the node where the step executed, to be run inside the (distributed)
// compensation transaction identified by TxnID (§4.4.1).
type RCEExecMsg struct {
	TxnID string
	Ops   []*core.OpEntry
}

// CtlBatchItem is one coalesced commit/abort control: semantically
// identical to a CtlMsg of kind ctlKind — RCE selects the rce.* family,
// Commit the commit/abort verdict.
type CtlBatchItem struct {
	TxnID  string
	RCE    bool
	Commit bool
}

// CtlBatchMsg carries every control the per-peer resend timer owed one
// participant at fire time as a single frame (kind ctl.batch). The
// receiver applies the items in order as independent CtlReceived events.
type CtlBatchMsg struct {
	Items []CtlBatchItem
}

// QueryBatchMsg carries the coalesced in-doubt queries of one per-peer
// timer fire to a single coordinator (kind query.batch); each entry is
// one txn.query.
type QueryBatchMsg struct {
	TxnIDs []string
}
