package protocol

import "repro/internal/core"

// Message kinds of the node protocol. The q.* family is the hand-off of
// agent containers between input queues, decided by the node that
// receives the container (DESIGN.md §5): q.prepare carries the container
// and the source's mark, q.outcome the decider's verdict, q.resolved the
// source's mark once it settled. The rce.* family ships
// resource-compensation-entry lists to the resource node in the
// optimized rollback (Figure 5b); txn.query resolves in-doubt
// transactions after crashes (presumed abort for RCE branches, a fence
// for an unknown hand-off).
const (
	KindEnqueuePrepare = "q.prepare"
	KindOutcome        = "q.outcome"
	KindResolved       = "q.resolved"

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

// PrepareMsg hands a container to the node that decides the step
// transaction TxnID: enqueue it as EntryID and answer with the outcome.
// Mark is the source's watermark (txn.Manager.Mark).
type PrepareMsg struct {
	TxnID   string
	EntryID string
	Mark    uint64
	Data    []byte
}

// MarkMsg carries a source's watermark to a decider (q.resolved).
type MarkMsg struct {
	Mark uint64
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

// StatusMsg answers a txn.query, or carries a decider's verdict
// (q.outcome): Committed=false means abort (presumed abort for an RCE
// branch, a fenced or refused hand-off).
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

// CtlBatchItem is one coalesced RCE control: semantically identical to
// a CtlMsg of kind rce.commit (Commit) or rce.abort.
type CtlBatchItem struct {
	TxnID  string
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
