package protocol

import "repro/internal/core"

// Message kinds of the node protocol. The q.* family is the commit
// protocol, decided by one node per transaction (DESIGN.md §5):
// q.prepare carries the container, the source's mark and the RCE
// parties, q.outcome the decider's verdict (to the source and to each
// party, and as the answer to a query), q.outcome.ack a party's
// acknowledgement of a commit, q.resolved the source's mark once it
// settled. rce.exec ships resource-compensation-entry lists to the
// resource node in the optimized rollback (Figure 5b); txn.query
// resolves in-doubt transactions after crashes (a fence for an unknown
// ID, presumed abort below the source's mark).
const (
	KindEnqueuePrepare = "q.prepare"
	KindOutcome        = "q.outcome"
	KindOutcomeAck     = "q.outcome.ack"
	KindResolved       = "q.resolved"

	KindTxnQuery = "txn.query"

	KindRCEExec    = "rce.exec"
	KindRCEExecAck = "rce.exec.ack"
)

// PrepareMsg hands a container to the node that decides transaction
// TxnID: enqueue it as EntryID and answer with the outcome, to the
// source and to each of Parties, the nodes holding RCE branches of the
// transaction. Mark is the source's watermark (txn.Manager.Mark).
type PrepareMsg struct {
	TxnID   string
	EntryID string
	Mark    uint64
	Parties []string
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

// CtlMsg names the transaction an in-doubt query (txn.query) asks about.
type CtlMsg struct {
	TxnID string
}

// StatusMsg carries a decider's verdict (q.outcome), sent on its own or
// as the answer to a txn.query: Committed=false means abort (a fence, a
// refused hand-off, presumed abort below the source's mark).
type StatusMsg struct {
	TxnID     string
	Committed bool
}

// RCEExecMsg ships the resource compensation entries of one step to
// the node where the step executed, to be run inside the (distributed)
// compensation transaction identified by TxnID (§4.4.1), which Decider
// decides.
type RCEExecMsg struct {
	TxnID   string
	Decider string
	Ops     []*core.OpEntry
}
