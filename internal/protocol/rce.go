package protocol

// RCE role (Figure 5b, resource-node half): execute a shipped
// resource-compensation-entry list inside a prepared branch of the
// coordinator's compensation transaction. States per transaction:
//
//	(absent) --RCEExecReceived--> executing --BranchPrepared(ok)--> prepared
//	    |                            |                                 |
//	    |                            | StatusReceived/CtlReceived      | verdict
//	    |                            |     (abort)                     v
//	    |                            v                             (absent) +
//	    |                     executingAborted                     Commit/AbortBranch
//	    |                            |
//	    |                            | BranchPrepared(any)
//	    |                            v
//	    |                 (absent) + AbortBranch + refused ack
//	    |
//	RecoveredBranch--> inDoubt --verdict--> (absent) + ResolveBranchRecord
//
// The executing→executingAborted edge is the PR-4 chaos catch (seed
// 2): the coordinator's presumed abort overtakes an execution that is
// blocked on a resource lock. A branch prepared *after* its
// coordinator aborted would be a zombie — prepared, lock-holding,
// already presumed-aborted — and under retry pressure those zombie
// holds chain into a livelock where no attempt can prepare inside the
// coordinator's ack window. What was a cross-map poison check
// (rceInFlight/rceAborted) is now this ordinary transition.
//
// A prepared branch left undecided for StaleAfter starts querying its
// coordinator (the coordinator may have aborted silently — presumed
// abort never pushes a verdict on its own), then re-asks on
// RetryInterval.

// branchState is the lifecycle position of one RCE branch.
type branchState int

const (
	// branchExecuting: the driver is running the compensation list
	// (possibly blocked on resource locks).
	branchExecuting branchState = iota + 1
	// branchExecutingAborted: the coordinator's verdict (abort)
	// overtook the still-running execution; the branch must abort
	// instead of preparing.
	branchExecutingAborted
	// branchPrepared: durably prepared and acknowledged; awaiting the
	// coordinator's decision.
	branchPrepared
	// branchInDoubt: a crash-surviving branch record with no live
	// transaction; resolution replays or drops the durable record.
	branchInDoubt
)

// branch is the participant-side state of one RCE branch.
type branch struct {
	state   branchState
	replyTo string // coordinator endpoint awaiting the exec ack
	ops     int64  // compensation entries in the branch (metrics)
}

// rceExecReceived starts (or deduplicates) a branch execution.
func (m *Machine) rceExecReceived(e RCEExecReceived) []Effect {
	if !m.ready {
		return []Effect{SendMsg{
			To:      e.From,
			Kind:    KindRCEExecAck,
			Payload: &AckMsg{TxnID: e.TxnID, OK: false, Err: "node recovering"},
		}}
	}
	if b, ok := m.branches[e.TxnID]; ok {
		switch b.state {
		case branchExecuting, branchExecutingAborted:
			return nil // already executing; its ack will answer the retry too
		case branchPrepared:
			// Duplicate request (lost ack): already prepared.
			return []Effect{SendMsg{
				To:      e.From,
				Kind:    KindRCEExecAck,
				Payload: &AckMsg{TxnID: e.TxnID, OK: true},
			}}
		case branchInDoubt:
			// The coordinator is retrying an execution whose previous
			// incarnation prepared durably before a crash; fall through
			// to a fresh execution under the same transaction ID.
		}
	}
	m.branches[e.TxnID] = &branch{state: branchExecuting, replyTo: e.From, ops: int64(len(e.Ops))}
	// Any queued stale/query entry for the previous incarnation is
	// filtered lazily at the next per-peer fire.
	return []Effect{ExecBranch{TxnID: e.TxnID, ReplyTo: e.From, Ops: e.Ops}}
}

// branchPrepared lands the driver's execution result on the current
// state. The abort-overtook-execution edge resolves here: the branch
// was prepared durably, but the coordinator already presumed it
// aborted, so it is aborted (releasing its locks) instead of being
// registered — and the coordinator is told so.
func (m *Machine) branchPrepared(e BranchPrepared) []Effect {
	b, ok := m.branches[e.TxnID]
	if !ok {
		// No state at all (the verdict already settled everything);
		// the stray parked transaction is aborted so it cannot sit on
		// its locks.
		if e.OK {
			return []Effect{AbortBranch{TxnID: e.TxnID}}
		}
		return nil
	}
	if b.state != branchExecuting && b.state != branchExecutingAborted {
		// Duplicate completion for a branch that already prepared (or a
		// recovered record): the live state owns the parked
		// transaction — ignore the stray.
		return nil
	}
	if !e.OK {
		// Execution or prepare failed; the driver already aborted the
		// branch transaction.
		delete(m.branches, e.TxnID)
		return []Effect{SendMsg{
			To:      b.replyTo,
			Kind:    KindRCEExecAck,
			Payload: &AckMsg{TxnID: e.TxnID, OK: false, Err: e.Err},
		}}
	}
	if b.state == branchExecutingAborted {
		// The coordinator aborted while the compensations were running
		// (lock waits make that window wide). Registering the branch
		// now would create a zombie: prepared, lock-holding, and
		// already presumed-aborted by its coordinator.
		delete(m.branches, e.TxnID)
		return []Effect{
			AbortBranch{TxnID: e.TxnID},
			SendMsg{
				To:      b.replyTo,
				Kind:    KindRCEExecAck,
				Payload: &AckMsg{TxnID: e.TxnID, OK: false, Err: "aborted by coordinator during execution"},
			},
		}
	}
	b.state = branchPrepared
	effs := []Effect{
		CountCompOps{N: b.ops},
		SendMsg{
			To:      b.replyTo,
			Kind:    KindRCEExecAck,
			Payload: &AckMsg{TxnID: e.TxnID, OK: true},
		},
	}
	co := Coordinator(e.TxnID)
	if co == "" || co == m.cfg.Node {
		// No remote coordinator to query; the verdict arrives locally.
		return effs
	}
	return append(effs, m.enqueue(timerPeerStale, co, dueEntry{id: e.TxnID, aux: auxBranch}, m.cfg.StaleAfter)...)
}

// ctlReceived applies the coordinator's explicit commit/abort of an RCE
// branch and always acknowledges.
func (m *Machine) ctlReceived(e CtlReceived) []Effect {
	ackKind := KindRCEAbortAck
	if e.Commit {
		ackKind = KindRCECommitAck
	}
	return append(m.resolveBranch(e.TxnID, e.Commit), SendMsg{
		To:      e.From,
		Kind:    ackKind,
		Payload: &AckMsg{TxnID: e.TxnID, OK: true},
	})
}

// resolveBranch applies a coordinator verdict to whatever branch state
// exists: a live prepared transaction, a still-running execution (the
// poison edge), a recovered record, or nothing (then only the durable
// record — if any — is replayed or dropped).
func (m *Machine) resolveBranch(txnID string, commit bool) []Effect {
	b, ok := m.branches[txnID]
	if !ok {
		// Crash-surviving branch record (no live Tx): replay/drop the
		// redo.
		return []Effect{ResolveBranchRecord{TxnID: txnID, Commit: commit}}
	}
	switch b.state {
	case branchPrepared:
		delete(m.branches, txnID)
		if !commit {
			return []Effect{AbortBranch{TxnID: txnID}}
		}
		return []Effect{CommitBranch{TxnID: txnID}}
	case branchExecuting:
		if !commit {
			// The abort overtook the branch: its RCE execution is still
			// running (typically blocked on a resource lock). Poison it
			// so it aborts instead of preparing.
			b.state = branchExecutingAborted
		}
		return []Effect{ResolveBranchRecord{TxnID: txnID, Commit: commit}}
	case branchExecutingAborted:
		return []Effect{ResolveBranchRecord{TxnID: txnID, Commit: commit}}
	case branchInDoubt:
		delete(m.branches, txnID)
		return []Effect{ResolveBranchRecord{TxnID: txnID, Commit: commit}}
	}
	return nil
}

// recoveredBranch replays a crash-surviving in-doubt branch record:
// query the coordinator immediately, then on the usual cadence. Live
// branch state outranks the replay — a record surviving next to a live
// execution or prepared transaction is that transaction's own record.
func (m *Machine) recoveredBranch(e RecoveredBranch) []Effect {
	if b, ok := m.branches[e.TxnID]; ok && b.state != branchInDoubt {
		return nil
	}
	m.branches[e.TxnID] = &branch{state: branchInDoubt}
	co := Coordinator(e.TxnID)
	if co == "" || co == m.cfg.Node {
		return nil
	}
	effs := []Effect{SendMsg{To: co, Kind: KindTxnQuery, Payload: &CtlMsg{TxnID: e.TxnID}}}
	return append(effs, m.enqueue(timerPeerQuery, co, dueEntry{id: e.TxnID, aux: auxBranch}, m.cfg.RetryInterval)...)
}
