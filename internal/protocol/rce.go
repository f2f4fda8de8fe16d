package protocol

// RCE roles (Figure 5b): the compensator ships a resource-compensation-
// entry list and awaits its exec ack, with no worker waiting on it:
//
//	(absent) --RCEShipped--> shipped (pexec|<txn> armed) --ack or pexec fire--> (absent) + ExecAcked
//
// A later ack finds nothing. The party executes the list inside a
// prepared branch of the compensation transaction, and settles it with
// its decider's verdict:
//
//	(absent) --RCEExecReceived--> executing --BranchPrepared(ok)--> prepared
//	    |                            |                                 |
//	    |                            | abort verdict                   | verdict
//	    |                            v                                 v
//	    |                     executingAborted                     (absent) +
//	    |                            |                             SettleBranch
//	    |                            | BranchPrepared(any)
//	    |                            v
//	    |                 (absent) + SettleBranch(abort) + refused ack
//	    |
//	RecoveredBranch--> inDoubt --verdict--> (absent) + SettleBranch
//
// Every verdict is one SettleBranch, whatever the state: the driver
// settles the transaction it parked, or else the durable record. A
// hand-off's own branch at its source shares the prepared and inDoubt
// states (source.go). The branch record names the decider, which
// rce.exec carries: the node that receives the container, or the
// compensating node when the agent stays (DESIGN.md §5). A commit
// verdict is acknowledged (q.outcome.ack) so the decider can collect
// its record; an abort is not.
//
// The executing→executingAborted edge is the chaos harness's first catch
// (seed 2): an abort overtakes an execution that is blocked on a
// resource lock. A branch prepared *after* its transaction aborted
// would be a zombie — prepared, lock-holding, already aborted — and
// under retry pressure those zombie holds chain into a livelock where no
// attempt can prepare inside the compensating node's ack window.
//
// A prepared branch left undecided for staleAfter starts querying its
// decider (a decider that never saw the prepare fences it and answers
// abort), then re-asks on RetryInterval — one pquery timer.

// branchState is the lifecycle position of one branch.
type branchState int

const (
	// branchExecuting: the driver is running the compensation list
	// (possibly blocked on resource locks).
	branchExecuting branchState = iota + 1
	// branchExecutingAborted: an abort verdict overtook the
	// still-running execution; the branch must abort instead of
	// preparing.
	branchExecutingAborted
	// branchPrepared: durably prepared and acknowledged; awaiting the
	// decider's verdict.
	branchPrepared
	// branchInDoubt: a crash-surviving branch record with no live
	// transaction; resolution replays or drops the durable record.
	branchInDoubt
	// branchShipped: the compensator's RCE list awaits its exec ack.
	branchShipped
)

// branch is one transaction's branch here: an RCE party's, a hand-off's
// source branch, or a compensator's shipped list.
type branch struct {
	state   branchState
	peer    string // the other end of the exec round: the compensator, or the party
	decider string // the node whose verdict settles the branch
	ops     int64  // compensation entries in the branch (metrics)
	timer   string // its one timer ID, built once: pquery|<txn> or pexec|<txn>
}

// rceShipped arms a shipped list's exec-ack timeout and sends it.
func (m *Machine) rceShipped(e RCEShipped) []Effect {
	b := &branch{state: branchShipped, peer: e.To, decider: e.Decider, timer: timerExec + "|" + e.TxnID}
	m.branches[e.TxnID] = b
	effs := append(make([]Effect, 0, 2), m.arm(b.timer, m.cfg.AckTimeout)...)
	return append(effs, SendMsg{To: e.To, Kind: KindRCEExec, Payload: &RCEExecMsg{TxnID: e.TxnID, Decider: e.Decider, Ops: e.Ops}})
}

// execAcked ends a shipped list on its party's ack, disarming the timeout.
func (m *Machine) execAcked(e AckReceived) []Effect {
	b, ok := m.branches[e.TxnID]
	if !ok || b.state != branchShipped || b.peer != e.From {
		return nil
	}
	delete(m.branches, e.TxnID)
	return m.disarm(append(make([]Effect, 0, 2), ExecAcked{TxnID: e.TxnID, OK: e.OK, Err: e.Err}), b)
}

// rceExecReceived starts (or deduplicates) a branch execution.
func (m *Machine) rceExecReceived(e RCEExecReceived) []Effect {
	switch {
	case !m.ready:
		return []Effect{execAck(e.From, e.TxnID, false, "node recovering")}
	case e.Decider == "":
		return []Effect{execAck(e.From, e.TxnID, false, "no decider named")}
	case Origin(e.TxnID) == m.cfg.Node:
		// This node's part of its own transaction is its hand-off's
		// branch (source.go); a compensating node runs its local entries
		// inside the transaction and never ships them to itself.
		return []Effect{execAck(e.From, e.TxnID, false, "own transaction")}
	}
	if b, ok := m.branches[e.TxnID]; ok {
		switch b.state {
		case branchExecuting, branchExecutingAborted:
			return nil // already executing; its ack will answer the retry too
		case branchPrepared:
			// Duplicate request (lost ack): already prepared.
			return []Effect{execAck(e.From, e.TxnID, true, "")}
		case branchInDoubt:
			// The compensating node is retrying an execution whose previous
			// incarnation prepared durably before a crash; fall through
			// to a fresh execution under the same transaction ID.
		}
	}
	m.branches[e.TxnID] = &branch{state: branchExecuting, peer: e.From, decider: e.Decider, ops: int64(len(e.Ops)), timer: queryTimer(e.TxnID)}
	// A query timer of the previous incarnation finds the branch
	// executing at its next fire, and does nothing.
	return []Effect{ExecBranch{TxnID: e.TxnID, Decider: e.Decider, Ops: e.Ops}}
}

// branchPrepared lands the driver's execution result on the current
// state. The abort-overtook-execution edge resolves here: the branch
// was prepared durably, but its transaction already aborted, so it is
// aborted (releasing its locks) instead of being registered — and the
// compensating node is told so.
func (m *Machine) branchPrepared(e BranchPrepared) []Effect {
	b, ok := m.branches[e.TxnID]
	if !ok {
		// No state at all (the verdict already settled everything);
		// the stray parked transaction is aborted so it cannot sit on
		// its locks.
		if e.OK {
			return m.settle(e.TxnID, nil, false, "")
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
		return []Effect{execAck(b.peer, e.TxnID, false, e.Err)}
	}
	if b.state == branchExecutingAborted {
		// The transaction aborted while the compensations were running
		// (lock waits make that window wide). Registering the branch
		// now would create a zombie: prepared, lock-holding, and
		// already aborted.
		delete(m.branches, e.TxnID)
		return append(m.settle(e.TxnID, b, false, ""), execAck(b.peer, e.TxnID, false, "aborted during execution"))
	}
	b.state = branchPrepared
	effs := []Effect{CountCompOps{N: b.ops}, execAck(b.peer, e.TxnID, true, "")}
	return append(effs, m.arm(b.timer, m.cfg.staleAfter())...)
}

func execAck(to, txnID string, ok bool, reason string) Effect {
	return SendMsg{To: to, Kind: KindRCEExecAck, Payload: &AckMsg{TxnID: txnID, OK: ok, Err: reason}}
}

// partyVerdict applies a verdict from From to this node's branch of
// txnID and acknowledges a commit, which the decider keeps re-sending
// until it has the acknowledgement.
func (m *Machine) partyVerdict(txnID, from string, commit bool) []Effect {
	effs := m.resolveBranch(txnID, commit)
	if !commit || from == "" {
		return effs
	}
	return append(effs, SendMsg{To: from, Kind: KindOutcomeAck, Payload: &AckMsg{TxnID: txnID, OK: true}})
}

// resolveBranch applies a verdict to whatever branch state exists: a
// prepared or recovered branch goes; a still-running execution stays,
// poisoned by an abort so it aborts instead of preparing (its execution
// is typically blocked on a resource lock).
func (m *Machine) resolveBranch(txnID string, commit bool) []Effect {
	b := m.branches[txnID]
	if b != nil {
		switch {
		case b.state == branchPrepared || b.state == branchInDoubt:
			delete(m.branches, txnID)
		case b.state == branchExecuting && !commit:
			b.state = branchExecutingAborted
		}
	}
	return m.settle(txnID, b, commit, "")
}

// recoveredBranch replays a crash-surviving in-doubt branch record, a
// hand-off's or an RCE party's: query its decider immediately, then on
// the usual cadence. Live branch state outranks the replay — a record
// surviving next to a live execution or prepared transaction is that
// transaction's own record.
func (m *Machine) recoveredBranch(e RecoveredBranch) []Effect {
	if b, ok := m.branches[e.TxnID]; ok && b.state != branchInDoubt {
		return nil
	}
	b := &branch{state: branchInDoubt, decider: e.Decider, timer: queryTimer(e.TxnID)}
	m.branches[e.TxnID] = b
	return m.query(e.TxnID, b)
}
