package node

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/txn"
)

// Commit driver shims. The decision logic — who decides, how queries
// are answered, which messages go out and when they stop being resent —
// lives in the protocol machine's roles; these helpers only sequence the
// worker's blocking calls (register a waiter, feed the event, await the
// answer).

// crashAt, when set, is asked at each durable point of a distributed
// transaction (the point* constants); true means the process dies there:
// the caller stops without another write or send, and blocks until the
// node is stopped. Crash tests set it; it is nil otherwise.
var crashAt func(node, point string) bool

// The durable points of a distributed transaction, in order.
const (
	pointPartyPrepared    = "party-prepared"    // RCE branch durable, exec ack not sent
	pointSourcePrepared   = "source-prepared"   // branch durable, prepare not sent
	pointDeciderCommitted = "decider-committed" // entry and record durable, outcome not sent
	pointDeciderRecorded  = "decider-recorded"  // record with parties durable, party verdicts not sent
	pointSourceDecided    = "source-decided"    // outcome received, branch not settled
)

// crashed reports whether the process dies at point (see crashAt), and
// if so waits for the node to be stopped.
func (n *Node) crashed(point string) bool {
	if crashAt == nil || !crashAt(n.cfg.Name, point) {
		return false
	}
	<-n.stop
	return true
}

// errStopped reports that the node stopped while a worker waited.
var errStopped = errors.New("node: stopped")

// handOff finishes a transaction whose container moves to dest, which
// decides it (DESIGN.md §5): the transaction is prepared as a branch
// naming dest, the container goes out in one message listing the RCE
// parties (Figure 5b), and the outcome commits or aborts the branch; the
// parties hear it from dest. count (may be nil) is the caller's metric
// hook: count(1) runs before the prepare leaves, because dest may make
// the agent visible — and its owner snapshot metrics — before the
// outcome is back, and count(-1) takes it back if dest refused or never
// saw the hand-off.
func (n *Node) handOff(tx *txn.Tx, dest, entryID string, data []byte, parts []string, count func(int64)) error {
	if err := tx.PrepareDelegated(dest); err != nil {
		n.abort(tx, parts)
		return fmt.Errorf("node %s: hand-off to %s: %w", n.cfg.Name, dest, err)
	}
	if n.crashed(pointSourcePrepared) {
		return errStopped
	}
	if count != nil {
		count(1)
	}
	ch := n.registerWaiter(protocol.KindOutcome, tx.ID())
	n.step(protocol.Delegate{TxnID: tx.ID(), Decider: dest, EntryID: entryID, Data: data, Mark: n.mgr.Mark(), Parties: parts})
	out, err := n.awaitOutcome(ch, tx.ID())
	if err != nil || n.crashed(pointSourceDecided) {
		// Stopped: the branch stays prepared and recovery asks dest.
		return errStopped
	}
	if !out.OK {
		if count != nil {
			count(-1)
		}
		if out.Err != "" {
			// Nothing left: dest is down or cut off, and the parties
			// hear the abort from here. The attempt still costs
			// AckTimeout, what an unanswered prepare waits, so
			// MaxAttempts attempts span MaxAttempts × AckTimeout of
			// outage rather than a few retry delays.
			n.abort(tx, parts)
			return n.pause(fmt.Errorf("node %s: hand-off to %s: %s", n.cfg.Name, dest, out.Err))
		}
		_ = tx.Abort()
		n.sendResolved(dest)
		return fmt.Errorf("node %s: hand-off to %s refused", n.cfg.Name, dest)
	}
	if err := tx.CommitPrepared(); err != nil {
		// dest has committed: the branch must follow. The record is
		// durable, so replay it.
		if err := n.mgr.ResolveBranch(tx.ID(), true); err != nil {
			n.cfg.Logger.Error("hand-off committed at its decider, branch not settled",
				"node", n.cfg.Name, "txn", tx.ID(), "decider", dest, "err", err)
		}
	}
	n.sendResolved(dest)
	return nil
}

// abort aborts tx before any prepare of it left this node, and tells its
// RCE parties at once (LocalDecided): nothing but a decider's write of
// that prepare could commit the transaction, and none will come. Without
// parties it is a plain abort.
func (n *Node) abort(tx *txn.Tx, parts []string) {
	_ = tx.Abort()
	if len(parts) > 0 {
		n.step(protocol.LocalDecided{TxnID: tx.ID(), Parties: parts})
	}
}

// awaitOutcome blocks for a hand-off's verdict. Past AckTimeout the
// source is in doubt: it asks the decider once, the machine re-asks on
// its query timer, and the worker keeps waiting — the branch cannot
// settle without the verdict.
func (n *Node) awaitOutcome(ch chan protocol.AckMsg, txnID string) (protocol.AckMsg, error) {
	timeout, cancel := network.ClockTimer(n.clock, n.cfg.AckTimeout)
	defer cancel()
	for {
		select {
		case msg := <-ch:
			return msg, nil
		case <-timeout:
			timeout = nil
			n.step(protocol.DelegationStale{TxnID: txnID})
		case <-n.stop:
			n.dropWaiter(protocol.KindOutcome, txnID)
			return protocol.AckMsg{}, errStopped
		}
	}
}

// pause returns err after AckTimeout, or at once when the node stops.
func (n *Node) pause(err error) error {
	timeout, cancel := network.ClockTimer(n.clock, n.cfg.AckTimeout)
	defer cancel()
	select {
	case <-timeout:
	case <-n.stop:
	}
	return err
}

// sendResolved tells a decider this node's current mark (q.resolved).
func (n *Node) sendResolved(to string) {
	var b outBatch
	n.sendResolvedInto(&b, to)
	b.flush(n)
}

// sendResolvedInto is sendResolved joining batch b. The message parks in
// the piggyback hold buffer (piggybackKind) when the wheel runs.
func (n *Node) sendResolvedInto(b *outBatch, to string) {
	n.sendTo(b, to, protocol.KindResolved, &protocol.MarkMsg{Mark: n.mgr.Mark()})
}

// shipRCE sends a resource-compensation-entry list to the resource node
// (Figure 5b), naming the transaction's decider; the party acknowledges
// once its branch is durably prepared. The caller awaits the returned
// channel after running its own agent compensation entries concurrently.
func (n *Node) shipRCE(tx *txn.Tx, dest, decider string, ops []*core.OpEntry) chan protocol.AckMsg {
	ch := n.registerWaiter(protocol.KindRCEExecAck, tx.ID())
	var b outBatch
	n.sendTo(&b, dest, protocol.KindRCEExec, &protocol.RCEExecMsg{TxnID: tx.ID(), Decider: decider, Ops: ops})
	b.flush(n)
	return ch
}

// commitDistributed finishes a transaction this node decides itself (the
// container stays here, or there is none): one local commit. With RCE
// parties its outcome record joins the commit batch, and a commit hook
// hands the verdict to the machine — which sends it to the parties —
// before the transaction leaves this node's open set, so no query can
// see the mark pass it before the record is known.
//
// count (may be nil) runs as count(1) immediately before the commit is
// applied: metric increments belong there, because the instant the
// commit lands its effects are visible to concurrent workers and remote
// nodes — a counter bumped *after* could be missed by a snapshot taken on
// completion of the chain this commit enables. A commit that fails takes
// the count back with count(-1).
func (n *Node) commitDistributed(tx *txn.Tx, parts []string, count func(int64)) error {
	if len(parts) > 0 {
		tx.AddCommitOps(txn.OutcomeOp(tx.ID(), true, 0, parts))
		tx.OnCommit(func() {
			if !n.crashed(pointDeciderRecorded) {
				n.step(protocol.LocalDecided{TxnID: tx.ID(), Commit: true, Parties: parts})
			}
		})
	}
	if count != nil {
		count(1)
	}
	if err := tx.Commit(); err != nil {
		if count != nil {
			count(-1)
		}
		n.abort(tx, parts)
		return fmt.Errorf("node %s: commit: %w", n.cfg.Name, err)
	}
	return nil
}
