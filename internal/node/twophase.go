package node

import (
	"errors"
	"fmt"

	"repro/internal/protocol"
	"repro/internal/sched"
	"repro/internal/stable"
	"repro/internal/txn"
)

// Commit driver shims. The decision logic — who decides, how queries
// are answered, which messages go out and when they stop being resent —
// lives in the protocol machine's roles; these helpers only sequence the
// worker's calls (prepare, park, feed the event).

// crashAt, when set, is asked at each durable point of a distributed
// transaction (the point* constants); true means the process dies there:
// the caller stops without another write or send, and blocks until the
// node is stopped. At source-held and comp-held the worker sends its
// prepare or RCE list and returns, with nothing left to write or send, so
// a hook that kills a node there answers true at its later points until
// it is stopped. Crash tests set it; it is nil otherwise.
var crashAt func(node, point string) bool

// The durable points of a distributed transaction, in order.
const (
	pointCompHeld         = "comp-held"         // RCE list leaving, worker returning, exec ack not in
	pointPartyPrepared    = "party-prepared"    // RCE branch durable, exec ack not sent
	pointSourcePrepared   = "source-prepared"   // branch durable, prepare not sent
	pointSourceHeld       = "source-held"       // prepare leaving, worker returning, outcome not settled
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

// errStopped ends an attempt whose node died at a crash point (crashAt).
var errStopped = errors.New("node: stopped")

// handOff finishes a transaction whose container moves to dest, which
// decides it (DESIGN.md §5): the transaction is prepared as a branch
// naming dest, parked with this node's driver, and the container goes out
// in one message listing the RCE parties (Figure 5b). The worker does not
// wait for the outcome: handOff returns sched.Held, and the branch keeps
// its locks until the verdict settles it (settleBranch), which ends the
// attempt on entry with done's mapping of the result — nil once
// committed. The parties hear the verdict from dest. count is the
// caller's metric hook: count(1) runs before the prepare leaves,
// because dest may make the agent visible — and its owner snapshot
// metrics — before the outcome is back, and count(-1) takes it back if
// dest refused or never saw the hand-off.
func (n *Node) handOff(entry *stable.Entry, tx *txn.Tx, dest, agentID string, data []byte, parts []string, count func(int64), done func(error) error) error {
	if err := tx.PrepareDelegated(dest); err != nil {
		n.abort(tx, parts)
		return done(fmt.Errorf("node %s: hand-off to %s: %w", n.cfg.Name, dest, err))
	}
	if n.crashed(pointSourcePrepared) {
		return errStopped
	}
	count(1)
	pool := n.pool
	return n.hold(tx, pointSourceHeld, protocol.Delegate{TxnID: tx.ID(), Decider: dest, EntryID: agentID, Data: data, Mark: n.mgr.Mark(), Parties: parts}, func(commit bool, reason string) {
		var err error
		switch {
		case reason != "":
			// Nothing left: dest is down or cut off, and the parties
			// hear the abort from here. The retry waits AckTimeout, what
			// an unanswered prepare waits, so MaxAttempts attempts span
			// MaxAttempts × AckTimeout of outage rather than a few retry
			// delays.
			n.abort(tx, parts)
			err = &sched.Backoff{Err: fmt.Errorf("node %s: hand-off to %s: %s", n.cfg.Name, dest, reason), D: n.cfg.AckTimeout}
		case !commit:
			err = fmt.Errorf("node %s: hand-off to %s refused", n.cfg.Name, dest)
		}
		if err != nil {
			count(-1)
		}
		pool.Settle(entry, done(err))
	})
}

// hold parks tx with then, which the answer to ev runs, and steps ev: the
// worker returns sched.Held. Parked first, no answer can find it missing;
// point is asked before ev's message leaves.
func (n *Node) hold(tx *txn.Tx, point string, ev protocol.Event, then func(ok bool, reason string)) error {
	n.parkBranch(tx.ID(), parked{tx: tx, then: then})
	if crashAt != nil {
		crashAt(n.cfg.Name, point)
	}
	n.step(ev)
	return sched.Held
}

// abort aborts tx before any prepare of it reached a decider, and tells
// its RCE parties at once (LocalDecided): nothing but a decider's write
// of that prepare could commit the transaction, and none will come.
// Without parties it is a plain abort. Aborting twice is harmless.
func (n *Node) abort(tx *txn.Tx, parts []string) {
	_ = tx.Abort()
	if len(parts) > 0 {
		n.step(protocol.LocalDecided{TxnID: tx.ID(), Parties: parts})
	}
}

// sendResolvedInto tells a decider this node's current mark (q.resolved)
// in batch b. The message parks in the piggyback hold buffer
// (piggybackKind) when the wheel runs.
func (n *Node) sendResolvedInto(b *outBatch, to string) {
	n.sendTo(b, to, protocol.KindResolved, &protocol.MarkMsg{Mark: n.mgr.Mark()})
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
