package protocol

import (
	"strings"
	"time"
)

// Control-plane timers: one wheel timer per obligation, the textbook
// presumed-abort retry (Mohan, Lindsay & Obermarck, R*, TODS 1986). An
// obligation is something this node must re-send until it is answered:
// a commit to the RCE parties that have not acknowledged it, a query
// from an in-doubt source or party, the StaleAfter threshold of a
// hand-off or a prepared branch, a completion record to its owner.
//
// A fire checks the obligation against the role maps
// (decided/branches/done). A live one sends its plain message and
// re-arms; a dead one does nothing, so a quiescent machine goes silent
// within one interval — what the fuzz quiescence invariant (fire every
// armed timer, demand no re-arm) pins. Retirement is lazy — resolving an
// obligation cancels nothing, the next fire finds it dead — except for
// the stale timer: one is armed per hand-off, so the verdict disarms it
// (CancelTimer) and a healthy hand-off leaves nothing armed.
//
// The machine remembers which timers are armed, so registering a live
// obligation again (a replayed branch) adds no timer and does not
// postpone the armed one's fire. A fire of a timer that is not armed — a
// stale or foreign ID — is ignored.
//
// Timer IDs are "<class>|<txn>" ("<class>|<agent>" for pdone). Classes:
const (
	// timerCtl re-sends a decider's commit to every party that has not
	// acknowledged it.
	timerCtl = "pctl"
	// timerQuery re-asks the decider about a hand-off or an RCE branch
	// still in doubt here.
	timerQuery = "pquery"
	// timerStale is the StaleAfter threshold of a hand-off or a prepared
	// RCE branch: a fire on one still in doubt starts its queries.
	timerStale = "pstale"
	// timerDone re-sends a completion record to its owner.
	timerDone = "pdone"
)

// arm registers one obligation's timer unless it is already armed.
func (m *Machine) arm(class, id string, d time.Duration) []Effect {
	tid := class + "|" + id
	if m.armed[tid] {
		return nil
	}
	m.armed[tid] = true
	return []Effect{ArmTimer{ID: tid, D: d}}
}

// timerFired runs one armed obligation's fire: re-send and re-arm while
// it is live, nothing once it is dead.
func (m *Machine) timerFired(e TimerFired) []Effect {
	if !m.armed[e.ID] {
		return nil
	}
	delete(m.armed, e.ID)
	class, id, _ := strings.Cut(e.ID, "|")
	switch class {
	case timerCtl:
		r, ok := m.decided[id]
		if !ok || len(r.pending) == 0 {
			return nil
		}
		var effs []Effect
		for _, p := range r.pending {
			effs = append(effs, outcome(p, id, true))
		}
		return append(effs, m.arm(timerCtl, id, m.cfg.RetryInterval)...)
	case timerQuery, timerStale:
		if decider, ok := m.inDoubt(id); ok {
			return m.query(id, decider)
		}
	case timerDone:
		if owner := m.done[id]; owner != "" {
			return append([]Effect{ResendDone{AgentID: id}}, m.arm(timerDone, id, m.cfg.RetryInterval)...)
		}
	}
	return nil
}

// inDoubt returns the decider a query about txnID goes to: the one this
// node's prepared or recovered branch — a hand-off's or an RCE party's —
// waits on.
func (m *Machine) inDoubt(txnID string) (string, bool) {
	if b, ok := m.branches[txnID]; ok && (b.state == branchPrepared || b.state == branchInDoubt) {
		return b.decider, true
	}
	return "", false
}

// query asks decider about txnID now, as a plain txn.query, and registers
// the re-ask. A branch whose decider is this node asks it here, without
// a message.
func (m *Machine) query(txnID, decider string) []Effect {
	var effs []Effect
	if decider == m.cfg.Node {
		effs = m.queryReceived(QueryReceived{TxnID: txnID, From: decider})
	} else {
		effs = []Effect{SendMsg{To: decider, Kind: KindTxnQuery, Payload: &CtlMsg{TxnID: txnID}}}
	}
	return append(effs, m.arm(timerQuery, txnID, m.cfg.RetryInterval)...)
}
