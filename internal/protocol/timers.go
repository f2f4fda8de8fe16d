package protocol

import (
	"strings"
	"time"
)

// Control-plane timers: one wheel timer per obligation, the textbook
// presumed-abort retry (Mohan, Lindsay & Obermarck, R*, TODS 1986). An
// obligation is something this node must re-send until it is answered
// (or give up on): a commit to the RCE parties that have not acknowledged
// it, a query from an in-doubt source or party, a shipped RCE list's
// exec ack, a completion record to its owner.
//
// A fire checks the obligation against the role maps
// (decided/branches/done). A live one acts and re-arms; a dead one does
// nothing, so a quiescent machine goes silent within one interval — what
// the fuzz quiescence invariant (fire every armed timer, demand no
// re-arm) pins. Retirement is lazy — resolving an obligation cancels
// nothing, the next fire finds it dead — except for a branch's timer: one
// is armed per hand-off and per shipped list, so the verdict or the ack
// disarms it (CancelTimer) and a healthy hand-off leaves nothing armed.
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
	// timerQuery asks the decider about a hand-off or an RCE branch in
	// doubt here: staleAfter after the prepare, then every RetryInterval.
	timerQuery = "pquery"
	// timerExec gives up on a shipped RCE list whose exec ack has not
	// come within AckTimeout.
	timerExec = "pexec"
	// timerDone re-sends a completion record to its owner.
	timerDone = "pdone"
)

func queryTimer(txnID string) string { return timerQuery + "|" + txnID }

// arm registers one obligation's timer unless it is already armed.
func (m *Machine) arm(tid string, d time.Duration) []Effect {
	if m.armed[tid] {
		return nil
	}
	m.armed[tid] = true
	return []Effect{ArmTimer{ID: tid, D: d}}
}

// disarm appends the cancel of b's timer, if armed, to effs.
func (m *Machine) disarm(effs []Effect, b *branch) []Effect {
	if b == nil || !m.armed[b.timer] {
		return effs
	}
	delete(m.armed, b.timer)
	return append(effs, CancelTimer{ID: b.timer})
}

// timerFired runs one armed obligation's fire: act and re-arm while it
// is live, nothing once it is dead.
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
		return append(effs, m.arm(e.ID, m.cfg.RetryInterval)...)
	case timerQuery:
		if b, ok := m.branches[id]; ok && (b.state == branchPrepared || b.state == branchInDoubt) {
			return m.query(id, b)
		}
	case timerExec:
		if b, ok := m.branches[id]; ok && b.state == branchShipped {
			delete(m.branches, id)
			return []Effect{ExecAcked{TxnID: id, Err: "no exec ack within AckTimeout"}}
		}
	case timerDone:
		if owner := m.done[id]; owner != "" {
			return append([]Effect{ResendDone{AgentID: id}}, m.arm(e.ID, m.cfg.RetryInterval)...)
		}
	}
	return nil
}

// query asks b's decider about txnID now, as a plain txn.query, and
// registers the re-ask. A branch whose decider is this node asks it
// here, without a message.
func (m *Machine) query(txnID string, b *branch) []Effect {
	var effs []Effect
	if b.decider == m.cfg.Node {
		effs = m.queryReceived(QueryReceived{TxnID: txnID, From: b.decider})
	} else {
		effs = []Effect{SendMsg{To: b.decider, Kind: KindTxnQuery, Payload: &CtlMsg{TxnID: txnID}}}
	}
	return append(effs, m.arm(b.timer, m.cfg.RetryInterval)...)
}
