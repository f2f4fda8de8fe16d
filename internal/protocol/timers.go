package protocol

import (
	"slices"
	"time"
)

// Control-plane timers. One wheel timer per in-flight transaction
// means 10k armed timers and 10k single-message resend frames per
// interval at 10k in-flight transactions — the ack/resend saturation
// the PR-6 in-flight sweep measured. Instead there is one timer per
// (peer, class): every obligation of one class headed to the same peer
// shares a timer and drains as one multi-transaction frame, so armed
// timers scale O(peers) and resend traffic O(peers · classes) instead
// of O(txns).
//
// Mechanics: each (class, peer) slot keeps a two-bucket due-list. An
// enqueue lands in `due` and arms the wheel timer when the slot is idle,
// in `pending` when a timer is already ticking. A fire drains `due`,
// promotes `pending`, filters every drained entry against the
// authoritative role maps (decided/delegs/branches/done) and emits the
// survivors together: queries as one query.batch frame (a single
// survivor goes out as the plain txn.query), verdicts and done resends
// as plain messages the driver sends in one batch. Survivors re-enqueue
// (re-arming the timer); an entry therefore fires between 1× and 2× its
// interval after enqueue, never early.
//
// Removal is lazy: resolving a transaction does NOT cancel anything.
// The next fire filters the dead entry out, and a slot whose buckets
// empty is deleted without re-arming — so a quiescent machine goes
// silent within one interval, which is what the fuzz quiescence
// invariant (fire every armed timer, demand no re-arm) pins.
//
// Timer IDs are "<class>|<peer>". Classes:
const (
	// timerPeerCtl coalesces a decider's commit-verdict resends per RCE
	// party.
	timerPeerCtl = "pctl"
	// timerPeerQuery coalesces in-doubt queries — hand-offs waiting on
	// their decider, recovered/stale RCE branches — per peer asked.
	timerPeerQuery = "pquery"
	// timerPeerStale coalesces the StaleAfter threshold of prepared
	// branches per decider; a fire hands the still-prepared branches to
	// timerPeerQuery.
	timerPeerStale = "pstale"
	// timerPeerDone coalesces completion-notification resends per owner
	// peer.
	timerPeerDone = "pdone"
)

// dueEntry is one coalesced timer obligation: the transaction (or agent)
// it tracks plus a class-specific discriminator.
type dueEntry struct {
	id  string // txn ID (ctl/query/stale) or agent ID (done)
	aux string // query: what the entry tracks
}

// dueEntry aux values of query entries.
const (
	auxDeleg  = "deleg"  // a hand-off waiting on its decider
	auxBranch = "branch" // a prepared/in-doubt RCE branch
)

// peerSched is the two-bucket due-list of one (class, peer) slot.
type peerSched struct {
	armed   bool
	due     []dueEntry // drained by the next fire
	pending []dueEntry // enqueued while armed; promoted on fire
	queued  map[dueEntry]struct{}
}

// enqueue registers one obligation on the (class, peer) slot, arming the
// shared wheel timer when the slot was idle. Duplicate entries (already
// queued in either bucket) are no-ops, so retry-pressure events cannot
// multiply timer load.
func (m *Machine) enqueue(class, peer string, e dueEntry, interval time.Duration) []Effect {
	key := timerID(class, peer)
	ps := m.scheds[key]
	if ps == nil {
		ps = &peerSched{queued: make(map[dueEntry]struct{})}
		m.scheds[key] = ps
	}
	if _, ok := ps.queued[e]; ok {
		return nil
	}
	ps.queued[e] = struct{}{}
	if !ps.armed {
		ps.armed = true
		ps.due = append(ps.due, e)
		return []Effect{ArmTimer{ID: key, D: interval}}
	}
	ps.pending = append(ps.pending, e)
	return nil
}

// takeDue drains the due bucket of one (class, peer) slot — the entries
// enqueued at least one full interval ago — returning only the entries
// still live, and promotes the still-live pending entries into the due
// bucket. Dead entries in either bucket are dropped on the spot, so a
// fire on fully dead state leaves the slot empty and nothing re-arms
// (the fuzz quiescence invariant). The caller emits for the survivors
// and re-enqueues them (which re-arms); rearm covers the promoted
// bucket when no survivor did.
func (m *Machine) takeDue(class, peer string, live func(dueEntry) bool) []dueEntry {
	ps := m.scheds[timerID(class, peer)]
	if ps == nil {
		return nil
	}
	var fired []dueEntry
	for _, e := range ps.due {
		delete(ps.queued, e)
		if live(e) {
			fired = append(fired, e)
		}
	}
	var promoted []dueEntry
	for _, e := range ps.pending {
		if live(e) {
			promoted = append(promoted, e)
		} else {
			delete(ps.queued, e)
		}
	}
	ps.due = promoted
	ps.pending = nil
	ps.armed = false
	return fired
}

// rearm re-arms the (class, peer) timer when promoted entries remain
// after a fire whose survivors did not re-arm it, and garbage-collects a
// fully drained slot.
func (m *Machine) rearm(class, peer string, interval time.Duration) []Effect {
	key := timerID(class, peer)
	ps := m.scheds[key]
	if ps == nil {
		return nil
	}
	if !ps.armed {
		if len(ps.due) > 0 {
			ps.armed = true
			return []Effect{ArmTimer{ID: key, D: interval}}
		}
		delete(m.scheds, key)
	}
	return nil
}

// peerCtlTimer re-sends every commit verdict one RCE party has not
// acknowledged, as plain q.outcome messages the driver sends in one
// batch. A verdict stays live while its record lists the party as
// pending; acknowledged or collected entries drop out lazily.
func (m *Machine) peerCtlTimer(peer string) []Effect {
	fired := m.takeDue(timerPeerCtl, peer, func(e dueEntry) bool {
		r, ok := m.decided[e.id]
		return ok && slices.Contains(r.pending, peer)
	})
	var sends, effs []Effect
	for _, e := range fired {
		sends = append(sends, outcome(peer, e.id, true))
		effs = append(effs, m.enqueue(timerPeerCtl, peer, e, m.cfg.RetryInterval)...)
	}
	effs = append(effs, m.rearm(timerPeerCtl, peer, m.cfg.RetryInterval)...)
	return append(sends, effs...)
}

// peerQueryTimer re-asks one decider about every in-doubt entry this
// node still tracks for it — hand-offs and RCE branches it decides —
// deduplicated per transaction, as a single frame.
func (m *Machine) peerQueryTimer(peer string) []Effect {
	fired := m.takeDue(timerPeerQuery, peer, func(e dueEntry) bool { return m.queryLive(peer, e) })
	var txns []string
	seen := map[string]bool{}
	var effs []Effect
	for _, e := range fired {
		if !seen[e.id] {
			seen[e.id] = true
			txns = append(txns, e.id)
		}
		effs = append(effs, m.enqueue(timerPeerQuery, peer, e, m.cfg.RetryInterval)...)
	}
	effs = append(effs, m.rearm(timerPeerQuery, peer, m.cfg.RetryInterval)...)
	return append(m.querySend(peer, txns), effs...)
}

// queryLive reports whether an in-doubt query obligation still matters:
// the delegation or the branch still waits on peer's verdict.
func (m *Machine) queryLive(peer string, e dueEntry) bool {
	switch e.aux {
	case auxDeleg:
		d, ok := m.delegs[e.id]
		return ok && d.decider == peer
	case auxBranch:
		b, ok := m.branches[e.id]
		return ok && (b.state == branchPrepared || b.state == branchInDoubt) && b.decider == peer
	}
	return false
}

// querySend emits the in-doubt queries for txns as one frame (the plain
// single-transaction query when only one survived). A branch whose
// decider is this node asks it here, without a message.
func (m *Machine) querySend(peer string, txns []string) []Effect {
	if peer == m.cfg.Node {
		var effs []Effect
		for _, id := range txns {
			effs = append(effs, m.queryReceived(QueryReceived{TxnID: id, From: peer})...)
		}
		return effs
	}
	switch len(txns) {
	case 0:
		return nil
	case 1:
		return []Effect{SendMsg{To: peer, Kind: KindTxnQuery, Payload: &CtlMsg{TxnID: txns[0]}}}
	default:
		return []Effect{SendMsg{To: peer, Kind: KindQueryBatch, Payload: &QueryBatchMsg{TxnIDs: txns}}}
	}
}

// peerStaleTimer fires the StaleAfter threshold for prepared branches
// one peer decides: every branch still prepared starts the query
// cadence (an immediate query, then RetryInterval re-asks via
// timerPeerQuery).
func (m *Machine) peerStaleTimer(peer string) []Effect {
	fired := m.takeDue(timerPeerStale, peer, func(e dueEntry) bool {
		b, ok := m.branches[e.id]
		return ok && b.state == branchPrepared && b.decider == peer
	})
	var txns []string
	var effs []Effect
	for _, e := range fired {
		txns = append(txns, e.id)
		effs = append(effs, m.enqueue(timerPeerQuery, peer, dueEntry{id: e.id, aux: auxBranch}, m.cfg.RetryInterval)...)
	}
	effs = append(effs, m.rearm(timerPeerStale, peer, m.cfg.StaleAfter)...)
	return append(m.querySend(peer, txns), effs...)
}

// peerDoneTimer resends every undelivered completion notification headed
// to one owner. The resends are ResendDone effects (the driver re-reads
// the durable record), so there is no batch wire kind here — the
// driver's per-destination outbound batch already coalesces the frames.
func (m *Machine) peerDoneTimer(peer string) []Effect {
	fired := m.takeDue(timerPeerDone, peer, func(e dueEntry) bool { return m.done[e.id] == peer })
	var effs []Effect
	for _, e := range fired {
		effs = append(effs, ResendDone{AgentID: e.id})
		effs = append(effs, m.enqueue(timerPeerDone, peer, e, m.cfg.RetryInterval)...)
	}
	return append(effs, m.rearm(timerPeerDone, peer, m.cfg.RetryInterval)...)
}

// SchedSlots reports the number of (class, peer) timer slots the machine
// currently tracks; tests use it to pin the O(peers) bound.
func (m *Machine) SchedSlots() int { return len(m.scheds) }
