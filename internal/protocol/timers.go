package protocol

import "time"

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
// authoritative role maps (coord/staged/branches/done) and emits one
// batched frame for the survivors — a single survivor goes out as the
// plain per-transaction message. Survivors re-enqueue (re-arming the
// timer); an entry therefore fires between 1× and 2× its interval
// after enqueue, never early.
//
// Removal is lazy: resolving a transaction does NOT cancel anything.
// The next fire filters the dead entry out, and a slot whose buckets
// empty is deleted without re-arming — so a quiescent machine goes
// silent within one interval, which is what the fuzz quiescence
// invariant (fire every armed timer, demand no re-arm) pins.
//
// Timer IDs are "<class>|<peer>". Classes:
const (
	// timerPeerCtl coalesces the coordinator's commit-control resends
	// per participant peer.
	timerPeerCtl = "pctl"
	// timerPeerQuery coalesces in-doubt queries — staged entries and
	// recovered/stale branches — per coordinator peer.
	timerPeerQuery = "pquery"
	// timerPeerStale coalesces the StaleAfter threshold of prepared
	// branches per coordinator peer; a fire hands the still-prepared
	// branches to timerPeerQuery.
	timerPeerStale = "pstale"
	// timerPeerDone coalesces completion-notification resends per owner
	// peer.
	timerPeerDone = "pdone"
)

// dueEntry is one coalesced timer obligation: the transaction (or agent)
// it tracks plus a class-specific discriminator.
type dueEntry struct {
	id  string // txn ID (ctl/query/stale) or agent ID (done)
	aux string // ctl: participant kind; query: entry source
}

// dueEntry aux values.
const (
	auxQueue  = "q"      // ctl entry drives a staged-queue participant
	auxRCE    = "rce"    // ctl entry drives an RCE-branch participant
	auxStaged = "staged" // query entry tracks a staged queue entry
	auxBranch = "branch" // query entry tracks a prepared/in-doubt branch
)

func partAux(k PartKind) string {
	if k == PartRCE {
		return auxRCE
	}
	return auxQueue
}

func auxPart(aux string) PartKind {
	if aux == auxRCE {
		return PartRCE
	}
	return PartQueue
}

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

// peerCtlTimer resends every still-pending commit control headed to one
// participant peer as a single frame. Controls are live while the
// coordinator transaction still holds the matching pending obligation;
// acked or re-decided entries drop out lazily.
func (m *Machine) peerCtlTimer(peer string) []Effect {
	fired := m.takeDue(timerPeerCtl, peer, func(e dueEntry) bool {
		c, ok := m.coord[e.id]
		return ok && c.pending[Participant{Node: peer, Kind: auxPart(e.aux)}]
	})
	var items []CtlBatchItem
	var effs []Effect
	for _, e := range fired {
		items = append(items, CtlBatchItem{TxnID: e.id, RCE: e.aux == auxRCE, Commit: true})
		effs = append(effs, m.enqueue(timerPeerCtl, peer, e, m.cfg.RetryInterval)...)
	}
	effs = append(effs, m.rearm(timerPeerCtl, peer, m.cfg.RetryInterval)...)
	switch len(items) {
	case 0:
		return effs
	case 1:
		// A lone survivor travels as the plain per-transaction control.
		p := Participant{Node: peer, Kind: PartQueue}
		if items[0].RCE {
			p.Kind = PartRCE
		}
		send := SendMsg{To: peer, Kind: p.ctlKind(true), Payload: &CtlMsg{TxnID: items[0].TxnID}}
		return append([]Effect{send}, effs...)
	default:
		send := SendMsg{To: peer, Kind: KindCtlBatch, Payload: &CtlBatchMsg{Items: items}}
		return append([]Effect{send}, effs...)
	}
}

// peerQueryTimer re-asks one coordinator about every in-doubt entry this
// node still tracks for it: staged queue entries and prepared/in-doubt
// branches, deduplicated per transaction, as a single frame.
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
// the staged entry (or branch) exists and peer is still its coordinator.
func (m *Machine) queryLive(peer string, e dueEntry) bool {
	switch e.aux {
	case auxStaged:
		co, ok := m.staged[e.id]
		return ok && co == peer
	case auxBranch:
		b, ok := m.branches[e.id]
		return ok && (b.state == branchPrepared || b.state == branchInDoubt) &&
			Coordinator(e.id) == peer
	}
	return false
}

// querySend emits the in-doubt queries for txns as one frame (the plain
// single-transaction query when only one survived).
func (m *Machine) querySend(peer string, txns []string) []Effect {
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
// coordinated by one peer: every branch still prepared starts the query
// cadence (an immediate query, then RetryInterval re-asks via
// timerPeerQuery).
func (m *Machine) peerStaleTimer(peer string) []Effect {
	fired := m.takeDue(timerPeerStale, peer, func(e dueEntry) bool {
		b, ok := m.branches[e.id]
		return ok && b.state == branchPrepared && Coordinator(e.id) == peer
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
