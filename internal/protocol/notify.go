package protocol

// Notifier role: an agent's durable completion record must reach its
// owner reliably. The record is sent when written, resent on the
// per-owner timer, and garbage-collected on the owner's ack. Recovery
// replays surviving records through DoneRecorded as well — the states
// and edges are identical for the live and the recovered case.

func (m *Machine) doneRecorded(e DoneRecorded) []Effect {
	m.done[e.AgentID] = e.Owner
	effs := []Effect{ResendDone{AgentID: e.AgentID}}
	if e.Owner == "" {
		return effs // unroutable record; nothing to retry against
	}
	return append(effs, m.enqueue(timerPeerDone, e.Owner, dueEntry{id: e.AgentID}, m.cfg.RetryInterval)...)
}

// doneAcked garbage-collects the completion record. The record is
// dropped even when untracked (an ack can arrive after a crash erased
// the volatile state but before recovery replayed the record).
func (m *Machine) doneAcked(e DoneAcked) []Effect {
	delete(m.done, e.AgentID)
	return []Effect{DropDone{AgentID: e.AgentID}}
}
