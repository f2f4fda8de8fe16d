package protocol

import "slices"

// Decider role: this node decides a distributed transaction — it
// receives the container of a hand-off, or it is the compensating node
// whose agent stays (LocalDecided) — for the source and for every RCE
// party of it. States per transaction:
//
//	(absent) --HandoffReceived--> deciding --HandoffDecided--> decided + q.outcome to source and parties
//	(absent) --QueryReceived(source or party)--> deciding (fence) --HandoffDecided--> decided
//	(absent) --LocalDecided(commit)--> decided + q.outcome to the parties
//	decided --HandoffReceived/QueryReceived--> decided + the recorded outcome again
//	decided --q.outcome.ack--> decided, the party no longer pending
//	decided --mark passed, no party pending--> (absent) + DropOutcomes
//
// Every abort this node answers is written first as a fence, so a copy
// of the prepare that arrives later gets the same abort back instead of
// committing an agent its source already re-ran. The source's mark is
// the lowest of its transactions not yet settled: below it the source
// will never ask again, so prepares below it are late duplicates
// (dropped), and a record below it goes once every party acknowledged
// its commit. DESIGN.md §5 has the argument.

// record is one decider record: a commit or a fence, and the parties
// that have not acknowledged the commit yet.
type record struct {
	commit  bool
	pending []string
}

// handoffReceived decides a hand-off, or answers a duplicate from the
// record.
func (m *Machine) handoffReceived(e HandoffReceived) []Effect {
	src := Origin(e.TxnID)
	if src != e.From || src == m.cfg.Node {
		return nil // not a hand-off this node can decide
	}
	effs := m.advanceMark(src, e.Mark)
	if r, ok := m.decided[e.TxnID]; ok {
		return append(effs, outcome(src, e.TxnID, r.commit))
	}
	seq, ok := seqOf(e.TxnID)
	if _, busy := m.deciding[e.TxnID]; !ok || busy || seq < m.marks[src] {
		return effs // being written, or a late copy nobody waits for
	}
	// A party's branch that is this node's own commits inside the
	// decider's write; one that is not (still) prepared here cannot.
	d := Decide{TxnID: e.TxnID, From: src, EntryID: e.EntryID, Data: e.Data, Commit: m.ready}
	for _, p := range e.Parties {
		if p != m.cfg.Node {
			d.Parties = append(d.Parties, p)
			continue
		}
		b, ok := m.branches[e.TxnID]
		d.Branch = true
		d.Commit = d.Commit && ok && b.state == branchPrepared
	}
	return append(effs, m.startDecide(d, e.Parties)...)
}

// queryReceived answers a source or a party asking about a transaction
// this node decides: the record; silence while the verdict is being
// written; abort below the source's mark; for its own transaction,
// silence while it may still run and abort after; and otherwise a fence
// first.
func (m *Machine) queryReceived(e QueryReceived) []Effect {
	if r, ok := m.decided[e.TxnID]; ok {
		return m.answer(e.From, e.TxnID, r.commit)
	}
	seq, ok := seqOf(e.TxnID)
	if _, busy := m.deciding[e.TxnID]; !ok || busy {
		return nil
	}
	switch src := Origin(e.TxnID); {
	case src == m.cfg.Node:
		if seq < e.Mark {
			return m.answer(e.From, e.TxnID, false)
		}
		return nil // the worker has not settled it; the party re-asks
	case seq < m.marks[src]:
		return m.answer(e.From, e.TxnID, false)
	case e.From == src:
		return m.startDecide(Decide{TxnID: e.TxnID, From: src}, nil)
	default:
		return m.startDecide(Decide{TxnID: e.TxnID, From: src}, []string{e.From})
	}
}

// startDecide starts writing d; tell are the parties its verdict goes
// to besides the source.
func (m *Machine) startDecide(d Decide, tell []string) []Effect {
	m.deciding[d.TxnID] = tell
	d.Mark = m.marks[d.From]
	if !d.Commit {
		d.Parties, d.Branch = nil, false
	}
	return []Effect{d}
}

// handoffDecided records a durable verdict and announces it.
func (m *Machine) handoffDecided(e HandoffDecided) []Effect {
	tell, ok := m.deciding[e.TxnID]
	if !ok {
		return nil
	}
	delete(m.deciding, e.TxnID)
	if !e.OK {
		return nil // nothing written; the asker asks again
	}
	r := &record{commit: e.Commit}
	m.decided[e.TxnID] = r
	effs := []Effect{outcome(Origin(e.TxnID), e.TxnID, e.Commit)}
	effs = append(effs, m.announce(e.TxnID, r, tell)...)
	return append(effs, m.collect(e.TxnID)...)
}

// localDecided announces the verdict on this node's own transaction.
// Only a commit is recorded: an abort is sent once, and a party that
// misses it asks and gets abort once this node's mark passes the ID.
func (m *Machine) localDecided(e LocalDecided) []Effect {
	r := &record{commit: e.Commit}
	if e.Commit {
		m.decided[e.TxnID] = r
	}
	return m.announce(e.TxnID, r, e.Parties)
}

// announce sends a verdict to the parties. A commit stays pending at
// each party until it acknowledges, re-sent on the transaction's timer.
// This node's own branch already committed inside the decider's write,
// or aborts now.
func (m *Machine) announce(txnID string, r *record, parties []string) []Effect {
	var effs []Effect
	for _, p := range parties {
		switch {
		case p == m.cfg.Node && r.commit:
			delete(m.branches, txnID)
		case p == m.cfg.Node:
			effs = append(effs, m.resolveBranch(txnID, false)...)
		case r.commit:
			r.pending = append(r.pending, p)
			effs = append(effs, outcome(p, txnID, true))
			effs = append(effs, m.arm(timerCtl+"|"+txnID, m.cfg.RetryInterval)...)
		default:
			effs = append(effs, outcome(p, txnID, false))
		}
	}
	return effs
}

// ackReceived routes an acknowledgement: an exec ack ends the shipped
// list it answers (rce.go); a party's q.outcome.ack retires its pending
// commit, and the last one collects the record once the source's mark
// has passed it.
func (m *Machine) ackReceived(e AckReceived) []Effect {
	switch e.Kind {
	case KindRCEExecAck:
		return m.execAcked(e)
	case KindOutcomeAck:
	default:
		return nil
	}
	r, ok := m.decided[e.TxnID]
	if !ok {
		return nil
	}
	i := slices.Index(r.pending, e.From)
	if i < 0 {
		return nil // duplicate or stale ack
	}
	// The resend timer finds the party gone at its next fire.
	r.pending = slices.Delete(r.pending, i, i+1)
	return m.collect(e.TxnID)
}

// recoveredOutcome rebuilds one record and the source's mark from it,
// and drives the parties it lists to commit again: which of them had
// acknowledged died with the crash.
func (m *Machine) recoveredOutcome(e RecoveredOutcome) []Effect {
	r := &record{commit: e.Commit}
	m.decided[e.TxnID] = r
	effs := m.announce(e.TxnID, r, e.Parties)
	return append(effs, m.advanceMark(Origin(e.TxnID), e.Mark)...)
}

// advanceMark raises the source's mark and collects every record below
// it that no party still waits on.
func (m *Machine) advanceMark(src string, mark uint64) []Effect {
	if mark <= m.marks[src] {
		return nil
	}
	m.marks[src] = mark
	var drop []string
	for id := range m.decided {
		if Origin(id) == src && m.collectable(id) {
			drop = append(drop, id)
			delete(m.decided, id)
		}
	}
	if len(drop) == 0 {
		return nil
	}
	slices.Sort(drop) // effects in a replayable order
	return []Effect{DropOutcomes{TxnIDs: drop}}
}

// collectable reports whether a record may go: no party is pending, and
// its source can no longer ask — its mark has passed the ID, or the
// transaction is this node's own, which it decided itself.
func (m *Machine) collectable(txnID string) bool {
	if len(m.decided[txnID].pending) > 0 {
		return false
	}
	src := Origin(txnID)
	seq, _ := seqOf(txnID)
	return src == m.cfg.Node || seq < m.marks[src]
}

// collect drops one record if it is collectable.
func (m *Machine) collect(txnID string) []Effect {
	if !m.collectable(txnID) {
		return nil
	}
	delete(m.decided, txnID)
	return []Effect{DropOutcomes{TxnIDs: []string{txnID}}}
}

// answer sends a verdict to one asker, or applies it here when this
// node asked itself (its own RCE branch names it as decider).
func (m *Machine) answer(to, txnID string, commit bool) []Effect {
	if to == m.cfg.Node {
		return m.resolveBranch(txnID, commit)
	}
	return []Effect{outcome(to, txnID, commit)}
}

func outcome(to, txnID string, commit bool) Effect {
	return SendMsg{To: to, Kind: KindOutcome, Payload: &StatusMsg{TxnID: txnID, Committed: commit}}
}
