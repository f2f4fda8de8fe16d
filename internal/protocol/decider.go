package protocol

import "slices"

// Decider role: this node receives the container of a hand-off and
// decides the step transaction. States per transaction:
//
//	(absent) --HandoffReceived--> deciding --HandoffDecided--> decided + q.outcome
//	(absent) --QueryReceived(from the source)--> deciding (fence) --HandoffDecided--> decided
//	decided --HandoffReceived/QueryReceived--> decided + the recorded outcome again
//	decided --the source's mark passes the ID--> (absent) + DropOutcomes
//
// Every abort this node answers is written first as a fence, so a copy
// of the prepare that arrives later gets the same abort back instead of
// committing an agent its source already re-ran. The source's mark is
// the lowest of its transactions not yet settled: below it the source
// will never ask again, so prepares below it are late duplicates
// (dropped) and records below it are garbage (collected). DESIGN.md §5
// has the argument.

// handoffReceived decides a hand-off, or answers a duplicate from the
// record.
func (m *Machine) handoffReceived(e HandoffReceived) []Effect {
	src := Coordinator(e.TxnID)
	if src != e.From || src == m.cfg.Node {
		return nil // not a hand-off this node can decide
	}
	effs := m.advanceMark(src, e.Mark)
	return append(effs, m.verdict(src, Decide{TxnID: e.TxnID, From: src, EntryID: e.EntryID, Data: e.Data, Commit: m.ready})...)
}

// queryDecided answers a source asking about its hand-off: the record,
// or — for an ID this node never decided — a fence first.
func (m *Machine) queryDecided(e QueryReceived) []Effect {
	return m.verdict(e.From, Decide{TxnID: e.TxnID, From: e.From})
}

// verdict answers from the record; stays silent while a verdict is being
// written (the source re-asks) or below the source's mark (a late copy
// of something the source settled: nobody waits); and otherwise starts
// writing d.
func (m *Machine) verdict(src string, d Decide) []Effect {
	if commit, ok := m.decided[d.TxnID]; ok {
		return []Effect{outcome(src, d.TxnID, commit)}
	}
	seq, ok := seqOf(d.TxnID)
	if !ok || m.deciding[d.TxnID] || seq < m.marks[src] {
		return nil
	}
	m.deciding[d.TxnID] = true
	d.Mark = m.marks[src]
	return []Effect{d}
}

// handoffDecided records a durable verdict and answers the source.
func (m *Machine) handoffDecided(e HandoffDecided) []Effect {
	if !m.deciding[e.TxnID] {
		return nil
	}
	delete(m.deciding, e.TxnID)
	if !e.OK {
		return nil // nothing written; the source's query asks again
	}
	m.decided[e.TxnID] = e.Commit
	return []Effect{outcome(Coordinator(e.TxnID), e.TxnID, e.Commit)}
}

// recoveredOutcome rebuilds one record and the source's mark from it.
func (m *Machine) recoveredOutcome(e RecoveredOutcome) []Effect {
	m.decided[e.TxnID] = e.Commit
	return m.advanceMark(Coordinator(e.TxnID), e.Mark)
}

// advanceMark raises the source's mark and collects every record below
// it.
func (m *Machine) advanceMark(src string, mark uint64) []Effect {
	if mark <= m.marks[src] {
		return nil
	}
	m.marks[src] = mark
	var drop []string
	for id := range m.decided {
		if seq, _ := seqOf(id); seq < mark && Coordinator(id) == src {
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

func outcome(to, txnID string, commit bool) Effect {
	return SendMsg{To: to, Kind: KindOutcome, Payload: &StatusMsg{TxnID: txnID, Committed: commit}}
}
