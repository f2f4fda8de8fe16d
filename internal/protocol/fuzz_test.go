package protocol_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/protocol"
)

// FuzzProtocolEvents drives random event sequences — including orders a
// correct driver would never produce — through the machine and asserts:
// no panics, only well-formed effects (parseable timer IDs, known
// message kinds, non-nil payloads), that every parked branch is settled,
// that a shipped RCE list's wait ends at most once,
// that no node sends to itself, that
// the decider never answers one transaction both ways, and the terminal
// invariant that once every in-flight execution and verdict write
// completes, every transaction receives its verdict, every party
// acknowledges and every source's mark passes its hand-offs, no branch,
// delegation, commit record or fence survives — everything resolves.
func FuzzProtocolEvents(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x23, 0x34, 0x45})
	f.Add([]byte{0x20, 0x30, 0x50, 0x60, 0x70, 0x80})
	f.Add([]byte("chaos-seed-2"))
	f.Add([]byte{0x00, 0xff, 0x10, 0x41, 0x52, 0x63, 0x74, 0x85, 0x96})
	f.Add([]byte{0x06, 0x01, 0x07, 0x01, 0x04, 0x01, 0x10, 0x09, 0x06, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := protocol.NewMachine(protocol.Config{Node: "self"})
		model := newDriverModel(t)
		// Half the runs exercise the recovering (not-ready) phase first.
		if len(data) > 0 && data[0]%2 == 0 {
			model.apply(m.Step(protocol.ReadyReached{}))
		}

		txns := []string{"co#1", "co#2", "self#3", "peer#4"}
		agents := []string{"a1", "a2"}
		parties := [][]string{nil, {"peer"}, {"self"}, {"peer", "self"}}
		ops := []*core.OpEntry{{Kind: core.OpResource, Op: "c"}}
		for i := 0; i+1 < len(data); i += 2 {
			arg := data[i+1]
			txn := txns[int(arg)%len(txns)]
			src := protocol.Origin(txn)
			ag := agents[int(arg)%len(agents)]
			parts := parties[int(arg/4)%len(parties)]
			switch data[i] % 19 {
			case 0:
				model.apply(m.Step(protocol.Delegate{TxnID: txn, Decider: "peer", EntryID: ag, Data: []byte("d"), Mark: uint64(arg % 5), Parties: parts}))
			case 1:
				// The driver settles its own transaction once; its RCE
				// parties are other nodes.
				if src != "self" || model.settled[txn] {
					break
				}
				model.settled[txn] = true
				model.apply(m.Step(protocol.LocalDecided{TxnID: txn, Commit: arg%2 == 0, Parties: []string{"peer"}}))
			case 2, 3:
				kinds := []string{protocol.KindRCEExecAck, protocol.KindOutcomeAck}
				model.apply(m.Step(protocol.AckReceived{Kind: kinds[int(arg)%len(kinds)], TxnID: txn, From: "peer", OK: true}))
			case 4:
				from := "peer"
				if arg%2 == 0 {
					from = src // a source asking its decider
				}
				// The driver's own mark passes its transaction only
				// once it has settled it.
				var mark uint64
				if model.settled[txn] {
					mark = uint64(arg % 6)
				}
				model.apply(m.Step(protocol.QueryReceived{TxnID: txn, From: from, Mark: mark}))
			case 5:
				model.apply(m.Step(protocol.OutcomeReceived{TxnID: txn, From: "peer", Committed: arg%2 == 0}))
			case 6:
				model.apply(m.Step(protocol.HandoffReceived{TxnID: txn, From: src, EntryID: ag, Data: []byte("d"), Mark: uint64(arg % 7), Parties: parts}))
			case 7:
				// A verdict write completing, honouring the driver
				// contract when possible, deliberately stray otherwise.
				d, ok := model.deciding[txn]
				delete(model.deciding, txn)
				if !ok {
					d.Commit = arg%2 == 0
				}
				commit, written := d.Commit && arg%3 != 0, arg%7 != 0
				if commit && written && d.Branch {
					model.parked[txn] = false // committed inside the write
				}
				model.apply(m.Step(protocol.HandoffDecided{TxnID: txn, Commit: commit, OK: written}))
			case 8, 9:
				decider := "peer"
				if data[i]%18 == 8 {
					decider = "self" // the decider is this party
				}
				model.apply(m.Step(protocol.RCEExecReceived{TxnID: txn, From: "peer", Decider: decider, Ops: ops}))
			case 10:
				// Execution completion honouring the driver contract
				// when possible, deliberately stray otherwise.
				if model.outstanding[txn] > 0 {
					model.outstanding[txn]--
					if arg%4 == 0 {
						model.apply(m.Step(protocol.BranchPrepared{TxnID: txn, OK: false, Err: "exec failed"}))
					} else {
						model.parked[txn] = true
						model.apply(m.Step(protocol.BranchPrepared{TxnID: txn, OK: true}))
					}
				} else {
					model.apply(m.Step(protocol.BranchPrepared{TxnID: txn, OK: true}))
				}
			case 11:
				model.apply(m.Step(protocol.DoneRecorded{AgentID: ag, Owner: "owner"}))
			case 12:
				model.apply(m.Step(protocol.DoneAcked{AgentID: ag}))
			case 13:
				model.apply(m.Step(protocol.OutcomeReceived{TxnID: txn, Committed: arg%2 == 0}))
			case 14:
				switch arg % 3 {
				case 0:
					model.apply(m.Step(protocol.RecoveredBranch{TxnID: txn, Decider: "peer"}))
				case 1:
					model.apply(m.Step(protocol.RecoveredBranch{TxnID: txn, Decider: "self"}))
				default:
					// A replayed record says what was answered, if
					// anything; replay precedes any write in flight.
					if _, writing := model.deciding[txn]; writing {
						break
					}
					commit, ok := model.answered[txn]
					if !ok {
						commit = arg%4 == 0
					}
					var listed []string
					if commit {
						listed = []string{"peer"}
					}
					model.apply(m.Step(protocol.RecoveredOutcome{TxnID: txn, Commit: commit, Mark: uint64(arg % 3), Parties: listed}))
				}
			case 15:
				// Fire an armed timer (or a stale/garbage one).
				id := model.anyTimer()
				if id == "" {
					id = fmt.Sprintf("garbage|%s", txn)
				}
				model.apply(m.Step(protocol.TimerFired{ID: id}))
			case 16:
				model.apply(m.Step(protocol.ResolvedReceived{From: src, Mark: uint64(arg % 6)}))
			case 17:
				model.apply(m.Step(protocol.TimerFired{ID: "pexec|" + txn}))
			case 18:
				// A worker ships its own transaction's RCE list once.
				if src != "self" || model.shipped[txn] {
					break
				}
				model.shipped[txn], model.awaiting[txn] = true, true
				model.apply(m.Step(protocol.RCEShipped{TxnID: txn, To: "peer", Decider: "peer", Ops: ops}))
			}
		}

		// Quiescence drive: complete every outstanding execution and
		// verdict write, then deliver a final verdict for every
		// transaction, every party's acknowledgement, every agent ack,
		// and a mark past every hand-off of every source.
		model.apply(m.Step(protocol.ReadyReached{}))
		for _, txn := range txns {
			for model.outstanding[txn] > 0 {
				model.outstanding[txn]--
				model.parked[txn] = true
				model.apply(m.Step(protocol.BranchPrepared{TxnID: txn, OK: true}))
			}
			if d, ok := model.deciding[txn]; ok {
				delete(model.deciding, txn)
				if d.Commit && d.Branch {
					model.parked[txn] = false
				}
				model.apply(m.Step(protocol.HandoffDecided{TxnID: txn, Commit: d.Commit, OK: true}))
			}
		}
		for _, txn := range txns {
			model.apply(m.Step(protocol.OutcomeReceived{TxnID: txn, From: "peer", Committed: false}))
			model.apply(m.Step(protocol.AckReceived{Kind: protocol.KindOutcomeAck, TxnID: txn, From: "peer", OK: true}))
			model.apply(m.Step(protocol.AckReceived{Kind: protocol.KindRCEExecAck, TxnID: txn, From: "peer", OK: true}))
			model.apply(m.Step(protocol.ResolvedReceived{From: protocol.Origin(txn), Mark: 100}))
		}
		for _, ag := range agents {
			model.apply(m.Step(protocol.DoneAcked{AgentID: ag}))
		}

		st := m.Stats()
		if st.BranchesExec != 0 || st.BranchesPrepared != 0 || st.BranchesInDoubt != 0 {
			t.Fatalf("branch state survives quiescence: %+v", st)
		}
		if st.Outcomes != 0 || st.Deciding != 0 {
			t.Fatalf("hand-off state survives verdicts and marks: %+v", st)
		}
		if st.DonePending != 0 {
			t.Fatalf("done state survives acks: %+v", st)
		}
		for txn, p := range model.parked {
			if p {
				t.Fatalf("parked branch %s never settled", txn)
			}
		}
		// Every armed timer must be safe to fire on dead state: no
		// re-arm, no new sends for settled transactions.
		for _, id := range model.timerIDs() {
			effs := m.Step(protocol.TimerFired{ID: id})
			for _, eff := range effs {
				if _, ok := eff.(protocol.ArmTimer); ok {
					// A re-arm is only legal for state that still
					// exists; nothing exists after quiescence.
					t.Fatalf("timer %s re-armed on dead state: %+v", id, effs)
				}
			}
		}
	})
}

// driverModel tracks the driver-side obligations the effects create, and
// validates effect well-formedness as they stream out.
type driverModel struct {
	t           *testing.T
	outstanding map[string]int             // ExecBranch effects awaiting completion
	parked      map[string]bool            // prepared branch transactions parked
	timers      map[string]bool            // armed timer IDs
	deciding    map[string]protocol.Decide // Decide effects awaiting their write
	answered    map[string]bool            // the decider's outcome per transaction
	settled     map[string]bool            // own transactions the driver settled
	shipped     map[string]bool            // own transactions whose RCE list the driver shipped
	awaiting    map[string]bool            // shipped lists whose exec wait has not ended
}

func newDriverModel(t *testing.T) *driverModel {
	return &driverModel{
		t:           t,
		outstanding: make(map[string]int),
		parked:      make(map[string]bool),
		timers:      make(map[string]bool),
		deciding:    make(map[string]protocol.Decide),
		answered:    make(map[string]bool),
		settled:     make(map[string]bool),
		shipped:     make(map[string]bool),
		awaiting:    make(map[string]bool),
	}
}

var knownKinds = map[string]bool{
	protocol.KindEnqueuePrepare: true, protocol.KindOutcome: true,
	protocol.KindOutcomeAck: true, protocol.KindResolved: true,
	protocol.KindTxnQuery: true, protocol.KindRCEExec: true,
	protocol.KindRCEExecAck: true,
}

func (d *driverModel) apply(effs []protocol.Effect) {
	for _, eff := range effs {
		switch e := eff.(type) {
		case protocol.SendMsg:
			if !knownKinds[e.Kind] {
				d.t.Fatalf("send with unknown kind %q", e.Kind)
			}
			if e.To == "" || e.To == "self" || e.Payload == nil {
				d.t.Fatalf("malformed send: %+v", e)
			}
			if e.Kind == protocol.KindOutcome {
				st := e.Payload.(*protocol.StatusMsg)
				if prev, ok := d.answered[st.TxnID]; ok && prev != st.Committed {
					d.t.Fatalf("decider answered %s both ways", st.TxnID)
				}
				d.answered[st.TxnID] = st.Committed
			}
		case protocol.SendHandoff:
			if e.To == "" || e.Msg == nil || e.Msg.TxnID == "" {
				d.t.Fatalf("malformed hand-off: %+v", e)
			}
		case protocol.Decide:
			if _, dup := d.deciding[e.TxnID]; dup {
				d.t.Fatalf("second Decide for %s while one is outstanding", e.TxnID)
			}
			d.deciding[e.TxnID] = e
		case protocol.DropOutcomes:
			for _, id := range e.TxnIDs {
				delete(d.answered, id) // collected: the ID is free of its record
			}
		case protocol.ExecBranch:
			d.outstanding[e.TxnID]++
		case protocol.ExecAcked:
			if !d.awaiting[e.TxnID] {
				d.t.Fatalf("ExecAcked for %s, whose exec wait is not open: %+v", e.TxnID, e)
			}
			delete(d.awaiting, e.TxnID)
		case protocol.SettleBranch:
			// The parked transaction if any, else the durable record.
			d.parked[e.TxnID] = false
		case protocol.ArmTimer:
			if !validTimerID(e.ID) || e.D <= 0 {
				d.t.Fatalf("malformed ArmTimer: %+v", e)
			}
			d.timers[e.ID] = true
		case protocol.CancelTimer:
			if !d.timers[e.ID] {
				d.t.Fatalf("CancelTimer for a timer never armed: %+v", e)
			}
			delete(d.timers, e.ID)
		case protocol.CountCompOps:
			if e.N < 0 {
				d.t.Fatalf("negative comp-op count: %+v", e)
			}
		}
	}
}

func validTimerID(id string) bool {
	i := strings.Index(id, "|")
	return i > 0 && i < len(id)-1
}

func (d *driverModel) anyTimer() string {
	for id := range d.timers {
		return id
	}
	return ""
}

func (d *driverModel) timerIDs() []string {
	out := make([]string, 0, len(d.timers))
	for id := range d.timers {
		out = append(out, id)
	}
	return out
}
