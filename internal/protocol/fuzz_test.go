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
// message kinds, non-nil payloads), the driver contract on branch
// settles (a Commit/AbortBranch only for a parked transaction, plus the
// defensive stray-completion abort), and the terminal invariant that
// once every in-flight execution completes and every transaction
// receives a verdict, no branch state survives — every prepared branch
// resolves.
func FuzzProtocolEvents(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x23, 0x34, 0x45})
	f.Add([]byte{0x20, 0x30, 0x50, 0x60, 0x70, 0x80})
	f.Add([]byte("chaos-seed-2"))
	f.Add([]byte{0x00, 0xff, 0x10, 0x41, 0x52, 0x63, 0x74, 0x85, 0x96})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := protocol.NewMachine(protocol.Config{Node: "self"})
		model := newDriverModel(t)
		// Half the runs exercise the recovering (not-ready) phase first.
		if len(data) > 0 && data[0]%2 == 0 {
			model.apply(m.Step(protocol.ReadyReached{}))
		}

		txns := []string{"co#1", "co#2", "self#3", "peer#4"}
		agents := []string{"a1", "a2"}
		ops := []*core.OpEntry{{Kind: core.OpResource, Op: "c"}}
		for i := 0; i+1 < len(data); i += 2 {
			txn := txns[int(data[i+1])%len(txns)]
			ag := agents[int(data[i+1])%len(agents)]
			switch data[i] % 16 {
			case 0:
				model.apply(m.Step(protocol.CoordPrepareEnqueue{TxnID: txn, Dest: "peer", EntryID: ag, Data: []byte("d")}))
			case 1:
				model.apply(m.Step(protocol.CoordPrepareRCE{TxnID: txn, Dest: "peer", Ops: ops}))
			case 2:
				model.apply(m.Step(protocol.CoordDecided{TxnID: txn, Commit: data[i+1]%2 == 0, Parts: []protocol.Participant{
					{Node: "peer", Kind: protocol.PartQueue},
				}}))
			case 3:
				kinds := []string{
					protocol.KindEnqueuePrepareAck, protocol.KindRCEExecAck,
					protocol.KindEnqueueCommitAck, protocol.KindEnqueueAbortAck,
					protocol.KindRCECommitAck, protocol.KindRCEAbortAck,
				}
				model.apply(m.Step(protocol.AckReceived{Kind: kinds[int(data[i+1])%len(kinds)], TxnID: txn, From: "peer", OK: true}))
			case 4:
				model.apply(m.Step(protocol.QueryReceived{TxnID: txn, From: "peer", StoreDecided: data[i+1]%3 == 0}))
			case 5:
				model.apply(m.Step(protocol.StatusReceived{TxnID: txn, Committed: data[i+1]%2 == 0}))
			case 6:
				model.apply(m.Step(protocol.PrepareReceived{TxnID: txn, EntryID: ag, From: "peer", Data: []byte("d")}))
			case 7:
				model.apply(m.Step(protocol.StageOutcome{TxnID: txn, OK: data[i+1]%2 == 0}))
			case 8:
				model.apply(m.Step(protocol.CtlReceived{TxnID: txn, From: "peer", Commit: data[i+1]%2 == 0, RCE: data[i+1]%3 == 0}))
			case 9:
				model.apply(m.Step(protocol.RCEExecReceived{TxnID: txn, From: "peer", Ops: ops}))
			case 10:
				// Execution completion honouring the driver contract
				// when possible, deliberately stray otherwise.
				if model.outstanding[txn] > 0 {
					model.outstanding[txn]--
					if data[i+1]%4 == 0 {
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
				model.apply(m.Step(protocol.RecoveredStaged{TxnID: txn}))
			case 14:
				model.apply(m.Step(protocol.RecoveredBranch{TxnID: txn}))
			case 15:
				// Fire an armed timer (or a stale/garbage one).
				id := model.anyTimer()
				if id == "" {
					id = fmt.Sprintf("garbage|%s", txn)
				}
				model.apply(m.Step(protocol.TimerFired{ID: id}))
			}
		}

		// Quiescence drive: complete every outstanding execution, then
		// deliver a final verdict for every transaction and agent ack.
		model.apply(m.Step(protocol.ReadyReached{}))
		for _, txn := range txns {
			for model.outstanding[txn] > 0 {
				model.outstanding[txn]--
				model.parked[txn] = true
				model.apply(m.Step(protocol.BranchPrepared{TxnID: txn, OK: true}))
			}
		}
		for _, txn := range txns {
			model.apply(m.Step(protocol.StatusReceived{TxnID: txn, Committed: false}))
			model.apply(m.Step(protocol.AckReceived{Kind: protocol.KindEnqueueCommitAck, TxnID: txn, From: "peer", OK: true}))
			model.apply(m.Step(protocol.AckReceived{Kind: protocol.KindRCECommitAck, TxnID: txn, From: "peer", OK: true}))
		}
		for _, ag := range agents {
			model.apply(m.Step(protocol.DoneAcked{AgentID: ag}))
		}

		st := m.Stats()
		if st.BranchesExec != 0 || st.BranchesPrepared != 0 || st.BranchesInDoubt != 0 {
			t.Fatalf("branch state survives quiescence: %+v", st)
		}
		if st.Staged != 0 {
			t.Fatalf("staged state survives verdicts: %+v", st)
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
	outstanding map[string]int  // ExecBranch effects awaiting completion
	parked      map[string]bool // prepared branch transactions parked
	timers      map[string]bool // armed timer IDs
}

func newDriverModel(t *testing.T) *driverModel {
	return &driverModel{
		t:           t,
		outstanding: make(map[string]int),
		parked:      make(map[string]bool),
		timers:      make(map[string]bool),
	}
}

var knownKinds = map[string]bool{
	protocol.KindEnqueuePrepare: true, protocol.KindEnqueuePrepareAck: true,
	protocol.KindEnqueueCommit: true, protocol.KindEnqueueCommitAck: true,
	protocol.KindEnqueueAbort: true, protocol.KindEnqueueAbortAck: true,
	protocol.KindTxnQuery: true, protocol.KindTxnStatus: true,
	protocol.KindRCEExec: true, protocol.KindRCEExecAck: true,
	protocol.KindRCECommit: true, protocol.KindRCECommitAck: true,
	protocol.KindRCEAbort: true, protocol.KindRCEAbortAck: true,
	protocol.KindCtlBatch: true, protocol.KindQueryBatch: true,
}

func (d *driverModel) apply(effs []protocol.Effect) {
	for _, eff := range effs {
		switch e := eff.(type) {
		case protocol.SendMsg:
			if !knownKinds[e.Kind] {
				d.t.Fatalf("send with unknown kind %q", e.Kind)
			}
			if e.To == "" || e.Payload == nil {
				d.t.Fatalf("malformed send: %+v", e)
			}
		case protocol.ExecBranch:
			d.outstanding[e.TxnID]++
		case protocol.CommitBranch:
			if !d.parked[e.TxnID] {
				d.t.Fatalf("CommitBranch for unparked txn %s", e.TxnID)
			}
			d.parked[e.TxnID] = false
		case protocol.AbortBranch:
			// Legal for parked transactions and as the defensive answer
			// to a stray completion (the driver treats unknown txns as a
			// no-op), so no parked precondition.
			d.parked[e.TxnID] = false
		case protocol.ArmTimer:
			if !validTimerID(e.ID) || e.D <= 0 {
				d.t.Fatalf("malformed ArmTimer: %+v", e)
			}
			d.timers[e.ID] = true
		case protocol.StageEntry:
			if e.AckKind != protocol.KindEnqueuePrepareAck {
				d.t.Fatalf("StageEntry with ack kind %q", e.AckKind)
			}
		case protocol.ResolveStaged:
			if e.AckTo != "" && !knownKinds[e.AckKind] {
				d.t.Fatalf("ResolveStaged with unknown ack kind %q", e.AckKind)
			}
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
