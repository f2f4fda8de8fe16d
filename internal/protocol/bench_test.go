package protocol_test

import (
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/protocol"
)

// BenchmarkProtocolTransitions measures the raw transition throughput of
// the machine over a representative protocol mix: one source hand-off
// (delegate → outcome), one decider hand-off (prepare → decided → the
// source's mark collects the record), and one RCE branch lifecycle (exec
// naming its decider → prepared → the decider's commit verdict, which
// the branch acknowledges) — 8 transitions per iteration. The machine is the
// single-threaded heart of every node, so ns/op here bounds a node's
// protocol decision rate.
func BenchmarkProtocolTransitions(b *testing.B) {
	m := protocol.NewMachine(protocol.Config{
		Node:          "co",
		RetryInterval: 50 * time.Millisecond,
		AckTimeout:    500 * time.Millisecond,
	})
	m.Step(protocol.ReadyReached{})
	ops := []*core.OpEntry{{Kind: core.OpResource, Op: "c"}}
	data := []byte("container")

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := "co#1" // IDs may repeat: every cycle fully settles its state

		// Source hand-off.
		m.Step(protocol.Delegate{TxnID: txn, Decider: "p", EntryID: "a", Data: data, Mark: 1})
		m.Step(protocol.OutcomeReceived{TxnID: txn, Committed: true})

		// Decider hand-off: the source's IDs keep rising with its mark.
		seq := uint64(i) + 2
		peer := "peer#" + strconv.FormatUint(seq, 10)
		m.Step(protocol.HandoffReceived{TxnID: peer, From: "peer", EntryID: "a", Data: data, Mark: seq})
		m.Step(protocol.HandoffDecided{TxnID: peer, Commit: true, OK: true})
		m.Step(protocol.ResolvedReceived{From: "peer", Mark: seq + 1})

		// RCE branch lifecycle.
		m.Step(protocol.RCEExecReceived{TxnID: "peer#1", From: "peer", Decider: "d", Ops: ops})
		m.Step(protocol.BranchPrepared{TxnID: "peer#1", OK: true})
		m.Step(protocol.OutcomeReceived{TxnID: "peer#1", From: "d", Committed: true})
	}
	b.StopTimer()
	if s := m.Stats(); s.Outcomes != 0 || s.BranchesPrepared != 0 {
		b.Fatalf("state leaked across cycles: %+v", s)
	}
	b.ReportMetric(float64(m.Transitions())/float64(b.N), "transitions/op")
}
