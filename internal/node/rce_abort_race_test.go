package node

import (
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/stable"
)

// TestRCEAbortOvertakesPrepare reproduces the livelock precursor found by
// the chaos harness (seed 2): the abort verdict — here the compensating
// node's, which decides because its agent stays — arrives while the
// party's RCE execution is still running (its lock wait makes that window
// wide). The party must NOT register a prepared branch afterwards — a
// branch prepared after its transaction aborted is a zombie that holds
// resource locks until the stale-branch query cycle, and under retry
// pressure those zombie holds chain into a livelock.
//
// With the protocol core this is the executing→executingAborted state
// edge; here the full driver is exercised: a gated compensation keeps the
// execution in flight while the abort verdict lands, then the prepared
// branch must be aborted, its locks released, and the compensating node
// refused. The exhaustive event-order coverage lives in
// internal/protocol's permutation test.
func TestRCEAbortOvertakesPrepare(t *testing.T) {
	sim := network.NewSim(network.SimConfig{})
	defer sim.Close()
	ep, err := sim.Endpoint("p")
	if err != nil {
		t.Fatal(err)
	}
	coEp, err := sim.Endpoint("co")
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	reg := agent.NewRegistry()
	if err := reg.RegisterComp("t.comp", func(ctx agent.CompContext) error {
		<-gate // hold the execution in flight (stands in for a lock wait)
		r, err := ctx.Resource("bank")
		if err != nil {
			return err
		}
		return r.(*resource.Bank).Withdraw(ctx.Tx(), "acct", 10)
	}); err != nil {
		t.Fatal(err)
	}
	store := stable.NewMemStore(nil)
	n, err := New(Config{Name: "p"}, ep, store, reg, func(st stable.Store) (resource.Resource, error) {
		return resource.NewBank(st, "bank", true)
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()
	<-n.Ready()

	tx, err := n.mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	r, _ := n.Resource("bank")
	bank := r.(*resource.Bank)
	if err := bank.OpenAccount(tx, "acct", 100); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	const txnID = "co#7"
	ops := []*core.OpEntry{
		{Kind: core.OpResource, Op: "t.comp", Params: core.NewParams().Set("bank", "bank")},
	}

	// Execution starts and blocks on the gate; the abort verdict
	// overtakes it; then the execution finishes and prepares.
	n.step(protocol.RCEExecReceived{TxnID: txnID, From: "co", Decider: "co", Ops: ops})
	n.step(protocol.OutcomeReceived{TxnID: txnID, From: "co", Committed: false})
	close(gate)

	// The compensating node must be refused, not acknowledged.
	select {
	case msg := <-coEp.Recv():
		if msg.Kind != protocol.KindRCEExecAck {
			t.Fatalf("unexpected message %s", msg.Kind)
		}
		var ack protocol.AckMsg
		if err := decodeInto(msg.Payload, &ack); err != nil {
			t.Fatal(err)
		}
		if ack.OK {
			t.Error("zombie branch acknowledged for an aborted transaction")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no exec ack delivered")
	}

	n.mu.Lock()
	_, parked := n.branchTx[txnID]
	n.mu.Unlock()
	if parked {
		t.Error("zombie branch transaction parked for an aborted transaction")
	}

	// The branch's effects were rolled back and its locks released: a
	// fresh transaction can use the bank immediately (no 2s lock wait).
	done := make(chan error, 1)
	go func() {
		tx2, err := n.mgr.Begin()
		if err != nil {
			done <- err
			return
		}
		defer tx2.Commit()
		bal, err := bank.Balance(tx2, "acct")
		if err == nil && bal != 100 {
			t.Errorf("balance = %d, want 100 (aborted compensation leaked)", bal)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("bank lock still held by the aborted branch")
	}

	// An abort with no in-flight execution must not leave branch state.
	n.step(protocol.OutcomeReceived{TxnID: "co#8", From: "co", Committed: false})
	n.pmu.Lock()
	stats := n.machine.Stats()
	n.pmu.Unlock()
	if stats.BranchesExec != 0 || stats.BranchesPrepared != 0 {
		t.Errorf("stray branch state after resolution: %+v", stats)
	}
}

func decodeInto(payload []byte, v any) error {
	return protocol.Decode(payload, v)
}
