package cluster_test

// End-to-end crash recovery over the log-structured WAL storage engine:
// unlike the MemStore simulation (where the store object survives the
// crash), a durable Options.Store is closed on Crash and re-opened from
// disk on Recover, so the engine's real recovery path — checkpoint
// load, segment replay, torn-tail truncation — carries the §4.3 protocol
// recovery (staged-entry resolution, input-queue replay).

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/itinerary"
	"repro/internal/node"
	"repro/internal/resource"
	"repro/internal/stable"
	_ "repro/internal/stable/wal" // registers the wal engine
	"repro/internal/txn"
)

func TestWALStoreCrashRecovery(t *testing.T) {
	const (
		workers = 2
		agents  = 10
		steps   = 4
		seed    = 1_000
	)
	baseDir := t.TempDir()
	cl := cluster.New(cluster.Options{
		Workers:    workers,
		RetryDelay: time.Millisecond,
		AckTimeout: 2 * time.Second,
		// Small segments and an eager checkpoint cadence so the
		// workload actually rotates, checkpoints and replays.
		Store: stable.Spec{Engine: "wal", Dir: baseDir, WAL: stable.WALSpec{
			SegmentSize:     16 << 10,
			CheckpointEvery: 32 << 10,
		}},
	})
	for _, n := range []string{"n0", "n1"} {
		if err := cl.AddNode(n, bankFactory("bank", false)); err != nil {
			t.Fatal(err)
		}
	}
	reg := cl.Registry()
	if err := reg.RegisterStep("walstore.deposit", func(ctx agent.StepContext) error {
		r, ok := ctx.Resource("bank")
		if !ok {
			return errors.New("walstore.deposit: no bank")
		}
		if err := r.(*resource.Bank).Transfer(ctx.Tx(), "pool", "sink", 1); err != nil {
			return err
		}
		ctx.LogComp(core.OpResource, "walstore.undeposit", core.NewParams())
		time.Sleep(2 * time.Millisecond) // keep transactions in flight for the crash
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterComp("walstore.undeposit", func(ctx agent.CompContext) error {
		r, err := ctx.Resource("bank")
		if err != nil {
			return err
		}
		return r.(*resource.Bank).Transfer(ctx.Tx(), "sink", "pool", 1)
	}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	for _, n := range []string{"n0", "n1"} {
		if err := cl.WithTx(n, func(tx *txn.Tx, nd *node.Node) error {
			b := mustBank(t, nd, "bank")
			if err := b.OpenAccount(tx, "pool", seed); err != nil {
				return err
			}
			return b.OpenAccount(tx, "sink", 0)
		}); err != nil {
			t.Fatal(err)
		}
	}

	var chans []<-chan cluster.Result
	for i := 0; i < agents; i++ {
		id := fmt.Sprintf("walagent%02d", i)
		sub := &itinerary.Sub{ID: "job-" + id}
		for s := 0; s < steps; s++ {
			sub.Entries = append(sub.Entries, itinerary.Step{
				Method: "walstore.deposit", Loc: fmt.Sprintf("n%d", (i+s)%2),
			})
		}
		it, err := itinerary.New(sub)
		if err != nil {
			t.Fatal(err)
		}
		a, entered, err := agent.New(id, "", it)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := cl.Launch(a, entered, fmt.Sprintf("n%d", i%2))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}

	// Crash n0 mid-workload: its WAL store is closed with claimed agents
	// in flight and two-phase hand-offs possibly staged.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if s := cl.Counters().Snapshot(); s.StepTxns >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no steps committed before crash point")
		}
		time.Sleep(time.Millisecond)
	}
	if err := cl.Crash("n0"); err != nil {
		t.Fatal(err)
	}
	if mid := cl.Counters().Snapshot(); mid.StepTxns >= agents*steps {
		t.Fatalf("crash landed after the workload finished (%d steps)", mid.StepTxns)
	}
	if err := cl.Recover("n0"); err != nil {
		t.Fatal(err)
	}

	timeout := time.After(60 * time.Second)
	for _, ch := range chans {
		select {
		case res := <-ch:
			if res.Failed {
				t.Fatalf("agent %s failed after recovery: %s", res.AgentID, res.Reason)
			}
		case <-timeout:
			t.Fatal("agents did not complete after WAL recovery")
		}
	}

	// Exactly-once across the disk-level recovery: every step deposited
	// exactly once, money conserved.
	var pool, sink int64
	for _, n := range []string{"n0", "n1"} {
		if err := cl.WithTx(n, func(tx *txn.Tx, nd *node.Node) error {
			b := mustBank(t, nd, "bank")
			p, err := b.Balance(tx, "pool")
			if err != nil {
				return err
			}
			s, err := b.Balance(tx, "sink")
			if err != nil {
				return err
			}
			pool += p
			sink += s
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if want := int64(agents * steps); sink != want {
		t.Errorf("sink = %d, want %d (WAL recovery duplicated or dropped steps)", sink, want)
	}
	if pool+sink != 2*seed {
		t.Errorf("money not conserved: pool %d + sink %d", pool, sink)
	}

	// A second full crash/recover cycle on both nodes must come back from
	// what is now a checkpointed, multi-segment log with all state intact.
	for _, n := range []string{"n0", "n1"} {
		if err := cl.Crash(n); err != nil {
			t.Fatal(err)
		}
		if err := cl.Recover(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.AwaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	var sink2 int64
	for _, n := range []string{"n0", "n1"} {
		if err := cl.WithTx(n, func(tx *txn.Tx, nd *node.Node) error {
			b := mustBank(t, nd, "bank")
			s, err := b.Balance(tx, "sink")
			if err != nil {
				return err
			}
			sink2 += s
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if sink2 != sink {
		t.Errorf("balances drifted across cold restart: %d -> %d", sink, sink2)
	}
}
