package cluster_test

import (
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/itinerary"
	"repro/internal/node"
	"repro/internal/resource"
	"repro/internal/txn"
)

// The S16b baseline: classic sagas restore the *complete* program state
// from the savepoint image. §4.1 argues this is wrong for mobile agents —
// "during the agent rollback, information originally not contained in the
// agent's private data space is produced (usually by the rollback of the
// state space of the resources). This new information has to be integrated
// into the private agent data." These tests make the failure concrete.
// The runtime never restores a WRO from an image, so the saga behaviour
// is emulated here, by the steps themselves.

// sagaKey is the SRO key under which sagaStep keeps a copy of the WRO.
// Every savepoint images the SRO, so each one also holds the WRO as it
// stood at that savepoint: the before-image a saga would restore.
const sagaKey = "saga/wro"

// sagaStep wraps a step with the saga-style WRO restore. On entry it
// resets the WRO from the copy in the SRO; after a successful step it
// refreshes the copy. Going forward the reset changes nothing. After a
// rollback the SRO comes back from the target savepoint, so the reset
// wipes whatever the compensations wrote into the WRO.
func sagaStep(fn agent.StepFunc) agent.StepFunc {
	return func(ctx agent.StepContext) error {
		var img map[string][]byte
		if err := ctx.SRO().MustGet(sagaKey, &img); err != nil {
			return err
		}
		ctx.WRO().Restore(img)
		if err := fn(ctx); err != nil {
			return err
		}
		return ctx.SRO().Set(sagaKey, ctx.WRO().Snapshot())
	}
}

// newSagaAgent creates an agent whose SRO already holds the WRO copy, so
// the launcher's savepoints image it too.
func newSagaAgent(t *testing.T, id string, it *itinerary.Itinerary) (*agent.Agent, []string) {
	t.Helper()
	a, entered, err := agent.New(id, "", it)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SRO.Set(sagaKey, a.WRO.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return a, entered
}

// sagaShoppingCluster is the shopping scenario, with every step wrapped
// by sagaStep when saga is set.
func sagaShoppingCluster(t *testing.T, saga bool) *cluster.Cluster {
	t.Helper()
	cl := cluster.New(cluster.Options{
		RetryDelay:  2 * time.Millisecond,
		AckTimeout:  time.Second,
		MaxAttempts: 6, // bound the divergence loop
	})
	if err := cl.AddNode("A", bankFactory("bank", false)); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddNode("B", shopFactory("shop", resource.ShopConfig{Currency: "USD", Mode: resource.RefundCash, FeePercent: 10})); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddNode("C", dirFactory("dir")); err != nil {
		t.Fatal(err)
	}
	var wrap func(agent.StepFunc) agent.StepFunc
	if saga {
		wrap = sagaStep
	}
	registerShoppingSteps(t, cl, wrap)
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.WithTx("A", func(tx *txn.Tx, n *node.Node) error {
		return mustBank(t, n, "bank").OpenAccount(tx, "alice", 1000)
	}); err != nil {
		t.Fatal(err)
	}
	if err := cl.WithTx("B", func(tx *txn.Tx, n *node.Node) error {
		return mustShop(t, n, "shop").Restock(tx, "book", 50, 100)
	}); err != nil {
		t.Fatal(err)
	}
	if err := cl.WithTx("C", func(tx *txn.Tx, n *node.Node) error {
		return mustDir(t, n, "dir").Put(tx, "review/book", "bad")
	}); err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestSagaBaselineLosesCompensationInformation: with WRO image restore,
// the refund note written by the compensation is wiped at the savepoint —
// the agent can never learn that it already rolled back, re-buys, re-rolls
// back, and eventually fails, while the correct mechanism converges in one
// rollback. This is the §4.1 claim as an executable ablation.
func TestSagaBaselineLosesCompensationInformation(t *testing.T) {
	// Correct mechanism first: one rollback, success.
	correct := sagaShoppingCluster(t, false)
	a1, entered1, err := agent.New("paper-mode", "", shoppingItinerary(t))
	if err != nil {
		t.Fatal(err)
	}
	res1, err := correct.Run(a1, entered1, "A", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Failed {
		t.Fatalf("paper mechanism failed: %s", res1.Reason)
	}

	// Saga baseline: the agent diverges (the WRO note is erased by every
	// restore) until the retry budget kills it.
	saga := sagaShoppingCluster(t, true)
	a2, entered2 := newSagaAgent(t, "saga-mode", shoppingItinerary(t))
	res2, err := saga.Run(a2, entered2, "A", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Failed {
		t.Fatal("saga-style WRO restore converged; expected divergence (§4.1)")
	}
	snap := saga.Counters().Snapshot()
	if snap.CompTxns < 4 {
		t.Errorf("comp txns = %d, want repeated rollbacks before failure", snap.CompTxns)
	}
}

// TestSagaBaselineMintsMoney: restoring digital cash from a before-image
// resurrects coins whose value already flowed elsewhere — the double-spend
// the paper's weakly-reversible classification prevents. A savepoint taken
// *after* the cash was issued makes the duplication visible directly.
func TestSagaBaselineMintsMoney(t *testing.T) {
	cl := cluster.New(cluster.Options{
		RetryDelay:  2 * time.Millisecond,
		MaxAttempts: 4,
	})
	if err := cl.AddNode("A", bankFactory("bank", false)); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddNode("B", shopFactory("shop", resource.ShopConfig{Currency: "USD", Mode: resource.RefundCash, FeePercent: 10})); err != nil {
		t.Fatal(err)
	}
	reg := cl.Registry()
	mustRegStep(t, reg, "cashout", sagaStep(func(ctx agent.StepContext) error {
		r, _ := ctx.Resource("bank")
		cash, err := r.(*resource.Bank).IssueCash(ctx.Tx(), "alice", "USD", 500)
		if err != nil {
			return err
		}
		if err := ctx.WRO().Set(walletKey, cash); err != nil {
			return err
		}
		// Savepoint AFTER the cash is issued: the saga image captures
		// the full wallet. No compensation for the withdrawal inside
		// the rollback scope.
		ctx.Savepoint("funded")
		return nil
	}))
	mustRegStep(t, reg, "spend", sagaStep(func(ctx agent.StepContext) error {
		w, err := wallet(ctx.WRO())
		if err != nil {
			return err
		}
		r, _ := ctx.Resource("shop")
		shop := r.(*resource.Shop)
		change, err := shop.Buy(ctx.Tx(), "book", 1, w)
		if err != nil {
			return err
		}
		if err := ctx.WRO().Set(walletKey, change); err != nil {
			return err
		}
		// Count the cycles in an *uncompensated* resource effect (a
		// marker item) — the only memory the saga restore cannot erase.
		cycles, err := shop.StockOf(ctx.Tx(), "marker")
		if err != nil {
			return err
		}
		if err := shop.Restock(ctx.Tx(), "marker", 1, 0); err != nil {
			return err
		}
		if err := ctx.WRO().Set("cycles", cycles+1); err != nil {
			return err
		}
		ctx.LogComp(core.OpMixed, "comp.spend", core.NewParams().Set("paid", int64(100)))
		return nil
	}))
	mustRegStep(t, reg, "regret", sagaStep(func(ctx agent.StepContext) error {
		var cycles int
		if _, err := ctx.WRO().Get("cycles", &cycles); err != nil {
			return err
		}
		if cycles >= 3 {
			return nil // stop the demonstration after three cycles
		}
		return ctx.Rollback("funded")
	}))
	mustRegComp(t, reg, "comp.spend", func(ctx agent.CompContext) error {
		var paid int64
		if err := ctx.Params().Get("paid", &paid); err != nil {
			return err
		}
		r, err := ctx.Resource("shop")
		if err != nil {
			return err
		}
		refund, _, err := r.(*resource.Shop).Refund(ctx.Tx(), "book", 1, paid)
		if err != nil {
			return err
		}
		wro, err := ctx.WRO()
		if err != nil {
			return err
		}
		w, err := wallet(wro)
		if err != nil {
			return err
		}
		return wro.Set(walletKey, append(w, refund...))
	})
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.WithTx("A", func(tx *txn.Tx, n *node.Node) error {
		return mustBank(t, n, "bank").OpenAccount(tx, "alice", 1000)
	}); err != nil {
		t.Fatal(err)
	}
	if err := cl.WithTx("B", func(tx *txn.Tx, n *node.Node) error {
		return mustShop(t, n, "shop").Restock(tx, "book", 50, 100)
	}); err != nil {
		t.Fatal(err)
	}

	it, err := itinerary.New(&itinerary.Sub{ID: "trip", Entries: []itinerary.Entry{
		itinerary.Step{Method: "cashout", Loc: "A"},
		itinerary.Step{Method: "spend", Loc: "B"},
		itinerary.Step{Method: "regret", Loc: "A"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	a, entered := newSagaAgent(t, "minter", it)
	res, err := cl.Run(a, entered, "A", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("agent failed: %s", res.Reason)
	}
	// The books after three wallet-image restores: every restore
	// resurrected the full 500-unit coin while the previous cycle's real
	// coins (refund minus fee) evaporated with the image — the till's
	// earnings plus the resurrected wallet exceed the money that ever
	// existed.
	nodeA, _ := cl.Node("A")
	nodeB, _ := cl.Node("B")
	var alice, till int64
	if err := cl.WithTx("A", func(tx *txn.Tx, _ *node.Node) error {
		var err error
		alice, err = mustBank(t, nodeA, "bank").Balance(tx, "alice")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := cl.WithTx("B", func(tx *txn.Tx, _ *node.Node) error {
		var err error
		till, err = mustShop(t, nodeB, "shop").TillTotal(tx)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	w, err := wallet(res.Agent.WRO)
	if err != nil {
		t.Fatal(err)
	}
	var cycles int
	if err := res.Agent.WRO.MustGet("cycles", &cycles); err != nil || cycles != 3 {
		t.Fatalf("cycles = %d, %v; want 3", cycles, err)
	}
	total := alice + w.Total("USD") + till
	if total <= 1000 {
		t.Errorf("total money = %d (alice %d + wallet %d + till %d); saga restore should have minted money",
			total, alice, w.Total("USD"), till)
	}
	// The correct mechanism conserves money by construction (checked in
	// every shopping test); here each of the two completed restore
	// cycles minted the 10-unit fee difference: 1000 + 2*10.
	if total != 1020 {
		t.Errorf("total money = %d, want exactly 1020 (two image restores, 10 minted each)", total)
	}
}
