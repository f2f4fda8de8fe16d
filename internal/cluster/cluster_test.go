package cluster_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/itinerary"
	"repro/internal/node"
	"repro/internal/resource"
	"repro/internal/stable"
	"repro/internal/txn"
)

// testTimeout bounds every agent run in these tests.
const testTimeout = 10 * time.Second

func bankFactory(name string, overdraft bool) node.ResourceFactory {
	return func(store stable.Store) (resource.Resource, error) {
		return resource.NewBank(store, name, overdraft)
	}
}

func shopFactory(name string, cfg resource.ShopConfig) node.ResourceFactory {
	return func(store stable.Store) (resource.Resource, error) {
		return resource.NewShop(store, name, cfg)
	}
}

func dirFactory(name string) node.ResourceFactory {
	return func(store stable.Store) (resource.Resource, error) {
		return resource.NewDirectory(store, name)
	}
}

// shoppingCluster builds the three-node scenario used throughout: a bank
// on A, a shop on B (10% refund fee), a directory on C.
func shoppingCluster(t *testing.T, optimized bool) *cluster.Cluster {
	t.Helper()
	cl := cluster.New(cluster.Options{
		Optimized:  optimized,
		RetryDelay: 2 * time.Millisecond,
		AckTimeout: time.Second,
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
	registerShoppingSteps(t, cl, nil)
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	// Seed: alice has 1000, the shop stocks 5 books at 100, the review
	// is bad.
	if err := cl.WithTx("A", func(tx *txn.Tx, n *node.Node) error {
		b := mustBank(t, n, "bank")
		return b.OpenAccount(tx, "alice", 1000)
	}); err != nil {
		t.Fatal(err)
	}
	if err := cl.WithTx("B", func(tx *txn.Tx, n *node.Node) error {
		s := mustShop(t, n, "shop")
		return s.Restock(tx, "book", 5, 100)
	}); err != nil {
		t.Fatal(err)
	}
	if err := cl.WithTx("C", func(tx *txn.Tx, n *node.Node) error {
		d := mustDir(t, n, "dir")
		return d.Put(tx, "review/book", "bad")
	}); err != nil {
		t.Fatal(err)
	}
	return cl
}

func mustBank(t *testing.T, n *node.Node, name string) *resource.Bank {
	t.Helper()
	r, ok := n.Resource(name)
	if !ok {
		t.Fatalf("node %s: no resource %q", n.Name(), name)
	}
	b, ok := r.(*resource.Bank)
	if !ok {
		t.Fatalf("resource %q is %T, not bank", name, r)
	}
	return b
}

func mustShop(t *testing.T, n *node.Node, name string) *resource.Shop {
	t.Helper()
	r, ok := n.Resource(name)
	if !ok {
		t.Fatalf("node %s: no resource %q", n.Name(), name)
	}
	s, ok := r.(*resource.Shop)
	if !ok {
		t.Fatalf("resource %q is %T, not shop", name, r)
	}
	return s
}

func mustDir(t *testing.T, n *node.Node, name string) *resource.Directory {
	t.Helper()
	r, ok := n.Resource(name)
	if !ok {
		t.Fatalf("node %s: no resource %q", n.Name(), name)
	}
	d, ok := r.(*resource.Directory)
	if !ok {
		t.Fatalf("resource %q is %T, not directory", name, r)
	}
	return d
}

const walletKey = "wallet"

func wallet(sp *agent.Space) (resource.Cash, error) {
	var c resource.Cash
	if _, err := sp.Get(walletKey, &c); err != nil {
		return nil, err
	}
	return c, nil
}

// registerShoppingSteps wires the paper's running example:
//
//	getcash/A  withdraw digital cash (mixed compensation: redeem),
//	buybook/B  buy a book unless a refund note is present (mixed
//	           compensation: refund with fee + note),
//	check/C    read the review; bad review without a note triggers a
//	           partial rollback of the whole sub-itinerary.
//
// A non-nil wrap is applied to every step method.
func registerShoppingSteps(t *testing.T, cl *cluster.Cluster, wrap func(agent.StepFunc) agent.StepFunc) {
	t.Helper()
	reg := cl.Registry()
	regStep := func(name string, fn agent.StepFunc) {
		t.Helper()
		if wrap != nil {
			fn = wrap(fn)
		}
		mustRegStep(t, reg, name, fn)
	}

	regStep("getcash", func(ctx agent.StepContext) error {
		r, ok := ctx.Resource("bank")
		if !ok {
			return errors.New("no bank here")
		}
		bank := r.(*resource.Bank)
		cash, err := bank.IssueCash(ctx.Tx(), "alice", "USD", 500)
		if err != nil {
			return err
		}
		if err := ctx.WRO().Set(walletKey, cash); err != nil {
			return err
		}
		ctx.LogComp(core.OpMixed, "comp.getcash", core.NewParams().
			Set("bank", "bank").Set("acct", "alice").Set("currency", "USD"))
		return nil
	})

	regStep("buybook", func(ctx agent.StepContext) error {
		w, err := wallet(ctx.WRO())
		if err != nil {
			return err
		}
		if noted, err := ctx.WRO().Has("note"); err != nil {
			return err
		} else if noted {
			// Second attempt after compensation: buy nothing.
			return ctx.SRO().Set("decision", "skip")
		}
		r, ok := ctx.Resource("shop")
		if !ok {
			return errors.New("no shop here")
		}
		shop := r.(*resource.Shop)
		change, err := shop.Buy(ctx.Tx(), "book", 1, w)
		if err != nil {
			return err
		}
		if err := ctx.WRO().Set(walletKey, change); err != nil {
			return err
		}
		if err := ctx.SRO().Set("decision", "bought"); err != nil {
			return err
		}
		ctx.LogComp(core.OpMixed, "comp.buybook", core.NewParams().
			Set("shop", "shop").Set("item", "book").Set("qty", 1).Set("paid", int64(100)))
		return nil
	})

	regStep("check", func(ctx agent.StepContext) error {
		r, ok := ctx.Resource("dir")
		if !ok {
			return errors.New("no directory here")
		}
		dir := r.(*resource.Directory)
		review, _, err := dir.Lookup(ctx.Tx(), "review/book")
		if err != nil {
			return err
		}
		if err := ctx.SRO().Set("review", review); err != nil {
			return err
		}
		noted, err := ctx.WRO().Has("note")
		if err != nil {
			return err
		}
		if review == "bad" && !noted {
			return ctx.RollbackCurrentSub()
		}
		return ctx.SRO().Set("done", true)
	})

	mustRegComp(t, reg, "comp.getcash", func(ctx agent.CompContext) error {
		var bankName, acct, currency string
		if err := ctx.Params().Get("bank", &bankName); err != nil {
			return err
		}
		if err := ctx.Params().Get("acct", &acct); err != nil {
			return err
		}
		if err := ctx.Params().Get("currency", &currency); err != nil {
			return err
		}
		r, err := ctx.Resource(bankName)
		if err != nil {
			return err
		}
		bank := r.(*resource.Bank)
		wro, err := ctx.WRO()
		if err != nil {
			return err
		}
		w, err := wallet(wro)
		if err != nil {
			return err
		}
		if err := bank.RedeemCash(ctx.Tx(), acct, currency, w); err != nil {
			return err
		}
		// Remove the redeemed coins from the wallet; coins of other
		// currencies stay.
		var rest resource.Cash
		for _, coin := range w {
			if coin.Currency != currency {
				rest = append(rest, coin)
			}
		}
		return wro.Set(walletKey, rest)
	})

	mustRegComp(t, reg, "comp.buybook", func(ctx agent.CompContext) error {
		var shopName, item string
		var qty int
		var paid int64
		if err := ctx.Params().Get("shop", &shopName); err != nil {
			return err
		}
		if err := ctx.Params().Get("item", &item); err != nil {
			return err
		}
		if err := ctx.Params().Get("qty", &qty); err != nil {
			return err
		}
		if err := ctx.Params().Get("paid", &paid); err != nil {
			return err
		}
		r, err := ctx.Resource(shopName)
		if err != nil {
			return err
		}
		shop := r.(*resource.Shop)
		refund, note, err := shop.Refund(ctx.Tx(), item, qty, paid)
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
		if err := wro.Set(walletKey, append(w, refund...)); err != nil {
			return err
		}
		if note != nil {
			if err := wro.Set("creditnote", note); err != nil {
				return err
			}
		}
		return wro.Set("note", "refunded")
	})
}

func mustRegStep(t *testing.T, reg *agent.Registry, name string, fn agent.StepFunc) {
	t.Helper()
	if err := reg.RegisterStep(name, fn); err != nil {
		t.Fatal(err)
	}
}

func mustRegComp(t *testing.T, reg *agent.Registry, name string, fn agent.CompFunc) {
	t.Helper()
	if err := reg.RegisterComp(name, fn); err != nil {
		t.Fatal(err)
	}
}

func shoppingItinerary(t *testing.T) *itinerary.Itinerary {
	t.Helper()
	it, err := itinerary.New(&itinerary.Sub{
		ID: "job",
		Entries: []itinerary.Entry{
			itinerary.Step{Method: "getcash", Loc: "A"},
			itinerary.Step{Method: "buybook", Loc: "B"},
			itinerary.Step{Method: "check", Loc: "C"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return it
}

// runShopping executes the shopping agent to completion and checks the
// full post-rollback invariants of §3.2/§4.1.
func runShopping(t *testing.T, optimized bool) {
	t.Helper()
	cl := shoppingCluster(t, optimized)
	a, entered, err := agent.New("shopper-1", "", shoppingItinerary(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(a, entered, "A", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("agent failed: %s", res.Reason)
	}

	// The agent rolled back once (book refunded, fee lost), then re-ran
	// the sub-itinerary and skipped the purchase.
	final := res.Agent
	var decision string
	if err := final.SRO.MustGet("decision", &decision); err != nil {
		t.Fatal(err)
	}
	if decision != "skip" {
		t.Errorf("decision = %q, want skip (post-compensation path)", decision)
	}
	var done bool
	if err := final.SRO.MustGet("done", &done); err != nil || !done {
		t.Errorf("done = %v, %v; want true", done, err)
	}
	w, err := wallet(final.WRO)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Total("USD"); got != 500 {
		t.Errorf("wallet = %d, want 500 (fresh cash after re-run)", got)
	}

	// Resource-side invariants.
	nodeA, _ := cl.Node("A")
	nodeB, _ := cl.Node("B")
	var alice int64
	var stock int
	if err := cl.WithTx("A", func(tx *txn.Tx, n *node.Node) error {
		var err error
		alice, err = mustBank(t, nodeA, "bank").Balance(tx, "alice")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := cl.WithTx("B", func(tx *txn.Tx, n *node.Node) error {
		var err error
		stock, err = mustShop(t, nodeB, "shop").StockOf(tx, "book")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if alice != 490 {
		t.Errorf("alice balance = %d, want 490 (1000 - 500 cash out - 10 refund fee + 490 redeemed - 480... see test comment)", alice)
	}
	if stock != 5 {
		t.Errorf("book stock = %d, want 5 (purchase compensated)", stock)
	}
	// Conservation: account + wallet + shop fee = 1000.
	if total := alice + w.Total("USD") + 10; total != 1000 {
		t.Errorf("money conservation violated: %d + %d + 10 = %d, want 1000", alice, w.Total("USD"), total)
	}

	// The refund coin must have a different serial than the original
	// coins (§3.2: equivalent, not identical, state) — verified via the
	// note left by the compensation.
	var note string
	if err := final.WRO.MustGet("note", &note); err != nil || note != "refunded" {
		t.Errorf("note = %q, %v; want refunded", note, err)
	}
}

func TestShoppingRollbackBasic(t *testing.T)     { runShopping(t, false) }
func TestShoppingRollbackOptimized(t *testing.T) { runShopping(t, true) }

// TestShoppingNoRollback verifies the forward path: with a good review the
// agent keeps its purchase.
func TestShoppingNoRollback(t *testing.T) {
	cl := shoppingCluster(t, false)
	if err := cl.WithTx("C", func(tx *txn.Tx, n *node.Node) error {
		return mustDir(t, n, "dir").Put(tx, "review/book", "good")
	}); err != nil {
		t.Fatal(err)
	}
	a, entered, err := agent.New("shopper-2", "", shoppingItinerary(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(a, entered, "A", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("agent failed: %s", res.Reason)
	}
	var decision string
	if err := res.Agent.SRO.MustGet("decision", &decision); err != nil || decision != "bought" {
		t.Fatalf("decision = %q, %v; want bought", decision, err)
	}
	w, err := wallet(res.Agent.WRO)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Total("USD"); got != 400 {
		t.Errorf("wallet = %d, want 400", got)
	}
	// Log was discarded when the top-level sub-itinerary completed.
	if res.Agent.Log.Len() != 0 {
		t.Errorf("log has %d entries after top-level completion, want 0: %s",
			res.Agent.Log.Len(), res.Agent.Log)
	}
}

// TestRollbackUnknownSavepoint: rolling back to a savepoint that is not in
// the log is a permanent failure reported to the owner.
func TestRollbackUnknownSavepoint(t *testing.T) {
	cl := cluster.New(cluster.Options{RetryDelay: 2 * time.Millisecond})
	if err := cl.AddNode("A"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Registry().RegisterStep("boom", func(ctx agent.StepContext) error {
		return ctx.Rollback("nonexistent")
	}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	it, err := itinerary.New(&itinerary.Sub{ID: "s", Entries: []itinerary.Entry{
		itinerary.Step{Method: "boom", Loc: "A"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	a, entered, err := agent.New("boomer", "", it)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(a, entered, "A", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed {
		t.Fatal("agent succeeded, want permanent failure")
	}
	if !strings.Contains(res.Reason, "no savepoint") {
		t.Errorf("reason = %q, want mention of missing savepoint", res.Reason)
	}
}
