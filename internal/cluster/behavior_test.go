package cluster_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/itinerary"
	"repro/internal/node"
	"repro/internal/resource"
	"repro/internal/txn"
	"repro/internal/wire"
)

// miniCluster builds a 2-node cluster (n1 with a bank, n2 bare) for the
// behavior tests; steps/comps are registered per test.
func miniCluster(t *testing.T, optimized bool) *cluster.Cluster {
	t.Helper()
	cl := cluster.New(cluster.Options{
		Optimized:   optimized,
		RetryDelay:  2 * time.Millisecond,
		AckTimeout:  time.Second,
		MaxAttempts: 8,
	})
	if err := cl.AddNode("n1", bankFactory("bank", true)); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddNode("n2"); err != nil {
		t.Fatal(err)
	}
	return cl
}

func startMini(t *testing.T, cl *cluster.Cluster) {
	t.Helper()
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	nd, _ := cl.Node("n1")
	if err := cl.WithTx("n1", func(tx *txn.Tx, _ *node.Node) error {
		return mustBank(t, nd, "bank").OpenAccount(tx, "acct", 100)
	}); err != nil {
		t.Fatal(err)
	}
}

// twoStepItinerary: a compensated step on n1, then a rollback trigger on n2.
func twoStepItinerary(t *testing.T, step1, step2 string) *itinerary.Itinerary {
	t.Helper()
	it, err := itinerary.New(&itinerary.Sub{ID: "job", Entries: []itinerary.Entry{
		itinerary.Step{Method: step1, Loc: "n1"},
		itinerary.Step{Method: step2, Loc: "n2"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return it
}

// registerRollbackOnce registers a step that requests a rollback exactly
// once (keyed off a WRO marker set by compensation "mark").
func registerRollbackOnce(t *testing.T, cl *cluster.Cluster, name string) {
	t.Helper()
	mustRegStep(t, cl.Registry(), name, func(ctx agent.StepContext) error {
		if done, err := ctx.WRO().Has("marked"); err != nil {
			return err
		} else if done {
			return ctx.SRO().Set("ok", true)
		}
		return ctx.RollbackCurrentSub()
	})
	mustRegComp(t, cl.Registry(), "mark", func(ctx agent.CompContext) error {
		wro, err := ctx.WRO()
		if err != nil {
			return err
		}
		return wro.Set("marked", true)
	})
}

// TestResourceCompCannotTouchAgent: a resource compensation entry that
// tries to access the WRO violates §4.4.1 and permanently fails the
// rollback.
func TestResourceCompCannotTouchAgent(t *testing.T) {
	cl := miniCluster(t, false)
	mustRegStep(t, cl.Registry(), "work", func(ctx agent.StepContext) error {
		ctx.LogComp(core.OpResource, "evil-res-comp", core.NewParams())
		ctx.LogComp(core.OpAgent, "mark", core.NewParams())
		return nil
	})
	mustRegComp(t, cl.Registry(), "evil-res-comp", func(ctx agent.CompContext) error {
		if _, err := ctx.WRO(); err != nil {
			return fmt.Errorf("caught: %w", err)
		}
		return nil
	})
	registerRollbackOnce(t, cl, "trigger")
	startMini(t, cl)

	a, entered, err := agent.New("evil1", "", twoStepItinerary(t, "work", "trigger"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(a, entered, "n1", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed {
		t.Fatal("rollback with agent-accessing resource compensation succeeded")
	}
	if !strings.Contains(res.Reason, "must not access the agent") {
		t.Errorf("reason = %q", res.Reason)
	}
}

// TestAgentCompCannotTouchResources mirrors the rule for agent
// compensation entries.
func TestAgentCompCannotTouchResources(t *testing.T) {
	cl := miniCluster(t, false)
	mustRegStep(t, cl.Registry(), "work", func(ctx agent.StepContext) error {
		ctx.LogComp(core.OpAgent, "evil-agent-comp", core.NewParams())
		return nil
	})
	mustRegComp(t, cl.Registry(), "evil-agent-comp", func(ctx agent.CompContext) error {
		if _, err := ctx.Resource("bank"); err != nil {
			return fmt.Errorf("caught: %w", err)
		}
		return nil
	})
	registerRollbackOnce(t, cl, "trigger")
	startMini(t, cl)

	a, entered, err := agent.New("evil2", "", twoStepItinerary(t, "work", "trigger"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(a, entered, "n1", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed {
		t.Fatal("rollback with resource-accessing agent compensation succeeded")
	}
	if !strings.Contains(res.Reason, "must not access resources") {
		t.Errorf("reason = %q", res.Reason)
	}
}

// The §4.3 rule that strongly reversible objects are inaccessible during
// compensation is enforced twice: CompContext has no SRO accessor at all
// (compile-time), and the live agent's SRO space is frozen for the
// duration of every compensation transaction (runtime; covered by
// TestSpaceFreeze in internal/agent). A compensation cannot smuggle a
// pointer across: the agent processed during rollback is freshly decoded
// from the stable queue, never the instance a step closure captured.

// TestUnknownCompensationIsPermanent: a step logging a compensation that
// is not registered makes the step non-compensable (§3.2) — the rollback
// fails permanently instead of retrying forever.
//
// The failed agent is reported with the target savepoint's SRO, a state
// it really held: the rollback swapped it in before its first
// compensation, so the "tick" the non-compensable step set is gone.
func TestUnknownCompensationIsPermanent(t *testing.T) {
	cl := miniCluster(t, false)
	mustRegStep(t, cl.Registry(), "work", func(ctx agent.StepContext) error {
		ctx.LogComp(core.OpResource, "never-registered", core.NewParams())
		return ctx.SRO().Set("tick", 1)
	})
	registerRollbackOnce(t, cl, "trigger")
	startMini(t, cl)

	a, entered, err := agent.New("noncomp", "", twoStepItinerary(t, "work", "trigger"))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SRO.Set("seed", "launch"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := cl.Run(a, entered, "n1", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed {
		t.Fatal("rollback of a non-compensable step succeeded")
	}
	if !strings.Contains(res.Reason, "unknown compensating operation") {
		t.Errorf("reason = %q", res.Reason)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("permanent failure took the full retry budget")
	}
	want := agent.NewSpace()
	if err := want.Set("seed", "launch"); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Agent.SRO.Data, want.Data) {
		t.Errorf("failed agent's SRO = %q, want the target savepoint's %q", res.Agent.SRO.Data, want.Data)
	}
}

// TestCompensationRetriesTransientFailure: a compensation that fails a few
// times (deadlock, unavailable funds, ...) is retried until it succeeds —
// §4.3: "enabling the algorithm to restart this compensation transaction".
func TestCompensationRetriesTransientFailure(t *testing.T) {
	cl := miniCluster(t, false)
	var failures atomic.Int32
	mustRegStep(t, cl.Registry(), "work", func(ctx agent.StepContext) error {
		ctx.LogComp(core.OpResource, "flaky", core.NewParams())
		ctx.LogComp(core.OpAgent, "mark", core.NewParams())
		return nil
	})
	mustRegComp(t, cl.Registry(), "flaky", func(ctx agent.CompContext) error {
		if failures.Add(1) <= 3 {
			return errors.New("transient: try again")
		}
		return nil
	})
	registerRollbackOnce(t, cl, "trigger")
	startMini(t, cl)

	a, entered, err := agent.New("flaky1", "", twoStepItinerary(t, "work", "trigger"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(a, entered, "n1", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("agent failed despite transient compensation error: %s", res.Reason)
	}
	if got := failures.Load(); got != 4 {
		t.Errorf("compensation attempts = %d, want 4 (3 failures + success)", got)
	}
	snap := cl.Counters().Snapshot()
	if snap.CompTxnAborts < 3 {
		t.Errorf("comp txn aborts = %d, want >= 3", snap.CompTxnAborts)
	}
}

// TestTransitionLoggingEndToEnd runs the full shopping rollback under
// transition logging; SRO restoration must be identical to state logging.
func TestTransitionLoggingEndToEnd(t *testing.T) {
	cl := cluster.New(cluster.Options{
		LogMode:    core.TransitionLogging,
		RetryDelay: 2 * time.Millisecond,
	})
	if err := cl.AddNode("n1", bankFactory("bank", true)); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddNode("n2"); err != nil {
		t.Fatal(err)
	}
	reg := cl.Registry()
	mustRegStep(t, reg, "accumulate", func(ctx agent.StepContext) error {
		var n int
		if _, err := ctx.SRO().Get("n", &n); err != nil {
			return err
		}
		if err := ctx.SRO().Set("n", n+1); err != nil {
			return err
		}
		ctx.Savepoint(fmt.Sprintf("after-%d", n+1))
		return nil
	})
	mustRegStep(t, reg, "rollback-mid", func(ctx agent.StepContext) error {
		if done, err := ctx.WRO().Has("marked"); err != nil {
			return err
		} else if done {
			return nil
		}
		return ctx.Rollback("after-2") // restore to n == 2
	})
	mustRegStep(t, reg, "arm", func(ctx agent.StepContext) error {
		ctx.LogComp(core.OpAgent, "mark", core.NewParams())
		return nil
	})
	mustRegComp(t, reg, "mark", func(ctx agent.CompContext) error {
		wro, err := ctx.WRO()
		if err != nil {
			return err
		}
		return wro.Set("marked", true)
	})
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	it, err := itinerary.New(&itinerary.Sub{ID: "job", Entries: []itinerary.Entry{
		itinerary.Step{Method: "accumulate", Loc: "n1"},
		itinerary.Step{Method: "accumulate", Loc: "n2"},
		itinerary.Step{Method: "accumulate", Loc: "n1"},
		itinerary.Step{Method: "arm", Loc: "n2"},
		itinerary.Step{Method: "rollback-mid", Loc: "n1"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	a, entered, err := agent.New("trans1", "", it)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(a, entered, "n1", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("agent failed: %s", res.Reason)
	}
	// Rolled back to after-2 (n==2), then re-ran accumulate (step 3),
	// arm, rollback-mid (marked -> proceed): final n == 3.
	var n int
	if err := res.Agent.SRO.MustGet("n", &n); err != nil || n != 3 {
		t.Errorf("n = %d, %v; want 3 (restored to 2, one more accumulate)", n, err)
	}
}

// TestRollbackRestoresTargetSRO: the first step after a rollback sees
// exactly the SRO its target savepoint recorded — keys the undone step
// added are gone, values it overwrote are back — under both logging
// modes, for a data-carrying target ("manual", constituted by a step) and
// for a special one ("inner", §4.4.2: the nested sub entered right after
// it, which references "manual").
func TestRollbackRestoresTargetSRO(t *testing.T) {
	modes := []struct {
		name string
		mode core.LogMode
	}{{"state", core.StateLogging}, {"transition", core.TransitionLogging}}
	for _, m := range modes {
		for _, target := range []string{"manual", "inner"} {
			t.Run(m.name+"/"+target, func(t *testing.T) {
				testRollbackRestoresTargetSRO(t, m.mode, target)
			})
		}
	}
}

func testRollbackRestoresTargetSRO(t *testing.T, mode core.LogMode, target string) {
	cl := cluster.New(cluster.Options{LogMode: mode, RetryDelay: 2 * time.Millisecond})
	for _, n := range []string{"n1", "n2"} {
		if err := cl.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	reg := cl.Registry()
	set := func(s *agent.Space, kv ...any) error {
		for i := 0; i < len(kv); i += 2 {
			if err := s.Set(kv[i].(string), kv[i+1]); err != nil {
				return err
			}
		}
		return nil
	}
	mustRegStep(t, reg, "fill", func(ctx agent.StepContext) error {
		return set(ctx.SRO(), "k0", "v0", "last", 0)
	})
	mustRegStep(t, reg, "checkpoint", func(ctx agent.StepContext) error {
		ctx.Savepoint("manual")
		return set(ctx.SRO(), "k1", "v1", "last", 1)
	})
	mustRegStep(t, reg, "observe", func(ctx agent.StepContext) error {
		rolled, err := ctx.WRO().Has("marked")
		if err != nil {
			return err
		}
		if seen, err := ctx.WRO().Has("seen"); err != nil {
			return err
		} else if rolled && !seen {
			if err := ctx.WRO().Set("seen", wire.AppendBytesMap(nil, ctx.SRO().Snapshot())); err != nil {
				return err
			}
		}
		ctx.LogComp(core.OpAgent, "mark", core.NewParams())
		return set(ctx.SRO(), "k2", "v2", "last", 2, "base", "overwritten")
	})
	mustRegStep(t, reg, "trigger", func(ctx agent.StepContext) error {
		if rolled, err := ctx.WRO().Has("marked"); err != nil || rolled {
			return err
		}
		return ctx.Rollback(target)
	})
	mustRegComp(t, reg, "mark", func(ctx agent.CompContext) error {
		wro, err := ctx.WRO()
		if err != nil {
			return err
		}
		return wro.Set("marked", true)
	})
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	it, err := itinerary.New(&itinerary.Sub{ID: "job", Entries: []itinerary.Entry{
		itinerary.Step{Method: "fill", Loc: "n1"},
		itinerary.Step{Method: "checkpoint", Loc: "n2"},
		&itinerary.Sub{ID: "inner", Entries: []itinerary.Entry{
			itinerary.Step{Method: "observe", Loc: "n1"},
			itinerary.Step{Method: "trigger", Loc: "n2"},
		}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	a, entered, err := agent.New("restore-"+target, "", it)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SRO.Set("base", "launch"); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(a, entered, "n1", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("agent failed: %s", res.Reason)
	}
	var raw []byte
	if err := res.Agent.WRO.MustGet("seen", &raw); err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(raw)
	seen := r.BytesMap()
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	// The state "manual" recorded: the checkpoint step's savepoint is
	// constituted at the end of that step.
	want := agent.NewSpace()
	if err := set(want, "base", "launch", "k0", "v0", "k1", "v1", "last", 1); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seen, want.Data) {
		t.Errorf("first step after the rollback saw SRO %q, want the target's %q", seen, want.Data)
	}
}

// TestManualSavepointMidSub: an application-defined savepoint inside a
// sub-itinerary is a valid rollback target; steps before it stay
// committed.
func TestManualSavepointMidSub(t *testing.T) {
	cl := miniCluster(t, false)
	var comps atomic.Int32
	reg := cl.Registry()
	mustRegStep(t, reg, "pay", func(ctx agent.StepContext) error {
		r, _ := ctx.Resource("bank")
		if err := r.(*resource.Bank).Deposit(ctx.Tx(), "acct", 10); err != nil {
			return err
		}
		ctx.LogComp(core.OpResource, "unpay", core.NewParams())
		// The mark compensation only runs if THIS step is compensated;
		// only the pay after the savepoint will be.
		ctx.LogComp(core.OpAgent, "mark", core.NewParams())
		return nil
	})
	mustRegStep(t, reg, "checkpoint", func(ctx agent.StepContext) error {
		ctx.Savepoint("manual-sp")
		return nil
	})
	mustRegStep(t, reg, "maybe-rollback", func(ctx agent.StepContext) error {
		if done, err := ctx.WRO().Has("marked"); err != nil {
			return err
		} else if done {
			return nil
		}
		return ctx.Rollback("manual-sp")
	})
	mustRegComp(t, reg, "unpay", func(ctx agent.CompContext) error {
		comps.Add(1)
		r, err := ctx.Resource("bank")
		if err != nil {
			return err
		}
		return r.(*resource.Bank).Withdraw(ctx.Tx(), "acct", 10)
	})
	mustRegComp(t, reg, "mark", func(ctx agent.CompContext) error {
		wro, err := ctx.WRO()
		if err != nil {
			return err
		}
		return wro.Set("marked", true)
	})
	startMini(t, cl)

	it, err := itinerary.New(&itinerary.Sub{ID: "job", Entries: []itinerary.Entry{
		itinerary.Step{Method: "pay", Loc: "n1"},        // before the savepoint: stays
		itinerary.Step{Method: "checkpoint", Loc: "n2"}, // constitutes manual-sp + mark comp
		itinerary.Step{Method: "pay", Loc: "n1"},        // after: compensated
		itinerary.Step{Method: "maybe-rollback", Loc: "n2"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	a, entered, err := agent.New("manual1", "", it)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(a, entered, "n1", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("agent failed: %s", res.Reason)
	}
	// Rollback to manual-sp compensates only the second pay (and the
	// checkpoint's own mark comp must NOT run — the savepoint target is
	// after that step). Re-run: pay again. Wait: after restore the
	// cursor is at the step following checkpoint: the second pay re-runs.
	nd, _ := cl.Node("n1")
	var bal int64
	if err := cl.WithTx("n1", func(tx *txn.Tx, _ *node.Node) error {
		var err error
		bal, err = mustBank(t, nd, "bank").Balance(tx, "acct")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// 100 start + pay1 (10) + pay2 (10, compensated) + pay2 re-run (10).
	if bal != 120 {
		t.Errorf("balance = %d, want 120", bal)
	}
	if got := comps.Load(); got != 1 {
		t.Errorf("unpay compensations = %d, want 1 (only the step after the savepoint)", got)
	}
}

// TestManyAgentsInterleaved runs several agents concurrently through the
// same nodes; the per-node worker serializes their transactions and every
// agent must complete with its own invariant intact.
func TestManyAgentsInterleaved(t *testing.T) {
	cl := miniCluster(t, true)
	reg := cl.Registry()
	mustRegStep(t, reg, "spin", func(ctx agent.StepContext) error {
		r, _ := ctx.Resource("bank")
		var acct string
		if err := ctx.WRO().MustGet("acct", &acct); err != nil {
			return err
		}
		if err := r.(*resource.Bank).Deposit(ctx.Tx(), acct, 1); err != nil {
			return err
		}
		ctx.LogComp(core.OpResource, "unspin", core.NewParams().Set("acct", acct))
		ctx.LogComp(core.OpAgent, "mark", core.NewParams())
		return nil
	})
	registerRollbackOnce(t, cl, "spin-check")
	mustRegComp(t, reg, "unspin", func(ctx agent.CompContext) error {
		var acct string
		if err := ctx.Params().Get("acct", &acct); err != nil {
			return err
		}
		r, err := ctx.Resource("bank")
		if err != nil {
			return err
		}
		return r.(*resource.Bank).Withdraw(ctx.Tx(), acct, 1)
	})
	startMini(t, cl)

	const agents = 6
	nd, _ := cl.Node("n1")
	for i := 0; i < agents; i++ {
		acct := fmt.Sprintf("acct-%d", i)
		if err := cl.WithTx("n1", func(tx *txn.Tx, _ *node.Node) error {
			return mustBank(t, nd, "bank").OpenAccount(tx, acct, 0)
		}); err != nil {
			t.Fatal(err)
		}
	}
	chans := make([]<-chan cluster.Result, agents)
	for i := 0; i < agents; i++ {
		it, err := itinerary.New(&itinerary.Sub{ID: "job", Entries: []itinerary.Entry{
			itinerary.Step{Method: "spin", Loc: "n1"},
			itinerary.Step{Method: "spin-check", Loc: "n2"},
		}})
		if err != nil {
			t.Fatal(err)
		}
		a, entered, err := agent.New(fmt.Sprintf("multi-%d", i), "", it)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.WRO.Set("acct", fmt.Sprintf("acct-%d", i)); err != nil {
			t.Fatal(err)
		}
		ch, err := cl.Launch(a, entered, "n1")
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	for i, ch := range chans {
		select {
		case res := <-ch:
			if res.Failed {
				t.Errorf("agent %d failed: %s", i, res.Reason)
			}
		case <-time.After(testTimeout):
			t.Fatalf("agent %d stuck", i)
		}
	}
	// Every account: +1 (first pass), -1 (compensation), +1 (re-run) = 1.
	for i := 0; i < agents; i++ {
		acct := fmt.Sprintf("acct-%d", i)
		var bal int64
		if err := cl.WithTx("n1", func(tx *txn.Tx, _ *node.Node) error {
			var err error
			bal, err = mustBank(t, nd, "bank").Balance(tx, acct)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if bal != 1 {
			t.Errorf("%s balance = %d, want 1", acct, bal)
		}
	}
}

// TestRefundNoneShopMakesRollbackPermanentFailure: a purchase at a no-
// refund shop cannot be compensated (§3.2: "if a step contains an
// operation which cannot be compensated, the step cannot be rolled back").
func TestRefundNoneShopMakesRollbackPermanentFailure(t *testing.T) {
	cl := cluster.New(cluster.Options{
		RetryDelay:  2 * time.Millisecond,
		MaxAttempts: 6,
	})
	if err := cl.AddNode("n1", shopFactory("shop", resource.ShopConfig{Currency: "USD", Mode: resource.RefundNone})); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddNode("n2"); err != nil {
		t.Fatal(err)
	}
	reg := cl.Registry()
	mustRegStep(t, reg, "buy-final", func(ctx agent.StepContext) error {
		r, _ := ctx.Resource("shop")
		pay := resource.Cash{{Serial: "c", Currency: "USD", Value: 100}}
		if _, err := r.(*resource.Shop).Buy(ctx.Tx(), "item", 1, pay); err != nil {
			return err
		}
		ctx.LogComp(core.OpMixed, "refund-final", core.NewParams())
		return nil
	})
	mustRegStep(t, reg, "regret", func(ctx agent.StepContext) error {
		return ctx.RollbackCurrentSub()
	})
	mustRegComp(t, reg, "refund-final", func(ctx agent.CompContext) error {
		r, err := ctx.Resource("shop")
		if err != nil {
			return err
		}
		refund, _, err := r.(*resource.Shop).Refund(ctx.Tx(), "item", 1, 100)
		if err != nil {
			return err // ErrNotCompensable
		}
		_ = refund
		return nil
	})
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	nd, _ := cl.Node("n1")
	if err := cl.WithTx("n1", func(tx *txn.Tx, _ *node.Node) error {
		return mustShop(t, nd, "shop").Restock(tx, "item", 1, 100)
	}); err != nil {
		t.Fatal(err)
	}

	a, entered, err := agent.New("final-sale", "", twoStepItinerary(t, "buy-final", "regret"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(a, entered, "n1", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed {
		t.Fatal("rollback of a final-sale purchase succeeded")
	}
}
