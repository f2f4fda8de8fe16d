package demo_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/node"
	"repro/internal/resource"
	"repro/internal/stable"
	"repro/internal/txn"
	"repro/internal/wire"
)

// TestDemoScenario runs the library shared by the multi-process binaries
// on a simulated cluster: rollback, refund fee, second-pass skip.
func TestDemoScenario(t *testing.T) {
	runScenario(t, stable.Spec{})
}

// runScenario runs the demo trip — a bad review, so a rollback, a refund
// and a second pass that skips the purchase — on a simulated cluster
// whose nodes open store, and checks its outcome.
func runScenario(t *testing.T, store stable.Spec) {
	t.Helper()
	cl := cluster.New(cluster.Options{RetryDelay: 2 * time.Millisecond, Store: store})
	defer cl.Close()
	if err := cl.AddNode("A", func(s stable.Store) (resource.Resource, error) {
		return resource.NewBank(s, "bank", false)
	}); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddNode("B", func(s stable.Store) (resource.Resource, error) {
		return resource.NewShop(s, "shop", resource.ShopConfig{Currency: "USD", Mode: resource.RefundCash, FeePercent: 10})
	}); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddNode("C", func(s stable.Store) (resource.Resource, error) {
		return resource.NewDirectory(s, "dir")
	}); err != nil {
		t.Fatal(err)
	}
	if err := demo.Register(cl.Registry()); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	seed := func(nodeName string, f func(tx *txn.Tx, n *node.Node) error) {
		t.Helper()
		if err := cl.WithTx(nodeName, f); err != nil {
			t.Fatal(err)
		}
	}
	seed("A", func(tx *txn.Tx, n *node.Node) error {
		r, _ := n.Resource("bank")
		return r.(*resource.Bank).OpenAccount(tx, "alice", 1000)
	})
	seed("B", func(tx *txn.Tx, n *node.Node) error {
		r, _ := n.Resource("shop")
		return r.(*resource.Shop).Restock(tx, "book", 5, 100)
	})
	seed("C", func(tx *txn.Tx, n *node.Node) error {
		r, _ := n.Resource("dir")
		return r.(*resource.Directory).Put(tx, "review/book", "bad")
	})

	a, entered, err := demo.NewAgent("demo1", "alice", "A", "B", "C")
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(a, entered, "A", 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("agent failed: %s", res.Reason)
	}
	var decision, review string
	if err := res.Agent.SRO.MustGet("decision", &decision); err != nil || decision != "skip" {
		t.Errorf("decision = %q, %v", decision, err)
	}
	if err := res.Agent.SRO.MustGet("review", &review); err != nil || review != "bad" {
		t.Errorf("review = %q, %v", review, err)
	}
	w, err := demo.Wallet(res.Agent.WRO)
	if err != nil {
		t.Fatal(err)
	}
	if w.Total("USD") != 500 {
		t.Errorf("wallet = %d, want 500", w.Total("USD"))
	}
}

// audits maps the data dir of a cluster run under the "mem-value-audit"
// engine to the audit of the containers its nodes queued.
var audits sync.Map

func init() {
	stable.RegisterEngine("mem-value-audit", func(spec stable.Spec) (stable.Store, error) {
		a, _ := audits.LoadOrStore(filepath.Dir(spec.Dir), &valueAudit{})
		return &auditStore{Store: stable.NewMemStore(spec.Counters), audit: a.(*valueAudit)}, nil
	})
}

// valueAudit records, for the containers written to any node's input
// queue, how many there were, the wallets among their values, and every
// value that is not written under a value-codec tag.
type valueAudit struct {
	mu         sync.Mutex
	containers int
	wallets    int
	untagged   []string
}

// auditStore is a store that audits every container queued through it.
type auditStore struct {
	stable.Store
	audit *valueAudit
}

func (s *auditStore) Apply(batch ...stable.Op) error {
	for _, op := range batch {
		if strings.HasPrefix(op.Key, "q/e/") && op.Value != nil {
			s.audit.check(op.Key, op.Value)
		}
	}
	return s.Store.Apply(batch...)
}

// check audits one queued container: its WRO and SRO, and in its
// rollback log every savepoint's SRO image or delta and every
// compensation's parameters.
func (a *valueAudit) check(key string, data []byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.containers++
	c, err := node.DecodeContainer(data)
	if err != nil {
		a.untagged = append(a.untagged, fmt.Sprintf("%s: %v", key, err))
		return
	}
	values := func(where string, m map[string][]byte) {
		for k, v := range m {
			if !wire.Tagged(v) {
				a.untagged = append(a.untagged, fmt.Sprintf("%s %s[%q] = % x", key, where, k, v))
			}
			if k == demo.WalletKey {
				a.wallets++
			}
		}
	}
	values("WRO", c.Agent.WRO.Snapshot())
	values("SRO", c.Agent.SRO.Snapshot())
	for i, e := range c.Agent.Log.Entries {
		switch e := e.(type) {
		case *core.SavepointEntry:
			values(fmt.Sprintf("log[%d].Image", i), e.Image)
			if e.Delta != nil {
				values(fmt.Sprintf("log[%d].Delta", i), e.Delta.Changed)
			}
		case *core.OpEntry:
			values(fmt.Sprintf("log[%d].Params", i), e.Params)
		}
	}
}

// TestDemoTripValuesTagged guards the deployment's trip against gob: every
// value in every container the demo trip queues — its data spaces, its
// savepoints' SRO and its compensations' parameters, the wallet of
// digital cash included — is written under a value-codec tag.
func TestDemoTripValuesTagged(t *testing.T) {
	dir := t.TempDir()
	runScenario(t, stable.Spec{Engine: "mem-value-audit", Dir: dir})
	v, ok := audits.Load(dir)
	if !ok {
		t.Fatal("no node opened an audited store")
	}
	a := v.(*valueAudit)
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.containers == 0 || a.wallets == 0 {
		t.Fatalf("audited %d containers holding %d wallets; want the trip's, wallets included", a.containers, a.wallets)
	}
	for _, u := range a.untagged {
		t.Errorf("untagged value: %s", u)
	}
}

func TestDemoRegisterTwiceFails(t *testing.T) {
	reg := agent.NewRegistry()
	if err := demo.Register(reg); err != nil {
		t.Fatal(err)
	}
	if err := demo.Register(reg); err == nil {
		t.Error("double registration succeeded")
	}
}

func TestDemoItineraryShape(t *testing.T) {
	it, err := demo.Itinerary("x", "y", "z")
	if err != nil {
		t.Fatal(err)
	}
	c, entered, err := it.Start()
	if err != nil {
		t.Fatal(err)
	}
	if len(entered) != 1 || entered[0] != "trip" {
		t.Errorf("entered = %v", entered)
	}
	step, err := it.StepAt(c)
	if err != nil || step.Loc != "x" {
		t.Errorf("first step = %+v, %v", step, err)
	}
}
