package node_test

import (
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/resource"
	"repro/internal/stable"
	"repro/internal/stable/wal"
	"repro/internal/txn"
)

// tcpNode is one "process": a TCP endpoint + wal store + node runtime,
// what cmd/agentnode assembles by default.
type tcpNode struct {
	name    string
	dataDir string
	ep      *network.TCPEndpoint
	store   *wal.Store
	n       *node.Node
	stopped sync.Once
}

// startTCPNode boots (or re-boots, crash-recovery style) one node.
func startTCPNode(t *testing.T, name, listen string, peers map[string]string, dataDir string, reg *agent.Registry, factories ...node.ResourceFactory) *tcpNode {
	t.Helper()
	ep, err := network.NewTCP(network.TCPConfig{Name: name, Listen: listen, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	store, err := wal.Open(dataDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.New(node.Config{
		Name:       name,
		Optimized:  true,
		RetryDelay: 2 * time.Millisecond,
		AckTimeout: time.Second,
	}, ep, store, reg, factories...)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	select {
	case <-n.Ready():
	case <-time.After(5 * time.Second):
		t.Fatalf("node %s never became ready", name)
	}
	return &tcpNode{name: name, dataDir: dataDir, ep: ep, store: store, n: n}
}

// stop shuts the node down; calls after the first do nothing.
func (tn *tcpNode) stop() {
	tn.stopped.Do(func() {
		tn.n.Stop()
		tn.ep.Close()
		_ = tn.store.Close()
	})
}

// loopbackAddrs reserves one free loopback address per name: the OS
// picks each port, and the listener is closed again so the node can bind
// it. Tests never share a fixed port, so reruns and parallel packages do
// not collide.
func loopbackAddrs(t *testing.T, names ...string) map[string]string {
	t.Helper()
	addrs := make(map[string]string, len(names))
	for _, name := range names {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[name] = l.Addr().String()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return addrs
}

// inTx runs f in a local transaction on tn and commits it.
func (tn *tcpNode) inTx(t *testing.T, f func(tx *txn.Tx) error) {
	t.Helper()
	tx, err := tn.n.Manager().Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := f(tx); err != nil {
		_ = tx.Abort()
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// The demo shop of cmd/agentnode: cash refunds keep a 10% fee.
var demoShopF = func(st stable.Store) (resource.Resource, error) {
	return resource.NewShop(st, "shop", resource.ShopConfig{Currency: "USD", Mode: resource.RefundCash, FeePercent: 10})
}

// demoCluster boots the demo deployment — bank on A, shop on B, review
// directory on C, a launcher endpoint "ctl" — seeded with alice's balance
// and a review that rolls every trip back.
func demoCluster(t *testing.T, ports map[string]string, reg *agent.Registry, balance int64) (a, b, c *tcpNode, ctl *network.TCPEndpoint) {
	t.Helper()
	base := t.TempDir()
	a = startTCPNode(t, "A", ports["A"], ports, filepath.Join(base, "a"), reg,
		func(st stable.Store) (resource.Resource, error) { return resource.NewBank(st, "bank", false) })
	b = startTCPNode(t, "B", ports["B"], ports, filepath.Join(base, "b"), reg, demoShopF)
	c = startTCPNode(t, "C", ports["C"], ports, filepath.Join(base, "c"), reg,
		func(st stable.Store) (resource.Resource, error) { return resource.NewDirectory(st, "dir") })
	t.Cleanup(func() { a.stop(); b.stop(); c.stop() })

	a.inTx(t, func(tx *txn.Tx) error { return bankOf(a).OpenAccount(tx, "alice", balance) })
	b.inTx(t, func(tx *txn.Tx) error { return shopOf(b).Restock(tx, "book", 5, 100) })
	c.inTx(t, func(tx *txn.Tx) error {
		r, _ := c.n.Resource("dir")
		return r.(*resource.Directory).Put(tx, "review/book", "bad")
	})

	// Launch via a ctl endpoint, like cmd/agentctl does.
	ctl, err := network.NewTCP(network.TCPConfig{Name: "ctl", Listen: ports["ctl"], Peers: ports})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctl.Close)
	return a, b, c, ctl
}

func bankOf(tn *tcpNode) *resource.Bank {
	r, _ := tn.n.Resource("bank")
	return r.(*resource.Bank)
}

func shopOf(tn *tcpNode) *resource.Shop {
	r, _ := tn.n.Resource("shop")
	return r.(*resource.Shop)
}

// runShopper launches one demo shopping agent at A through ctl and waits
// for its completion report.
func runShopper(t *testing.T, ctl *network.TCPEndpoint, id string) node.Done {
	t.Helper()
	ag, entered, err := demo.NewAgent(id, "alice", "A", "B", "C")
	if err != nil {
		t.Fatal(err)
	}
	ag.Owner = "ctl"
	if err := node.AppendInitialSavepoints(ag, entered, core.StateLogging); err != nil {
		t.Fatal(err)
	}
	data, err := node.EncodeContainer(&node.Container{Mode: node.ModeStep, Agent: ag})
	if err != nil {
		t.Fatal(err)
	}
	launch, err := node.EncodeLaunch(id, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Send("A", node.KindAgentLaunch, launch); err != nil {
		t.Fatal(err)
	}

	deadline := time.NewTimer(30 * time.Second)
	defer deadline.Stop()
	for {
		select {
		case msg, ok := <-ctl.Recv():
			if !ok {
				t.Fatal("ctl endpoint closed")
			}
			if msg.Kind != node.KindAgentDone {
				continue
			}
			done, err := node.DecodeDone(msg.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if ack, err := node.EncodeDoneAck(done.AgentID); err == nil {
				_ = ctl.Send(msg.From, node.KindAgentDoneAck, ack)
			}
			if done.AgentID != id {
				continue // a resent report of an earlier agent
			}
			if done.Failed {
				t.Fatalf("agent %s failed: %s", id, done.Reason)
			}
			return done
		case <-deadline.C:
			t.Fatalf("agent %s never completed over TCP", id)
		}
	}
}

// TestTCPMultiProcess runs the demo shopping scenario (with its partial
// rollback) across three node runtimes connected by real TCP sockets with
// file-backed stable stores — the multi-process deployment of S15. It then
// "kills" the shop node (stopping runtime and listener) and restarts it on
// the same data directory, verifying the durable resource state survived.
func TestTCPMultiProcess(t *testing.T) {
	ports := loopbackAddrs(t, "A", "B", "C", "ctl")
	reg := agent.NewRegistry()
	if err := demo.Register(reg); err != nil {
		t.Fatal(err)
	}
	_, b, _, ctl := demoCluster(t, ports, reg, 1000)

	done := runShopper(t, ctl, "tcp-shopper")
	var decision string
	if err := done.Agent.SRO.MustGet("decision", &decision); err != nil || decision != "skip" {
		t.Fatalf("decision = %q, %v; want skip (rollback ran)", decision, err)
	}
	w, err := demo.Wallet(done.Agent.WRO)
	if err != nil {
		t.Fatal(err)
	}
	if w.Total("USD") != 500 {
		t.Errorf("wallet = %d, want 500", w.Total("USD"))
	}

	// "Kill" the shop process and restart it on the same data directory:
	// the durable resource state (incl. the compensated stock and the
	// kept refund fee) must survive.
	b.stop()
	b2 := startTCPNode(t, "B", ports["B"], ports, b.dataDir, reg, demoShopF)
	t.Cleanup(b2.stop)
	if _, ok := b2.n.Resource("shop"); !ok {
		t.Fatal("shop missing after restart")
	}
	var stock int
	var till int64
	b2.inTx(t, func(tx *txn.Tx) (err error) {
		if stock, err = shopOf(b2).StockOf(tx, "book"); err != nil {
			return err
		}
		till, err = shopOf(b2).TillTotal(tx)
		return err
	})
	if stock != 5 {
		t.Errorf("stock after restart = %d, want 5 (compensated purchase persisted)", stock)
	}
	if till != 10 {
		t.Errorf("till after restart = %d, want the 10 USD refund fee", till)
	}
}

// TestTCPRefundHeavyTillHoldsFees: every trip of a refund-heavy run buys
// a 100 USD book and rolls the purchase back for a 90 USD refund, so the
// shop's till ends up holding exactly the fees, and alice's account is
// short by exactly the fees plus the cash each agent carries home.
func TestTCPRefundHeavyTillHoldsFees(t *testing.T) {
	ports := loopbackAddrs(t, "A", "B", "C", "ctl")
	reg := agent.NewRegistry()
	if err := demo.Register(reg); err != nil {
		t.Fatal(err)
	}
	const trips, fee, carried, balance = 12, 10, 500, 10000
	a, b, _, ctl := demoCluster(t, ports, reg, balance)
	for i := 0; i < trips; i++ {
		done := runShopper(t, ctl, fmt.Sprintf("refunder-%02d", i))
		if w, err := demo.Wallet(done.Agent.WRO); err != nil || w.Total("USD") != carried {
			t.Fatalf("trip %d: wallet %v, %v; want %d USD", i, w.Total("USD"), err, carried)
		}
	}
	var till, left int64
	var stock int
	b.inTx(t, func(tx *txn.Tx) (err error) {
		if stock, err = shopOf(b).StockOf(tx, "book"); err != nil {
			return err
		}
		till, err = shopOf(b).TillTotal(tx)
		return err
	})
	a.inTx(t, func(tx *txn.Tx) (err error) {
		left, err = bankOf(a).Balance(tx, "alice")
		return err
	})
	if till != trips*fee {
		t.Errorf("till = %d, want %d: the sum of %d refund fees", till, trips*fee, trips)
	}
	if stock != 5 {
		t.Errorf("stock = %d, want 5: every purchase was refunded", stock)
	}
	if left != balance-trips*(fee+carried) {
		t.Errorf("alice = %d, want %d", left, balance-trips*(fee+carried))
	}
}
