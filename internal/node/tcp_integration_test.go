package node_test

import (
	"path/filepath"
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
)

// tcpNode is one "process": a TCP endpoint + wal store + node runtime,
// what cmd/agentnode assembles by default.
type tcpNode struct {
	name    string
	dataDir string
	ep      *network.TCPEndpoint
	store   *wal.Store
	n       *node.Node
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

func (tn *tcpNode) stop() {
	tn.n.Stop()
	tn.ep.Close()
	_ = tn.store.Close()
}

// TestTCPMultiProcess runs the demo shopping scenario (with its partial
// rollback) across three node runtimes connected by real TCP sockets with
// file-backed stable stores — the multi-process deployment of S15. It then
// "kills" the shop node (stopping runtime and listener) and restarts it on
// the same data directory, verifying the durable resource state survived.
func TestTCPMultiProcess(t *testing.T) {
	ports := map[string]string{
		"A":   "127.0.0.1:17841",
		"B":   "127.0.0.1:17842",
		"C":   "127.0.0.1:17843",
		"ctl": "127.0.0.1:17840",
	}
	reg := agent.NewRegistry()
	if err := demo.Register(reg); err != nil {
		t.Fatal(err)
	}
	base := t.TempDir()

	bankF := func(st stable.Store) (resource.Resource, error) { return resource.NewBank(st, "bank", false) }
	shopF := func(st stable.Store) (resource.Resource, error) {
		return resource.NewShop(st, "shop", resource.ShopConfig{Currency: "USD", Mode: resource.RefundCash, FeePercent: 10})
	}
	dirF := func(st stable.Store) (resource.Resource, error) { return resource.NewDirectory(st, "dir") }

	a := startTCPNode(t, "A", ports["A"], ports, filepath.Join(base, "a"), reg, bankF)
	b := startTCPNode(t, "B", ports["B"], ports, filepath.Join(base, "b"), reg, shopF)
	c := startTCPNode(t, "C", ports["C"], ports, filepath.Join(base, "c"), reg, dirF)
	t.Cleanup(func() { a.stop(); c.stop() })

	// Seed the three nodes.
	seed := func(tn *tcpNode, f func() error) {
		t.Helper()
		if err := f(); err != nil {
			t.Fatal(err)
		}
	}
	tx, err := a.n.Manager().Begin()
	if err != nil {
		t.Fatal(err)
	}
	r, _ := a.n.Resource("bank")
	seed(a, func() error { return r.(*resource.Bank).OpenAccount(tx, "alice", 1000) })
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2, err := b.n.Manager().Begin()
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := b.n.Resource("shop")
	seed(b, func() error { return rs.(*resource.Shop).Restock(tx2, "book", 5, 100) })
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	tx3, err := c.n.Manager().Begin()
	if err != nil {
		t.Fatal(err)
	}
	rd, _ := c.n.Resource("dir")
	seed(c, func() error { return rd.(*resource.Directory).Put(tx3, "review/book", "bad") })
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}

	// Launch via a ctl endpoint, like cmd/agentctl does.
	ctl, err := network.NewTCP(network.TCPConfig{Name: "ctl", Listen: ports["ctl"], Peers: ports})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	ag, entered, err := demo.NewAgent("tcp-shopper", "alice", "A", "B", "C")
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
	launch, err := node.EncodeLaunch("tcp-shopper", data)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Send("A", node.KindAgentLaunch, launch); err != nil {
		t.Fatal(err)
	}

	var done node.Done
	deadline := time.NewTimer(30 * time.Second)
	defer deadline.Stop()
waitLoop:
	for {
		select {
		case msg, ok := <-ctl.Recv():
			if !ok {
				t.Fatal("ctl endpoint closed")
			}
			if msg.Kind != node.KindAgentDone {
				continue
			}
			done, err = node.DecodeDone(msg.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if ack, err := node.EncodeDoneAck(done.AgentID); err == nil {
				_ = ctl.Send(msg.From, node.KindAgentDoneAck, ack)
			}
			break waitLoop
		case <-deadline.C:
			t.Fatal("agent never completed over TCP")
		}
	}
	if done.Failed {
		t.Fatalf("agent failed: %s", done.Reason)
	}
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
	b2 := startTCPNode(t, "B", ports["B"], ports, filepath.Join(base, "b"), reg, shopF)
	t.Cleanup(b2.stop)
	tx4, err := b2.n.Manager().Begin()
	if err != nil {
		t.Fatal(err)
	}
	rs2, ok := b2.n.Resource("shop")
	if !ok {
		t.Fatal("shop missing after restart")
	}
	stock, err := rs2.(*resource.Shop).StockOf(tx4, "book")
	if err != nil {
		t.Fatal(err)
	}
	_ = tx4.Abort()
	if stock != 5 {
		t.Errorf("stock after restart = %d, want 5 (compensated purchase persisted)", stock)
	}
}
