package network

import (
	"errors"
	"testing"
	"time"

	"repro/internal/metrics"
)

// tcpPair builds two connected TCP endpoints on loopback.
func tcpPair(t *testing.T) (a, b *TCPEndpoint) {
	t.Helper()
	// Bootstrap: listen on :0, then wire the peer maps with actual
	// addresses via a second construction round.
	tmpA, err := NewTCP(TCPConfig{Name: "a", Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	tmpB, err := NewTCP(TCPConfig{Name: "b", Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addrA, addrB := tmpA.Addr(), tmpB.Addr()
	tmpA.Close()
	tmpB.Close()
	peers := map[string]string{"a": addrA, "b": addrB}
	a, err = NewTCP(TCPConfig{Name: "a", Listen: addrA, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	b, err = NewTCP(TCPConfig{Name: "b", Listen: addrB, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestTCPSendReceive(t *testing.T) {
	a, b := tcpPair(t)
	if err := a.Send("b", "ping", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	msg, ok := recvOne(t, b, 5*time.Second)
	if !ok {
		t.Fatal("no message")
	}
	if msg.From != "a" || msg.To != "b" || msg.Kind != "ping" || string(msg.Payload) != "hello" {
		t.Errorf("msg = %+v", msg)
	}
	// And the reverse direction.
	if err := b.Send("a", "pong", nil); err != nil {
		t.Fatal(err)
	}
	if msg, ok := recvOne(t, a, 5*time.Second); !ok || msg.Kind != "pong" {
		t.Errorf("reverse: %+v, %v", msg, ok)
	}
}

func TestTCPOrderedDelivery(t *testing.T) {
	a, b := tcpPair(t)
	for i := 0; i < 20; i++ {
		if err := a.Send("b", "seq", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		msg, ok := recvOne(t, b, 5*time.Second)
		if !ok || msg.Payload[0] != byte(i) {
			t.Fatalf("message %d: %+v, %v", i, msg, ok)
		}
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	a, _ := tcpPair(t)
	if err := a.Send("ghost", "k", nil); err == nil {
		t.Error("send to unknown peer succeeded")
	}
}

func TestTCPPeerDownDropsSilently(t *testing.T) {
	a, err := NewTCP(TCPConfig{
		Name:        "a",
		Listen:      "127.0.0.1:0",
		Peers:       map[string]string{"down": "127.0.0.1:1"},
		DialTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// The batch is dropped, and since no connection took any of it the
	// sender is told so (a hand-off's source aborts on it).
	if err := a.Send("down", "k", nil); !errors.Is(err, ErrUnreachable) {
		t.Errorf("send to down peer = %v, want ErrUnreachable", err)
	}
}

func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	a, b := tcpPair(t)
	if err := a.Send("b", "k", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOne(t, b, 5*time.Second); !ok {
		t.Fatal("first message lost")
	}
	// Restart b on the same address (crash/recovery of a process).
	addr := b.Addr()
	peers := b.cfg.Peers
	b.Close()
	b2, err := NewTCP(TCPConfig{Name: "b", Listen: addr, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	// a's cached connection is stale; Send retries once and reconnects.
	// The first send may be consumed by the dead socket's buffer, so the
	// protocol-level retry is modelled by sending until received.
	got := false
	for i := 0; i < 20 && !got; i++ {
		if err := a.Send("b", "k", []byte("two")); err != nil {
			t.Fatal(err)
		}
		_, got = recvOne(t, b2, 250*time.Millisecond)
	}
	if !got {
		t.Fatal("no delivery after peer restart")
	}
}

func TestTCPCounters(t *testing.T) {
	var c metrics.Counters
	a, err := NewTCP(TCPConfig{
		Name:        "a",
		Peers:       map[string]string{"down": "127.0.0.1:1"},
		DialTimeout: 50 * time.Millisecond,
		Counters:    &c,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	_ = a.Send("down", "k", make([]byte, 64))
	if snap := c.Snapshot(); snap.Messages != 1 || snap.BytesSent != 64 {
		t.Errorf("counters = %+v", snap)
	}
}

func TestTCPRequiresName(t *testing.T) {
	if _, err := NewTCP(TCPConfig{}); err == nil {
		t.Error("unnamed endpoint accepted")
	}
}

func TestTCPCloseIdempotent(t *testing.T) {
	a, err := NewTCP(TCPConfig{Name: "a", Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	a.Close()
	if _, ok := <-a.Recv(); ok {
		t.Error("recv channel open after Close")
	}
}
