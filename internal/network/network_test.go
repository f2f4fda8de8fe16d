package network

import (
	"errors"
	"testing"
	"time"

	"repro/internal/metrics"
)

func recvOne(t *testing.T, ep Endpoint, timeout time.Duration) (Message, bool) {
	t.Helper()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case msg, ok := <-ep.Recv():
		return msg, ok
	case <-timer.C:
		return Message{}, false
	}
}

func TestSendReceive(t *testing.T) {
	sim := NewSim(SimConfig{})
	defer sim.Close()
	a, err := sim.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", "ping", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	msg, ok := recvOne(t, b, time.Second)
	if !ok {
		t.Fatal("no message")
	}
	if msg.From != "a" || msg.To != "b" || msg.Kind != "ping" || string(msg.Payload) != "hello" {
		t.Errorf("msg = %+v", msg)
	}
}

func TestFIFOPerSender(t *testing.T) {
	sim := NewSim(SimConfig{})
	defer sim.Close()
	a, _ := sim.Endpoint("a")
	b, _ := sim.Endpoint("b")
	for i := 0; i < 10; i++ {
		if err := a.Send("b", "seq", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		msg, ok := recvOne(t, b, time.Second)
		if !ok || msg.Payload[0] != byte(i) {
			t.Fatalf("message %d out of order: %+v", i, msg)
		}
	}
}

func TestUnknownDestination(t *testing.T) {
	sim := NewSim(SimConfig{})
	defer sim.Close()
	a, _ := sim.Endpoint("a")
	if err := a.Send("ghost", "k", nil); err == nil {
		t.Error("send to unknown node succeeded")
	}
}

func TestCrashDropsMessages(t *testing.T) {
	sim := NewSim(SimConfig{})
	defer sim.Close()
	a, _ := sim.Endpoint("a")
	b, _ := sim.Endpoint("b")
	sim.Crash("b")
	// Sends are dropped, and the sender learns that none of it left.
	if err := a.Send("b", "k", nil); !errors.Is(err, ErrUnreachable) {
		t.Errorf("send to crashed node = %v, want ErrUnreachable", err)
	}
	if _, ok := recvOne(t, b, 50*time.Millisecond); ok {
		t.Error("crashed endpoint received a message")
	}
	// Re-attach: fresh endpoint receives again.
	b2, err := sim.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", "k", []byte("after")); err != nil {
		t.Fatal(err)
	}
	if msg, ok := recvOne(t, b2, time.Second); !ok || string(msg.Payload) != "after" {
		t.Errorf("recovered endpoint: %+v, %v", msg, ok)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	sim := NewSim(SimConfig{})
	defer sim.Close()
	a, _ := sim.Endpoint("a")
	b, _ := sim.Endpoint("b")
	sim.SetLink("a", "b", false)
	if err := a.Send("b", "k", nil); !errors.Is(err, ErrUnreachable) {
		t.Errorf("partitioned send = %v, want ErrUnreachable", err)
	}
	if _, ok := recvOne(t, b, 50*time.Millisecond); ok {
		t.Error("message crossed partition")
	}
	// Symmetric.
	if err := b.Send("a", "k", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("reverse partitioned send = %v, want ErrUnreachable", err)
	}
	if _, ok := recvOne(t, a, 50*time.Millisecond); ok {
		t.Error("message crossed partition (reverse)")
	}
	sim.SetLink("a", "b", true)
	if err := a.Send("b", "k", []byte("healed")); err != nil {
		t.Fatal(err)
	}
	if msg, ok := recvOne(t, b, time.Second); !ok || string(msg.Payload) != "healed" {
		t.Errorf("after heal: %+v, %v", msg, ok)
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	const lat = 30 * time.Millisecond
	sim := NewSim(SimConfig{Latency: lat})
	defer sim.Close()
	a, _ := sim.Endpoint("a")
	b, _ := sim.Endpoint("b")
	start := time.Now()
	if err := a.Send("b", "k", nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOne(t, b, time.Second); !ok {
		t.Fatal("no delivery")
	}
	if elapsed := time.Since(start); elapsed < lat {
		t.Errorf("delivered after %v, want >= %v", elapsed, lat)
	}
}

func TestInFlightMessageLostOnCrash(t *testing.T) {
	sim := NewSim(SimConfig{Latency: 50 * time.Millisecond})
	defer sim.Close()
	a, _ := sim.Endpoint("a")
	sim.Endpoint("b") //nolint:errcheck // endpoint created for routing only
	if err := a.Send("b", "k", nil); err != nil {
		t.Fatal(err)
	}
	sim.Crash("b") // crash while the message is in flight
	b2, err := sim.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOne(t, b2, 150*time.Millisecond); ok {
		t.Error("in-flight message survived a crash of the destination")
	}
}

func TestCounters(t *testing.T) {
	var c metrics.Counters
	sim := NewSim(SimConfig{Counters: &c})
	defer sim.Close()
	a, _ := sim.Endpoint("a")
	b, _ := sim.Endpoint("b")
	if err := a.Send("b", "k", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOne(t, b, time.Second); !ok {
		t.Fatal("no delivery")
	}
	snap := c.Snapshot()
	if snap.Messages != 1 || snap.BytesSent != 100 {
		t.Errorf("counters = %+v", snap)
	}
}

func TestCloseClosesEndpoints(t *testing.T) {
	sim := NewSim(SimConfig{})
	a, _ := sim.Endpoint("a")
	sim.Close()
	if _, ok := <-a.Recv(); ok {
		t.Error("recv channel open after Close")
	}
	if _, err := sim.Endpoint("x"); err == nil {
		t.Error("Endpoint after Close succeeded")
	}
	// Closing twice is fine.
	sim.Close()
}

func TestReattachReplacesEndpoint(t *testing.T) {
	sim := NewSim(SimConfig{})
	defer sim.Close()
	old, _ := sim.Endpoint("a")
	if _, err := sim.Endpoint("a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-old.Recv(); ok {
		t.Error("old endpoint still live after re-attach")
	}
}
