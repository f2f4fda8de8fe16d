package network

import (
	"errors"
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestLinkFaultDropCountedNotSilent(t *testing.T) {
	counters := &metrics.Counters{}
	sim := NewSim(SimConfig{Counters: counters})
	defer sim.Close()
	a, _ := sim.Endpoint("a")
	if _, err := sim.Endpoint("b"); err != nil {
		t.Fatal(err)
	}
	sim.SetLinkFaults("a", "b", LinkFaults{Drop: 1.0})
	const n = 7
	for i := 0; i < n; i++ {
		if err := a.Send("b", "k", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	s := counters.Snapshot()
	if s.NetFaultDrops != n {
		t.Errorf("NetFaultDrops = %d, want %d", s.NetFaultDrops, n)
	}
	if s.Messages != 0 {
		t.Errorf("Messages = %d, want 0 (all dropped before the wire)", s.Messages)
	}
	if st := sim.LinkStats("a", "b"); st.Drops != n {
		t.Errorf("link drops = %d, want %d", st.Drops, n)
	}
	// Clearing the faults restores delivery.
	sim.SetLinkFaults("a", "b", LinkFaults{})
	ep, _ := sim.Endpoint("b")
	if err := a.Send("b", "k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOne(t, ep, time.Second); !ok {
		t.Fatal("message lost after faults cleared")
	}
}

func TestLinkFaultDuplicate(t *testing.T) {
	counters := &metrics.Counters{}
	sim := NewSim(SimConfig{Counters: counters})
	defer sim.Close()
	a, _ := sim.Endpoint("a")
	b, _ := sim.Endpoint("b")
	sim.SetLinkFaults("a", "b", LinkFaults{Duplicate: 1.0})
	if err := a.Send("b", "k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, ok := recvOne(t, b, time.Second); !ok {
			t.Fatalf("copy %d never arrived", i)
		}
	}
	s := counters.Snapshot()
	if s.NetFaultDups != 1 {
		t.Errorf("NetFaultDups = %d, want 1", s.NetFaultDups)
	}
	if st := sim.LinkStats("a", "b"); st.Dups != 1 {
		t.Errorf("link dups = %d, want 1", st.Dups)
	}
}

func TestLinkFaultReorderOvertakes(t *testing.T) {
	counters := &metrics.Counters{}
	sim := NewSim(SimConfig{Counters: counters})
	defer sim.Close()
	a, _ := sim.Endpoint("a")
	b, _ := sim.Endpoint("b")
	// First message held back 30ms; second sent fault-free right after.
	sim.SetLinkFaults("a", "b", LinkFaults{Reorder: 1.0, Delay: 30 * time.Millisecond})
	if err := a.Send("b", "k", []byte("slow")); err != nil {
		t.Fatal(err)
	}
	sim.SetLinkFaults("a", "b", LinkFaults{})
	if err := a.Send("b", "k", []byte("fast")); err != nil {
		t.Fatal(err)
	}
	first, ok := recvOne(t, b, time.Second)
	if !ok || string(first.Payload) != "fast" {
		t.Fatalf("first delivery = %+v, want the overtaking message", first)
	}
	second, ok := recvOne(t, b, time.Second)
	if !ok || string(second.Payload) != "slow" {
		t.Fatalf("second delivery = %+v, want the held-back message", second)
	}
	if got := counters.Snapshot().NetFaultReorders; got != 1 {
		t.Errorf("NetFaultReorders = %d, want 1", got)
	}
}

// TestFaultSeedReproducible: the same FaultSeed must make the same
// drop/duplicate decisions — the contract chaos seed-replay rests on.
func TestFaultSeedReproducible(t *testing.T) {
	run := func() LinkStats {
		sim := NewSim(SimConfig{FaultSeed: 42})
		defer sim.Close()
		a, _ := sim.Endpoint("a")
		if _, err := sim.Endpoint("b"); err != nil {
			t.Fatal(err)
		}
		sim.SetLinkFaults("a", "b", LinkFaults{Drop: 0.4, Duplicate: 0.3})
		for i := 0; i < 200; i++ {
			if err := a.Send("b", "k", nil); err != nil {
				t.Fatal(err)
			}
		}
		return sim.LinkStats("a", "b")
	}
	first, second := run(), run()
	if first != second {
		t.Errorf("same seed diverged: %+v vs %+v", first, second)
	}
	if first.Drops == 0 || first.Dups == 0 {
		t.Errorf("faults never fired: %+v", first)
	}
}

func TestUnreachableDropsCounted(t *testing.T) {
	counters := &metrics.Counters{}
	sim := NewSim(SimConfig{Counters: counters})
	defer sim.Close()
	a, _ := sim.Endpoint("a")
	if _, err := sim.Endpoint("b"); err != nil {
		t.Fatal(err)
	}
	sim.SetLink("a", "b", false)
	if err := a.Send("b", "k", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("send across a cut link = %v, want ErrUnreachable", err)
	}
	if got := counters.Snapshot().NetUnreachableDrops; got != 1 {
		t.Errorf("after partition: NetUnreachableDrops = %d, want 1", got)
	}
	sim.SetLink("a", "b", true)
	sim.Crash("b")
	if err := a.Send("b", "k", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("send to a crashed node = %v, want ErrUnreachable", err)
	}
	if got := counters.Snapshot().NetUnreachableDrops; got != 2 {
		t.Errorf("after crash: NetUnreachableDrops = %d, want 2", got)
	}
}

// TestClosedMailboxDropCounted: a message that reaches a closed mailbox
// is counted on MailboxDrops, on both transports. Only the receiver's
// mailbox is closed, so the transport still carries the message to it:
// the state a message racing an endpoint's close meets.
func TestClosedMailboxDropCounted(t *testing.T) {
	waitDrop := func(t *testing.T, counters *metrics.Counters) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for counters.Snapshot().MailboxDrops == 0 {
			if time.Now().After(deadline) {
				t.Fatal("message to a closed mailbox was not counted on MailboxDrops")
			}
			time.Sleep(time.Millisecond)
		}
		if got := counters.Snapshot().MailboxDrops; got != 1 {
			t.Errorf("MailboxDrops = %d, want 1", got)
		}
	}
	t.Run("sim", func(t *testing.T) {
		counters := &metrics.Counters{}
		sim := NewSim(SimConfig{Counters: counters})
		defer sim.Close()
		a, _ := sim.Endpoint("a")
		b, _ := sim.Endpoint("b")
		b.(*simEndpoint).mb.close()
		if err := a.Send("b", "k", nil); err != nil {
			t.Fatal(err)
		}
		waitDrop(t, counters)
	})
	t.Run("tcp", func(t *testing.T) {
		counters := &metrics.Counters{}
		b, err := NewTCP(TCPConfig{Name: "b", Listen: "127.0.0.1:0", Counters: counters})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		a, err := NewTCP(TCPConfig{Name: "a", Peers: map[string]string{"b": b.Addr()}})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		b.mb.close()
		if err := a.Send("b", "k", nil); err != nil {
			t.Fatal(err)
		}
		waitDrop(t, counters)
	})
}

// TestVirtualClockDelivery: with a virtual clock, latency-delayed messages
// sit undelivered until the clock is advanced — deterministic time.
func TestVirtualClockDelivery(t *testing.T) {
	vc := NewVirtualClock(time.Time{})
	sim := NewSim(SimConfig{Latency: 10 * time.Millisecond, Clock: vc})
	defer sim.Close()
	a, _ := sim.Endpoint("a")
	b, _ := sim.Endpoint("b")
	if err := a.Send("b", "k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOne(t, b, 50*time.Millisecond); ok {
		t.Fatal("message delivered before the virtual clock advanced")
	}
	if vc.Pending() != 1 {
		t.Fatalf("pending timers = %d, want 1", vc.Pending())
	}
	vc.Advance(10 * time.Millisecond)
	if _, ok := recvOne(t, b, time.Second); !ok {
		t.Fatal("message not delivered after Advance")
	}
}

func TestVirtualClockFiresInDeadlineOrder(t *testing.T) {
	vc := NewVirtualClock(time.Time{})
	late := vc.After(30 * time.Millisecond)
	early := vc.After(10 * time.Millisecond)
	vc.Advance(5 * time.Millisecond)
	select {
	case <-early:
		t.Fatal("timer fired early")
	default:
	}
	vc.Advance(25 * time.Millisecond)
	select {
	case <-early:
	default:
		t.Fatal("early timer did not fire")
	}
	select {
	case <-late:
	default:
		t.Fatal("late timer did not fire")
	}
	if got := vc.Now(); got != (time.Time{}).Add(30*time.Millisecond) {
		t.Errorf("Now = %v", got)
	}
	if ch := vc.After(0); ch == nil {
		t.Fatal("After(0) nil")
	} else {
		select {
		case <-ch:
		default:
			t.Fatal("After(0) did not fire immediately")
		}
	}
}
