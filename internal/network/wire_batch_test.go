package network

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

func newTestReader(b []byte) *bufio.Reader {
	return bufio.NewReader(bytes.NewReader(b))
}

// --- frame codec ------------------------------------------------------

func TestFrameRoundTrip(t *testing.T) {
	cases := []Message{
		{From: "a", To: "b", Kind: "q.prepare", Payload: []byte("payload")},
		{From: "a", To: "b", Kind: "q.commit.ack", Payload: nil},
		{From: "src", To: "dst", Kind: "custom.kind", Payload: []byte{0, 1, 2}}, // outside the table
		{From: "", To: "", Kind: "agent.done", Payload: make([]byte, 4096)},
	}
	for _, want := range cases {
		buf := appendFrame(nil, &want)
		if buf[0] != wire.FrameMagic {
			t.Fatalf("%s: frame leads with 0x%02x", want.Kind, buf[0])
		}
		got, err := readFrame(newTestReader(buf))
		if err != nil {
			t.Fatalf("%s: %v", want.Kind, err)
		}
		if got.From != want.From || got.To != want.To || got.Kind != want.Kind ||
			string(got.Payload) != string(want.Payload) {
			t.Errorf("%s: got %+v", want.Kind, got)
		}
		if len(want.Payload) == 0 && got.Payload != nil {
			t.Errorf("%s: empty payload decoded non-nil", want.Kind)
		}
	}
}

func TestFrameBackToBack(t *testing.T) {
	var buf []byte
	const n = 10
	for i := 0; i < n; i++ {
		buf = appendFrame(buf, &Message{From: "a", To: "b", Kind: "q.prepare", Payload: []byte{byte(i)}})
	}
	br := newTestReader(buf)
	for i := 0; i < n; i++ {
		msg, err := readFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if msg.Payload[0] != byte(i) {
			t.Fatalf("frame %d out of order: %v", i, msg.Payload)
		}
	}
	if _, err := readFrame(br); err == nil {
		t.Error("read past the last frame succeeded")
	}
}

func TestFrameRejectsCorrupt(t *testing.T) {
	good := appendFrame(nil, &Message{From: "a", To: "b", Kind: "q.prepare", Payload: []byte("x")})
	// Every strict prefix fails (truncated stream).
	for i := 1; i < len(good); i++ {
		if _, err := readFrame(newTestReader(good[:i])); err == nil {
			t.Errorf("truncation at %d accepted", i)
		}
	}
	// Wrong magic.
	bad := append([]byte{}, good...)
	bad[0] = 0x01
	if _, err := readFrame(newTestReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Oversized declared body.
	huge := []byte{wire.FrameMagic, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, err := readFrame(newTestReader(huge)); err == nil {
		t.Error("oversized frame accepted")
	}
	// Unknown kind code.
	if _, err := parseFrameBody([]byte{200, 0, 0, 0}); err == nil {
		t.Error("unknown kind code accepted")
	}
	// Trailing garbage inside the body.
	body := append([]byte{}, good[2:]...) // strip magic + 1-byte length
	body = append(body, 0xEE)
	if _, err := parseFrameBody(body); err == nil {
		t.Error("trailing body bytes accepted")
	}
}

// --- mailbox batch enqueue --------------------------------------------

func TestMailboxEnqueueAll(t *testing.T) {
	var drops int
	mb := newBoundedMailbox(3, func() { drops++ })
	defer mb.close()
	msgs := make([]Message, 5)
	for i := range msgs {
		msgs[i] = Message{Kind: fmt.Sprintf("k%d", i)}
	}
	mb.enqueue(msgs...)
	for i := 0; i < 3; i++ {
		select {
		case got := <-mb.Recv():
			if got.Kind != fmt.Sprintf("k%d", i) {
				t.Errorf("message %d: %+v", i, got)
			}
		case <-time.After(time.Second):
			t.Fatalf("message %d not delivered", i)
		}
	}
	if drops != 2 {
		t.Errorf("overflow drops = %d, want 2", drops)
	}
}

func TestMailboxEnqueueAllClosed(t *testing.T) {
	var drops int
	mb := newBoundedMailbox(0, func() { drops++ })
	mb.close()
	mb.enqueue(make([]Message, 4)...)
	if drops != 4 {
		t.Errorf("closed drops = %d, want 4", drops)
	}
}

// --- Sim batch delivery -----------------------------------------------

func batchOf(n int) []Outgoing {
	out := make([]Outgoing, n)
	for i := range out {
		out[i] = Outgoing{Kind: "q.prepare", Payload: []byte{byte(i)}}
	}
	return out
}

func TestSimSendBatchDeliversInOrder(t *testing.T) {
	var c metrics.Counters
	sim := NewSim(SimConfig{Counters: &c})
	defer sim.Close()
	a, _ := sim.Endpoint("a")
	b, _ := sim.Endpoint("b")
	if err := a.SendBatch("b", batchOf(5)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		msg, ok := recvOne(t, b, time.Second)
		if !ok || msg.Payload[0] != byte(i) || msg.From != "a" {
			t.Fatalf("message %d: %+v, %v", i, msg, ok)
		}
	}
	s := c.Snapshot()
	if s.Messages != 5 {
		t.Errorf("messages = %d, want 5", s.Messages)
	}
	if s.NetBatches != 1 || s.NetBatchedMsgs != 5 {
		t.Errorf("batches = %d/%d, want 1/5", s.NetBatches, s.NetBatchedMsgs)
	}
	if s.WireBytesByKind["q.prepare"] != 5 {
		t.Errorf("byKind = %v", s.WireBytesByKind)
	}
}

func TestSimSendBatchFaultsPerMessage(t *testing.T) {
	var c metrics.Counters
	sim := NewSim(SimConfig{Counters: &c, FaultSeed: 1})
	defer sim.Close()
	a, _ := sim.Endpoint("a")
	b, _ := sim.Endpoint("b")

	// Drop everything: the whole batch is lost, counted per message.
	sim.SetLinkFaults("a", "b", LinkFaults{Drop: 1.0})
	if err := a.SendBatch("b", batchOf(4)); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOne(t, b, 50*time.Millisecond); ok {
		t.Fatal("dropped batch delivered")
	}
	if s := c.Snapshot(); s.NetFaultDrops != 4 {
		t.Errorf("drops = %d, want 4", s.NetFaultDrops)
	}

	// Duplicate everything: each message arrives twice.
	sim.SetLinkFaults("a", "b", LinkFaults{Duplicate: 1.0})
	if err := a.SendBatch("b", batchOf(2)); err != nil {
		t.Fatal(err)
	}
	seen := map[byte]int{}
	for i := 0; i < 4; i++ {
		msg, ok := recvOne(t, b, time.Second)
		if !ok {
			t.Fatalf("delivery %d missing (got %v)", i, seen)
		}
		seen[msg.Payload[0]]++
	}
	if seen[0] != 2 || seen[1] != 2 {
		t.Errorf("duplicated deliveries = %v", seen)
	}
	if s := c.Snapshot(); s.NetFaultDups != 2 {
		t.Errorf("dups = %d, want 2", s.NetFaultDups)
	}
}

func TestSimSendBatchToCrashedNode(t *testing.T) {
	var c metrics.Counters
	sim := NewSim(SimConfig{Counters: &c})
	defer sim.Close()
	a, _ := sim.Endpoint("a")
	if _, err := sim.Endpoint("b"); err != nil {
		t.Fatal(err)
	}
	sim.Crash("b")
	if err := a.SendBatch("b", batchOf(3)); err != nil {
		t.Fatal(err)
	}
	if s := c.Snapshot(); s.NetUnreachableDrops != 3 {
		t.Errorf("unreachable drops = %d, want 3", s.NetUnreachableDrops)
	}
}

// sendCounts is what the transports count per message, whatever the call
// shape that carried it.
type sendCounts struct {
	Messages, BytesSent, KindBytes                    int64
	FaultDrops, FaultDups, FaultReorders, Unreachable int64
	NetBatches, NetBatchedMsgs                        int64
}

func countsOf(c *metrics.Counters) sendCounts {
	s := c.Snapshot()
	return sendCounts{s.Messages, s.BytesSent, s.WireBytesByKind["q.prepare"],
		s.NetFaultDrops, s.NetFaultDups, s.NetFaultReorders, s.NetUnreachableDrops,
		s.NetBatches, s.NetBatchedMsgs}
}

// TestSendIsBatchOfOne pins the Endpoint contract "Send is SendBatch of
// one message": the same messages through either call shape meet the same
// fault rolls, are counted the same and arrive the same, on both
// transports. One multi-message SendBatch differs only in the net batch
// it is observed as.
func TestSendIsBatchOfOne(t *testing.T) {
	const n = 200
	msgs := make([]Outgoing, n)
	for i := range msgs {
		msgs[i] = Outgoing{Kind: "q.prepare", Payload: []byte(fmt.Sprintf("m%03d", i))}
	}
	drain := func(t *testing.T, ep Endpoint, want int64) []string {
		t.Helper()
		got := make([]string, 0, want)
		for int64(len(got)) < want {
			msg, ok := recvOne(t, ep, 5*time.Second)
			if !ok {
				t.Fatalf("delivery %d of %d missing", len(got), want)
			}
			got = append(got, string(msg.Payload))
		}
		if msg, ok := recvOne(t, ep, 20*time.Millisecond); ok {
			t.Fatalf("extra delivery %q", msg.Payload)
		}
		sort.Strings(got)
		return got
	}

	t.Run("sim", func(t *testing.T) {
		run := func(send func(a Endpoint)) ([]string, LinkStats, sendCounts) {
			var c metrics.Counters
			sim := NewSim(SimConfig{Counters: &c, FaultSeed: 7})
			defer sim.Close()
			a, _ := sim.Endpoint("a")
			b, _ := sim.Endpoint("b")
			sim.SetLinkFaults("a", "b", LinkFaults{Drop: 0.3, Duplicate: 0.3, Reorder: 0.3, Delay: time.Millisecond})
			send(a)
			st := sim.LinkStats("a", "b")
			if st.Drops == 0 || st.Dups == 0 || st.Reorders == 0 {
				t.Fatalf("faults never fired: %+v", st)
			}
			return drain(t, b, n-st.Drops+st.Dups), st, countsOf(&c)
		}
		single, singleStats, singleCounts := run(func(a Endpoint) {
			for _, m := range msgs {
				if err := a.Send("b", m.Kind, m.Payload); err != nil {
					t.Fatal(err)
				}
			}
		})
		ones, onesStats, onesCounts := run(func(a Endpoint) {
			for i := range msgs {
				if err := a.SendBatch("b", msgs[i:i+1]); err != nil {
					t.Fatal(err)
				}
			}
		})
		if !reflect.DeepEqual(ones, single) || onesStats != singleStats || onesCounts != singleCounts {
			t.Errorf("one-element SendBatch differs from Send:\n%+v %+v\n%+v %+v", onesStats, onesCounts, singleStats, singleCounts)
		}
		if singleCounts.NetBatches != 0 {
			t.Errorf("single sends observed %d net batches, want 0", singleCounts.NetBatches)
		}
		whole, wholeStats, wholeCounts := run(func(a Endpoint) {
			if err := a.SendBatch("b", msgs); err != nil {
				t.Fatal(err)
			}
		})
		wholeCounts.NetBatches, wholeCounts.NetBatchedMsgs = 0, 0
		if !reflect.DeepEqual(whole, single) || wholeStats != singleStats || wholeCounts != singleCounts {
			t.Errorf("one SendBatch differs per message from Send:\n%+v %+v\n%+v %+v", wholeStats, wholeCounts, singleStats, singleCounts)
		}
	})

	t.Run("tcp", func(t *testing.T) {
		run := func(send func(a Endpoint, m Outgoing) error) ([]string, sendCounts) {
			var c metrics.Counters
			a, b := tcpPairCfg(t, TCPConfig{Counters: &c}, TCPConfig{})
			var got []string
			for _, m := range msgs[:20] {
				if err := send(a, m); err != nil {
					t.Fatal(err)
				}
				// One at a time, so each write carries one frame either way.
				msg, ok := recvOne(t, b, 5*time.Second)
				if !ok {
					t.Fatalf("%q not delivered", m.Payload)
				}
				got = append(got, string(msg.Payload))
			}
			return append(got, drain(t, b, 0)...), countsOf(&c)
		}
		single, singleCounts := run(func(a Endpoint, m Outgoing) error { return a.Send("b", m.Kind, m.Payload) })
		ones, onesCounts := run(func(a Endpoint, m Outgoing) error { return a.SendBatch("b", []Outgoing{m}) })
		if !reflect.DeepEqual(ones, single) || onesCounts != singleCounts {
			t.Errorf("one-element SendBatch differs from Send:\n%+v\n%+v", onesCounts, singleCounts)
		}
		if singleCounts.Messages != 20 || singleCounts.NetBatchedMsgs != 20 {
			t.Errorf("counts = %+v, want 20 messages in 20 frames", singleCounts)
		}
	})
}

// --- TCP coalescing ---------------------------------------------------

// tcpPairCfg is tcpPair with per-endpoint config overrides applied on
// top of the bootstrap (name/listen/peers are filled in).
func tcpPairCfg(t *testing.T, cfgA, cfgB TCPConfig) (a, b *TCPEndpoint) {
	t.Helper()
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
	cfgA.Name, cfgA.Listen, cfgA.Peers = "a", addrA, peers
	cfgB.Name, cfgB.Listen, cfgB.Peers = "b", addrB, peers
	a, err = NewTCP(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err = NewTCP(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// TestTCPCoalescesUnderLinger: with a long linger, a burst of sends
// rides one socket write; the batch-size histogram proves it.
func TestTCPCoalescesUnderLinger(t *testing.T) {
	var c metrics.Counters
	a, b := tcpPairCfg(t,
		TCPConfig{Counters: &c, FlushLinger: 100 * time.Millisecond},
		TCPConfig{})
	const n = 10
	for i := 0; i < n; i++ {
		if err := a.Send("b", "q.prepare", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		msg, ok := recvOne(t, b, 5*time.Second)
		if !ok || msg.Payload[0] != byte(i) {
			t.Fatalf("message %d: %+v, %v", i, msg, ok)
		}
	}
	s := c.Snapshot()
	if s.NetBatchedMsgs != n {
		t.Errorf("batched msgs = %d, want %d", s.NetBatchedMsgs, n)
	}
	// The first send may flush alone (the flusher was idle before the
	// linger started); the rest must coalesce into very few writes.
	if s.NetBatches > 3 {
		t.Errorf("burst of %d took %d writes, want coalescing", n, s.NetBatches)
	}
}

// TestTCPFlushBytesOverridesLinger: a pending buffer past FlushBytes is
// written immediately even under an hour-long linger.
func TestTCPFlushBytesOverridesLinger(t *testing.T) {
	a, b := tcpPairCfg(t,
		TCPConfig{FlushLinger: time.Hour, FlushBytes: 256},
		TCPConfig{})
	payload := make([]byte, 512) // one message alone passes FlushBytes
	if err := a.Send("b", "q.prepare", payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOne(t, b, 5*time.Second); !ok {
		t.Fatal("full buffer not flushed despite linger")
	}
}

func TestTCPSendBatch(t *testing.T) {
	var c metrics.Counters
	a, b := tcpPairCfg(t, TCPConfig{Counters: &c}, TCPConfig{})
	if err := a.SendBatch("b", batchOf(6)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		msg, ok := recvOne(t, b, 5*time.Second)
		if !ok || msg.Payload[0] != byte(i) {
			t.Fatalf("message %d: %+v, %v", i, msg, ok)
		}
	}
	if s := c.Snapshot(); s.Messages != 6 || s.WireBytesByKind["q.prepare"] != 6 {
		t.Errorf("counters = %+v", s)
	}
}

// TestTCPRejectsNonFrameConnection: a connection that does not open with
// a binary frame — a pre-binary peer's gob stream, or plain garbage — is
// closed with nothing delivered, and the endpoint keeps serving the
// well-formed connections that follow.
func TestTCPRejectsNonFrameConnection(t *testing.T) {
	a, b := tcpPairCfg(t, TCPConfig{}, TCPConfig{})
	openers := map[string]func(c net.Conn) error{
		"gob stream": func(c net.Conn) error {
			return gob.NewEncoder(c).Encode(&Message{From: "old", To: "b", Kind: "q.prepare", Payload: []byte("gob")})
		},
		"garbage byte": func(c net.Conn) error {
			_, err := c.Write([]byte{0x00})
			return err
		},
	}
	for name, open := range openers {
		c, err := net.Dial("tcp", b.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := open(c); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The endpoint hangs up: the read ends with EOF (or a reset), never
		// a timeout.
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("%s: connection not closed by the endpoint (read err %v)", name, err)
		}
		_ = c.Close()
		if msg, ok := recvOne(t, b, 50*time.Millisecond); ok {
			t.Errorf("%s: delivered %+v from a non-frame connection", name, msg)
		}
		if err := a.Send("b", "after", []byte(name)); err != nil {
			t.Fatal(err)
		}
		if msg, ok := recvOne(t, b, 5*time.Second); !ok || msg.Kind != "after" || string(msg.Payload) != name {
			t.Fatalf("%s: well-formed connection not served afterwards: %+v, %v", name, msg, ok)
		}
	}
}

// TestTCPVirtualClockLinger: with a VirtualClock the linger only elapses
// on Advance — and the FlushBytes trigger still delivers without any
// clock movement, so simulated deployments cannot deadlock on a timer
// that never fires.
func TestTCPVirtualClockLinger(t *testing.T) {
	vc := NewVirtualClock(time.Time{})
	a, b := tcpPairCfg(t,
		TCPConfig{Clock: vc, FlushLinger: 50 * time.Millisecond},
		TCPConfig{})
	if err := a.Send("b", "held", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Nothing moves until the virtual linger elapses.
	if _, ok := recvOne(t, b, 30*time.Millisecond); ok {
		t.Fatal("message flushed before the virtual linger elapsed")
	}
	vc.Advance(50 * time.Millisecond)
	if _, ok := recvOne(t, b, 5*time.Second); !ok {
		t.Fatal("message not flushed after Advance")
	}
}
