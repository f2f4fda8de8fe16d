// Package network provides the message transport connecting nodes.
//
// The paper's prototype ran on a real LAN. For controlled, reproducible
// experiments this package implements a simulated network with per-message
// latency, byte accounting, link partitions and node crash semantics
// (messages to a crashed node are dropped, mirroring a down host). The
// Endpoint interface is also implemented by a TCP transport (tcp.go) so the
// same node runtime runs across real processes.
//
// Each transport has one send path, SendBatch, and Send is a batch of
// one: the fault model, the loss accounting and the counted-before-visible
// rule live in one function per transport (Sim.send, TCPEndpoint.SendBatch)
// and both feed the one mailbox append.
package network

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Message is one datagram between two named nodes. Delivery within the
// simulator is reliable and FIFO per sender unless a fault is injected;
// the paper assumes reliable data transfer (§4.3).
type Message struct {
	From    string
	To      string
	Kind    string
	Payload []byte
}

// Endpoint is one node's attachment to the network.
type Endpoint interface {
	// Name returns the node name this endpoint is bound to.
	Name() string
	// Send transmits a message. It returns an error for permanent
	// conditions (unknown destination, closed network) and ErrUnreachable
	// when no byte of the message can have reached the peer; messages
	// lost to injected faults, or in flight when the peer dies, are
	// dropped silently, as on a real network.
	Send(to, kind string, payload []byte) error
	// SendBatch transmits same-destination messages in one transport hop
	// (one mailbox pass in the simulator, one staged write on TCP). Send
	// is SendBatch of one message: semantics per message are identical,
	// only the transport cost is shared.
	SendBatch(to string, msgs []Outgoing) error
	// Recv returns the channel of inbound messages. The channel is closed
	// when the endpoint is detached or the network shuts down.
	Recv() <-chan Message
}

// Outgoing is one message of a same-destination batch.
type Outgoing struct {
	Kind    string
	Payload []byte
}

// Errors returned by the simulated network.
var (
	ErrUnknownNode   = errors.New("network: unknown node")
	ErrNetworkClosed = errors.New("network: closed")
	// ErrUnreachable reports a send of which no byte can have reached the
	// peer: on Sim the host was down or the link cut at send time, on TCP
	// no connection could take the batch. A hand-off's source aborts on
	// it at once: no decider can ever see that prepare (DESIGN.md §5).
	ErrUnreachable = errors.New("network: peer unreachable")
)

// SimConfig configures a simulated network.
type SimConfig struct {
	// Latency is the one-way delivery delay applied to every message.
	// Zero delivers synchronously (still via the mailbox, never inline).
	Latency time.Duration
	// Counters receives message/byte accounting; nil = off, methods are
	// nil-safe (as trace.Tracer).
	Counters *metrics.Counters
	// FaultSeed seeds the RNG driving probabilistic link faults, making a
	// fault run reproducible. Zero seeds with 1.
	FaultSeed int64
	// Clock drives delayed deliveries; nil uses the wall clock. A
	// VirtualClock makes latency-delayed delivery deterministic.
	Clock Clock
}

// LinkFaults configures probabilistic fault injection on one directed
// link. The zero value injects nothing.
type LinkFaults struct {
	// Drop is the probability a message on the link is lost.
	Drop float64
	// Duplicate is the probability a message is delivered twice.
	Duplicate float64
	// Reorder is the probability a message is held back by Delay so
	// later messages on the link overtake it.
	Reorder float64
	// Delay is the hold-back applied to reordered messages; zero
	// defaults to 1ms plus four times the base latency.
	Delay time.Duration
	// Extra is added to every message's latency (a latency spike).
	Extra time.Duration
}

// Active reports whether any fault is configured.
func (f LinkFaults) Active() bool {
	return f.Drop > 0 || f.Duplicate > 0 || f.Reorder > 0 || f.Extra > 0
}

// LinkStats counts the faults injected on one directed link.
type LinkStats struct {
	Drops    int64 // messages dropped
	Dups     int64 // duplicate deliveries injected
	Reorders int64 // messages held back past later traffic
}

func (s LinkStats) add(o LinkStats) LinkStats {
	return LinkStats{Drops: s.Drops + o.Drops, Dups: s.Dups + o.Dups, Reorders: s.Reorders + o.Reorders}
}

// Sim is an in-process network connecting named endpoints.
type Sim struct {
	cfg   SimConfig
	clock Clock

	mu      sync.Mutex
	eps     map[string]*simEndpoint
	down    map[string]bool                  // crashed nodes
	epoch   map[string]int                   // incarnation per node; bumped by Crash
	blocked map[string]map[string]bool       // symmetric link partitions
	faults  map[string]map[string]LinkFaults // directed link fault injection
	stats   map[string]map[string]*LinkStats // injected-fault accounting per link
	rng     *rand.Rand                       // fault decisions; guarded by mu
	closed  bool

	wg   sync.WaitGroup // in-flight delayed deliveries
	stop chan struct{}
}

// NewSim creates an empty simulated network.
func NewSim(cfg SimConfig) *Sim {
	seed := cfg.FaultSeed
	if seed == 0 {
		seed = 1
	}
	clock := cfg.Clock
	if clock == nil {
		clock = WallClock()
	}
	return &Sim{
		cfg:     cfg,
		clock:   clock,
		eps:     make(map[string]*simEndpoint),
		down:    make(map[string]bool),
		epoch:   make(map[string]int),
		blocked: make(map[string]map[string]bool),
		faults:  make(map[string]map[string]LinkFaults),
		stats:   make(map[string]map[string]*LinkStats),
		rng:     rand.New(rand.NewSource(seed)),
		stop:    make(chan struct{}),
	}
}

// Endpoint attaches (or re-attaches) the named node and returns its
// endpoint. Re-attaching replaces the previous endpoint: its Recv channel
// is closed and queued messages are discarded, modelling the loss of
// volatile state on a crash/restart.
func (s *Sim) Endpoint(name string) (Endpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrNetworkClosed
	}
	if old, ok := s.eps[name]; ok {
		old.close()
	}
	ep := newSimEndpoint(name, s)
	s.eps[name] = ep
	delete(s.down, name)
	return ep, nil
}

// Crash marks a node as down: its endpoint is detached, all messages to
// or from it are dropped until Endpoint is called again for the same
// name, and messages already in flight toward it are lost (they were
// addressed to the previous incarnation).
func (s *Sim) Crash(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ep, ok := s.eps[name]; ok {
		ep.close()
		delete(s.eps, name)
	}
	s.down[name] = true
	s.epoch[name]++
}

// SetLink enables or disables the (symmetric) link between nodes a and b.
func (s *Sim) SetLink(a, b string, up bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if up {
		delete(s.blockedFor(a), b)
		delete(s.blockedFor(b), a)
		return
	}
	s.blockedFor(a)[b] = true
	s.blockedFor(b)[a] = true
}

func (s *Sim) blockedFor(name string) map[string]bool {
	m := s.blocked[name]
	if m == nil {
		m = make(map[string]bool)
		s.blocked[name] = m
	}
	return m
}

// SetLinkFaults installs fault injection on the directed link from → to
// (a zero LinkFaults removes it). Faults apply on top of partitions: a
// blocked link loses everything regardless.
func (s *Sim) SetLinkFaults(from, to string, f LinkFaults) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !f.Active() {
		if m, ok := s.faults[from]; ok {
			delete(m, to)
			if len(m) == 0 {
				delete(s.faults, from)
			}
		}
		return
	}
	m := s.faults[from]
	if m == nil {
		m = make(map[string]LinkFaults)
		s.faults[from] = m
	}
	m[to] = f
}

// ClearLinkFaults removes all installed link faults.
func (s *Sim) ClearLinkFaults() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults = make(map[string]map[string]LinkFaults)
}

// HealAll removes every link partition.
func (s *Sim) HealAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blocked = make(map[string]map[string]bool)
}

// LinkStats returns the injected-fault counts of the directed link
// from → to.
func (s *Sim) LinkStats(from, to string) LinkStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.stats[from][to]; st != nil {
		return *st
	}
	return LinkStats{}
}

// TotalLinkStats returns the injected-fault counts summed over all links.
func (s *Sim) TotalLinkStats() LinkStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total LinkStats
	for _, m := range s.stats {
		for _, st := range m {
			total = total.add(*st)
		}
	}
	return total
}

// statsFor returns the mutable stats cell of one directed link. Caller
// holds s.mu.
func (s *Sim) statsFor(from, to string) *LinkStats {
	m := s.stats[from]
	if m == nil {
		m = make(map[string]*LinkStats)
		s.stats[from] = m
	}
	st := m[to]
	if st == nil {
		st = &LinkStats{}
		m[to] = st
	}
	return st
}

// Close shuts the network down, waits for in-flight deliveries to drain and
// closes all endpoint channels.
func (s *Sim) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.stop)
	eps := make([]*simEndpoint, 0, len(s.eps))
	for _, ep := range s.eps {
		eps = append(eps, ep)
	}
	s.eps = make(map[string]*simEndpoint)
	s.mu.Unlock()

	s.wg.Wait()
	for _, ep := range eps {
		ep.close()
	}
}

// send routes a same-destination batch from a protocol effect to the
// destination mailbox; a single message is a batch of one. Faults are
// rolled per message, in order — drop, then duplicate, then reorder,
// with Extra added once to the batch's latency — so batching never
// weakens chaos coverage: dropped messages leave the batch, duplicated
// messages ride it twice, reordered messages are peeled off into their
// own one-message hop with their hold-back delay so later traffic
// overtakes them. The survivors share one latency wait and one mailbox
// pass. Every injected or topological loss is counted, and every
// counter is bumped before anything is dispatched — faults must never
// vanish silently and a receiver's effects must never be visible without
// the count, or a chaos run cannot be audited against its schedule.
func (s *Sim) send(from, to string, msgs []Outgoing) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrNetworkClosed
	}
	if s.blocked[from][to] || s.down[to] || s.down[from] {
		s.mu.Unlock()
		// Partitioned link or crashed host on either end: lost, and
		// counted. A crashed sender cannot transmit — its endpoint
		// object may survive in a stopping goroutine, but the host it
		// modeled is gone.
		times(len(msgs), s.cfg.Counters.IncNetUnreachableDrop)
		return ErrUnreachable
	}
	if _, ok := s.eps[to]; !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownNode, to)
	}
	lat := s.cfg.Latency
	sent := msgs // the originals that survive the drop roll
	batch := make([]Message, 0, len(msgs))
	var held []Message // reordered: one hop each, heldLat later
	var heldLat time.Duration
	var rolled LinkStats
	if f := s.faults[from][to]; f.Active() {
		lat += f.Extra
		heldLat = lat + f.Delay
		if f.Delay <= 0 {
			heldLat = lat + time.Millisecond + 4*s.cfg.Latency
		}
		sent = nil
		for _, m := range msgs {
			if f.Drop > 0 && s.rng.Float64() < f.Drop {
				rolled.Drops++
				continue
			}
			sent = append(sent, m)
			msg := Message{From: from, To: to, Kind: m.Kind, Payload: m.Payload}
			copies := 1
			if f.Duplicate > 0 && s.rng.Float64() < f.Duplicate {
				rolled.Dups++
				copies = 2
			}
			dst := &batch
			if f.Reorder > 0 && s.rng.Float64() < f.Reorder {
				rolled.Reorders++
				dst = &held
			}
			for ; copies > 0; copies-- {
				*dst = append(*dst, msg)
			}
		}
		st := s.statsFor(from, to)
		*st = st.add(rolled)
	} else {
		for _, m := range msgs {
			batch = append(batch, Message{From: from, To: to, Kind: m.Kind, Payload: m.Payload})
		}
	}
	epoch := s.epoch[to]
	s.mu.Unlock()

	for _, m := range sent {
		s.cfg.Counters.IncMessages(int64(len(m.Payload)))
		s.cfg.Counters.AddWireBytes(m.Kind, int64(len(m.Payload)))
	}
	times(int(rolled.Drops), s.cfg.Counters.IncNetFaultDrop)
	times(int(rolled.Dups), s.cfg.Counters.IncNetFaultDup)
	times(int(rolled.Reorders), s.cfg.Counters.IncNetFaultReorder)
	if len(msgs) > 1 {
		// A net batch is what the caller coalesced, not what a single
		// send happens to look like on this path.
		s.cfg.Counters.ObserveNetBatch(len(batch))
	}
	if len(batch) > 0 {
		s.dispatch(batch, epoch, lat)
	}
	for i := range held {
		s.dispatch(held[i:i+1], epoch, heldLat)
	}
	return nil
}

// times bumps a per-message counter once for each of n messages.
func times(n int, inc func()) {
	for ; n > 0; n-- {
		inc()
	}
}

// dispatch delivers a batch (all messages share From/To) after lat on
// the configured clock: one wait, one delivery pass. The timer is
// canceled when the wait ends either way, so a Close with deliveries in
// flight releases them immediately.
func (s *Sim) dispatch(batch []Message, epoch int, lat time.Duration) {
	if lat <= 0 {
		s.deliver(batch, epoch)
		return
	}
	s.wg.Add(1)
	due, cancel := ClockTimer(s.clock, lat)
	go func() {
		defer s.wg.Done()
		defer cancel()
		select {
		case <-due:
			s.deliver(batch, epoch)
		case <-s.stop:
		}
	}()
}

// deliver places a batch in the destination mailbox as one hop,
// re-checking faults at delivery time: messages in flight when the
// destination crashed are lost even if a new incarnation is already up
// (epoch mismatch).
func (s *Sim) deliver(batch []Message, epoch int) {
	from, to := batch[0].From, batch[0].To
	s.mu.Lock()
	ep, ok := s.eps[to]
	if s.closed || !ok || s.down[to] || s.epoch[to] != epoch || s.blocked[from][to] {
		closed := s.closed
		s.mu.Unlock()
		if !closed {
			times(len(batch), s.cfg.Counters.IncNetUnreachableDrop)
		}
		return
	}
	s.mu.Unlock()
	ep.mb.enqueue(batch...)
}

// simEndpoint is one node's attachment to the simulated network. Its
// unbounded mailbox ensures senders in the protocol never block on a slow
// receiver — otherwise an injected crash of the receiver could wedge the
// sender's step transaction forever.
type simEndpoint struct {
	name string
	sim  *Sim
	mb   *mailbox
}

var _ Endpoint = (*simEndpoint)(nil)

func newSimEndpoint(name string, sim *Sim) *simEndpoint {
	return &simEndpoint{name: name, sim: sim, mb: newMailbox(sim.cfg.Counters.IncMailboxDrop)}
}

func (e *simEndpoint) Name() string { return e.name }

func (e *simEndpoint) Send(to, kind string, payload []byte) error {
	return e.SendBatch(to, []Outgoing{{Kind: kind, Payload: payload}})
}

func (e *simEndpoint) SendBatch(to string, msgs []Outgoing) error {
	if len(msgs) == 0 {
		return nil
	}
	return e.sim.send(e.name, to, msgs)
}

func (e *simEndpoint) Recv() <-chan Message { return e.mb.Recv() }

func (e *simEndpoint) close() { e.mb.close() }
