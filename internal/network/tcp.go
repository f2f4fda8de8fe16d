package network

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// TCPConfig configures a TCP endpoint for real multi-process deployments
// (cmd/agentnode). Every process knows its peers by name → address; the
// protocol's retries and presumed abort handle lost connections exactly
// like lost messages in the simulator.
type TCPConfig struct {
	// Name is this node's protocol name.
	Name string
	// Listen is the address to accept peer connections on, e.g.
	// ":7001". Empty disables listening (a pure client such as
	// agentctl).
	Listen string
	// Peers maps node names to "host:port" addresses.
	Peers map[string]string
	// DialTimeout bounds connection attempts (default 2s).
	DialTimeout time.Duration
	// Counters receives message/byte accounting; nil = off, methods are
	// nil-safe (as trace.Tracer).
	Counters *metrics.Counters
	// FlushBytes forces a flush once this many bytes are pending on one
	// peer connection (default 64 KiB).
	FlushBytes int
	// FlushLinger is how long a non-full pending buffer may wait for
	// more messages before it is written out (default 50µs — long enough
	// to coalesce a burst of protocol sends into one write, short enough
	// to be invisible next to network latency). Negative disables the
	// wait: the flusher writes as soon as it runs, still coalescing
	// whatever accumulated while the previous write was in flight.
	FlushLinger time.Duration
	// Clock drives the linger timer; nil uses the wall clock. With a
	// VirtualClock, lingers only elapse on Advance, keeping simulated
	// runs deterministic.
	Clock Clock
}

// TCPEndpoint implements Endpoint over TCP with per-link write
// coalescing: each outbound connection owns a pending buffer and a
// flusher goroutine. Senders only append encoded frames to the buffer —
// cheap, under a short mutex — while the flusher performs the slow
// conn.Write, so a stalled peer never blocks a sender and many frames
// ride one syscall. Outbound connections are cached per destination and
// re-dialed on error; a failed send is dropped silently (the caller's
// protocol retries), matching the simulator's crashed-destination
// semantics. The only format on a connection is binary frames
// (frame.go).
type TCPEndpoint struct {
	cfg      TCPConfig
	clock    Clock
	listener net.Listener
	mb       *mailbox

	mu      sync.Mutex
	conns   map[string]*peerConn
	inbound map[net.Conn]struct{}
	closed  bool

	wg sync.WaitGroup
}

var _ Endpoint = (*TCPEndpoint)(nil)

// NewTCP creates a TCP endpoint and, if configured, starts accepting peer
// connections.
func NewTCP(cfg TCPConfig) (*TCPEndpoint, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("network: tcp endpoint needs a name")
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.FlushBytes <= 0 {
		cfg.FlushBytes = 64 << 10
	}
	if cfg.FlushLinger == 0 {
		cfg.FlushLinger = 50 * time.Microsecond
	}
	ep := &TCPEndpoint{
		cfg:     cfg,
		clock:   cfg.Clock,
		mb:      newMailbox(),
		conns:   make(map[string]*peerConn),
		inbound: make(map[net.Conn]struct{}),
	}
	if ep.clock == nil {
		ep.clock = WallClock()
	}
	if cfg.Listen != "" {
		l, err := net.Listen("tcp", cfg.Listen)
		if err != nil {
			return nil, fmt.Errorf("network: listen %s: %w", cfg.Listen, err)
		}
		ep.listener = l
		ep.wg.Add(1)
		go func() {
			defer ep.wg.Done()
			ep.accept()
		}()
	}
	return ep, nil
}

// Name implements Endpoint.
func (e *TCPEndpoint) Name() string { return e.cfg.Name }

// Recv implements Endpoint.
func (e *TCPEndpoint) Recv() <-chan Message { return e.mb.Recv() }

// Addr returns the actual listen address (useful with ":0" in tests).
func (e *TCPEndpoint) Addr() string {
	if e.listener == nil {
		return ""
	}
	return e.listener.Addr().String()
}

// Send implements Endpoint: a batch of one.
func (e *TCPEndpoint) Send(to, kind string, payload []byte) error {
	return e.SendBatch(to, []Outgoing{{Kind: kind, Payload: payload}})
}

// SendBatch implements Endpoint: all frames of the batch are staged
// under one buffer lock and one flusher wake-up, so they ride the same
// write unless the flusher is already mid-flush. Transient failures
// (peer down, broken connection) drop the batch silently after one
// reconnect attempt; an unknown peer name is a permanent error.
func (e *TCPEndpoint) SendBatch(to string, msgs []Outgoing) error {
	addr, ok := e.cfg.Peers[to]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, to)
	}
	kept := msgs[:0:0]
	for _, m := range msgs {
		if len(m.Payload) > wire.MaxMessageSize {
			// Rejected locally before any bytes hit the stream: the
			// connection stays usable.
			continue
		}
		kept = append(kept, m)
		e.cfg.Counters.IncMessages(int64(len(m.Payload)))
		e.cfg.Counters.AddWireBytes(m.Kind, int64(len(m.Payload)))
	}
	if len(kept) == 0 {
		return nil
	}
	if err := e.batchTo(to, addr, kept); err != nil {
		// One reconnect attempt: the cached connection may be stale.
		if err := e.batchTo(to, addr, kept); err != nil {
			return nil // dropped, like messages to a crashed node
		}
	}
	return nil
}

func (e *TCPEndpoint) batchTo(to, addr string, msgs []Outgoing) error {
	pc, err := e.conn(to, addr)
	if err != nil {
		return err
	}
	return pc.enqueue(func(buf []byte) []byte {
		for _, m := range msgs {
			msg := Message{From: e.cfg.Name, To: to, Kind: m.Kind, Payload: m.Payload}
			buf = appendFrame(buf, &msg)
		}
		return buf
	}, len(msgs))
}

func (e *TCPEndpoint) conn(to, addr string) (*peerConn, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrNetworkClosed
	}
	if pc, ok := e.conns[to]; ok {
		e.mu.Unlock()
		return pc, nil
	}
	e.mu.Unlock()

	c, err := net.DialTimeout("tcp", addr, e.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		_ = c.Close()
		return nil, ErrNetworkClosed
	}
	if old, ok := e.conns[to]; ok {
		// Lost a race with a concurrent dial; keep the existing one.
		e.mu.Unlock()
		_ = c.Close()
		return old, nil
	}
	pc := newPeerConn(e, to, c)
	e.conns[to] = pc
	e.wg.Add(1)
	e.mu.Unlock()
	go func() {
		defer e.wg.Done()
		pc.flusher()
	}()
	return pc, nil
}

func (e *TCPEndpoint) dropConn(to string, pc *peerConn) {
	e.mu.Lock()
	if e.conns[to] == pc {
		delete(e.conns, to)
	}
	e.mu.Unlock()
	pc.shutdown(false)
}

// accept serves inbound peer connections.
func (e *TCPEndpoint) accept() {
	for {
		conn, err := e.listener.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			_ = conn.Close()
			return
		}
		e.inbound[conn] = struct{}{}
		e.mu.Unlock()
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			defer func() {
				e.mu.Lock()
				delete(e.inbound, conn)
				e.mu.Unlock()
				_ = conn.Close()
			}()
			e.serve(conn)
		}()
	}
}

// serve decodes one inbound connection into the mailbox. Anything that
// is not a well-formed frame — starting with a first byte other than
// wire.FrameMagic — poisons the stream (there is no per-message
// resynchronization), so the connection is dropped, nothing from it is
// delivered past that point, and the peer re-dials — the protocol's
// retries cover the gap.
func (e *TCPEndpoint) serve(conn net.Conn) {
	br := bufio.NewReader(conn)
	for {
		msg, err := readFrame(br)
		if err != nil {
			return
		}
		if msg.To != e.cfg.Name {
			continue // misrouted
		}
		e.mb.enqueue(msg)
	}
}

// Close shuts the endpoint down: the listener stops, pending outbound
// buffers get a final flush, connections close and the Recv channel is
// closed.
func (e *TCPEndpoint) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	outs := make([]*peerConn, 0, len(e.conns))
	for _, pc := range e.conns {
		outs = append(outs, pc)
	}
	ins := make([]net.Conn, 0, len(e.inbound))
	for c := range e.inbound {
		ins = append(ins, c)
	}
	e.conns = make(map[string]*peerConn)
	e.mu.Unlock()

	if e.listener != nil {
		_ = e.listener.Close()
	}
	for _, pc := range outs {
		// Graceful: the flusher drains the pending buffer, then closes
		// the connection itself — never close the conn under its feet.
		pc.shutdown(true)
	}
	for _, c := range ins {
		_ = c.Close()
	}
	e.wg.Wait()
	e.mb.close()
}

// maxPendingRetain caps the capacity a drained pending buffer keeps for
// reuse, so one burst does not pin memory for the connection's lifetime.
const maxPendingRetain = 1 << 20

// peerConn is one cached outbound connection: a pending write buffer
// senders append encoded frames to, and a flusher goroutine that owns
// the actual conn.Write.
type peerConn struct {
	ep *TCPEndpoint
	to string
	c  net.Conn

	mu      sync.Mutex
	pending []byte
	frames  int
	broken  bool
	drain   bool // graceful shutdown: flush what is pending, then close

	kick chan struct{} // cap 1: pending became non-empty
	full chan struct{} // cap 1: pending passed FlushBytes, skip the linger
	done chan struct{}
	once sync.Once

	spare []byte // recycled buffer, owned by the flusher
}

func newPeerConn(e *TCPEndpoint, to string, c net.Conn) *peerConn {
	return &peerConn{
		ep:   e,
		to:   to,
		c:    c,
		kick: make(chan struct{}, 1),
		full: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
}

// enqueue stages frames frames built by build into the pending buffer
// and wakes the flusher. It fails only on a broken connection, which the
// caller treats like a dead peer (re-dial once, then drop).
func (pc *peerConn) enqueue(build func([]byte) []byte, frames int) error {
	pc.mu.Lock()
	if pc.broken || pc.drain {
		pc.mu.Unlock()
		return net.ErrClosed
	}
	pc.pending = build(pc.pending)
	pc.frames += frames
	n := len(pc.pending)
	pc.mu.Unlock()
	pc.signal(n)
	return nil
}

func (pc *peerConn) signal(pendingBytes int) {
	ch := pc.kick
	if pendingBytes >= pc.ep.cfg.FlushBytes {
		ch = pc.full
	}
	select {
	case ch <- struct{}{}:
	default:
	}
}

// shutdown retires the connection. graceful lets the flusher drain the
// pending buffer first (endpoint Close); otherwise pending frames are
// dropped like in-flight messages to a crashed node (write error path).
func (pc *peerConn) shutdown(graceful bool) {
	pc.mu.Lock()
	if graceful {
		pc.drain = true
	} else {
		pc.broken = true
		pc.pending = nil
		pc.frames = 0
	}
	pc.mu.Unlock()
	pc.once.Do(func() { close(pc.done) })
	if !graceful {
		_ = pc.c.Close()
	}
}

// flusher owns conn.Write for this connection. After a wake-up it
// lingers briefly (FlushLinger on the endpoint clock) so a burst of
// sends coalesces into one write, unless the buffer already passed
// FlushBytes.
func (pc *peerConn) flusher() {
	linger := pc.ep.cfg.FlushLinger
	for {
		select {
		case <-pc.done:
			pc.flush()
			pc.mu.Lock()
			pc.broken = true
			pc.mu.Unlock()
			_ = pc.c.Close()
			return
		case <-pc.full:
		case <-pc.kick:
			if linger > 0 {
				t, cancel := ClockTimer(pc.ep.clock, linger)
				select {
				case <-t:
				case <-pc.full:
				case <-pc.done:
				}
				cancel()
			}
		}
		if !pc.flush() {
			return
		}
	}
}

// flush writes the pending buffer until it is empty. It returns false
// once the connection is broken (including a failed write, which drops
// the connection for everyone).
func (pc *peerConn) flush() bool {
	for {
		pc.mu.Lock()
		if pc.broken {
			pc.mu.Unlock()
			return false
		}
		if len(pc.pending) == 0 {
			pc.mu.Unlock()
			return true
		}
		buf, frames := pc.pending, pc.frames
		pc.pending = pc.spare
		pc.spare = nil
		pc.frames = 0
		pc.mu.Unlock()

		// Counted before the write: the receiver may act on the frames
		// the moment they hit the socket, and a reader of the counter
		// must never see the frames' effects without the count.
		pc.ep.cfg.Counters.ObserveNetBatch(frames)
		_, err := pc.c.Write(buf)
		if err != nil {
			pc.ep.dropConn(pc.to, pc)
			return false
		}
		if cap(buf) <= maxPendingRetain {
			pc.spare = buf[:0] // spare is only ever touched by this goroutine
		}
	}
}
