// Package node implements the agent-system node runtime: exactly-once step
// execution (§2, after [11]), the basic rollback mechanism of Figure 4 and
// the optimized mechanism of Figure 5, over the substrates in
// internal/{network,stable,txn,resource}.
//
// Protocol architecture. Every hand-off / RCE / rollback decision lives in
// the pure state machines of internal/protocol; this package is the
// driver around them. The dispatcher goroutine decodes inbound messages
// into protocol events, workers feed local decisions (hand-off delegated,
// commit decided, branch executed) in as events too, and a single
// network.TimerWheel per node turns timer-fire callbacks into events —
// Machine.Step is always serialized under one mutex. The effects a
// transition returns (outbound messages, a decider's verdict write,
// branch settles, record GC, timer arm/cancel) are applied by
// the same caller, outside the machine lock. Timers therefore cost O(1)
// goroutines per node — not one polling loop per in-flight transaction —
// and a network.VirtualClock advances every protocol timer
// deterministically.
//
// Concurrency model. Each node runs a dispatcher goroutine handling
// protocol messages and a sched.Pool of Config.Workers step workers
// draining the agent input queue through volatile claim/lease hand-out
// (default 1: the paper's serial node model). A worker never waits on a
// peer: its prepared hand-off, or its shipped RCE list, stays parked with
// its locks and queue lease until the verdict, or the exec ack or its
// timeout, ends it. The dispatcher never blocks on a worker. Concurrent step transactions are serialized by the txn
// layer's strict 2PL; the pool additionally avoids co-scheduling steps
// whose registered resource hints collide.
//
// Crash behaviour. A node's volatile state (in-flight transactions, locks,
// pending acks, the protocol machine) is lost on Stop/crash; its stable
// store (input queue, resource states, prepared branches, outcome
// records) survives. On restart the node first resolves in-doubt
// prepared work with the respective deciders by replaying the survivors
// into a fresh machine, then re-loads resources, then resumes
// processing — exactly the recovery the paper's mechanism relies on
// (§4.3: the agent and log still reside in the input queue, enabling the
// algorithm to restart the transaction).
package node

import (
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sched"
	"repro/internal/stable"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/wire"
)

// ResourceFactory constructs (or re-loads after a crash) one resource
// manager from the node's stable store.
type ResourceFactory func(store stable.Store) (resource.Resource, error)

// Config configures a node runtime.
type Config struct {
	// Name is the node's network name.
	Name string
	// Optimized selects the Figure-5 rollback algorithm (avoid agent
	// transfers, ship RCE lists, run ACEs concurrently); false selects
	// the basic Figure-4 algorithm.
	Optimized bool
	// LogMode selects state or transition logging for savepoints (§4.2).
	LogMode core.LogMode
	// AckTimeout is how long a shipped RCE list waits for its exec ack
	// and a hand-off to an unreachable decider waits to retry; in-doubt
	// branches first query after twice that. All run on the timer wheel.
	AckTimeout time.Duration
	// RetryDelay is the back-off between attempts of failed work.
	RetryDelay time.Duration
	// MaxAttempts bounds retries of a queue container before the agent
	// is reported failed to its owner. 0 selects the default, 25.
	MaxAttempts int
	// Workers is the number of concurrent step-transaction workers
	// draining the input queue (the internal/sched pool). The default 1
	// reproduces the paper's one-step-at-a-time node model; higher
	// values run independent step transactions in parallel under 2PL.
	Workers int
	// Clock drives the node's protocol timers (exec-ack timeouts, control
	// resends, in-doubt queries, notification resends) through its
	// timer wheel; nil uses the wall clock. A network.VirtualClock
	// makes every protocol timer manually advanceable.
	Clock network.Clock
	// Counters receives metrics; nil = off, methods are nil-safe (as Tracer).
	Counters *metrics.Counters
	// Tracer receives the node's causal event records: every protocol
	// transition, timer arm/fire/cancel, wire send/receive/batch-flush,
	// and stable-transaction outcome. May be nil (all record calls are
	// nil-safe and free). Build it over the same Clock as the node so
	// traces are deterministic under a VirtualClock.
	Tracer *trace.Tracer
	// Logger receives structured runtime events (permanent agent
	// failures, recovery problems) with node/agent/txn attributes; nil
	// discards them.
	Logger *slog.Logger
	// Membership, when set, turns on the membership layer: the node
	// floods view announcements, resolves "@ring" step locations through
	// the manager's consistent-hash ring, and forwards a claimed
	// ring-placed step whose owner is another node through the queue
	// hand-off (see membership.go). Nil keeps the static-wiring
	// behaviour.
	Membership *membership.Manager
}

func (c *Config) fillDefaults() {
	if c.LogMode == 0 {
		c.LogMode = core.StateLogging
	}
	if c.AckTimeout == 0 {
		c.AckTimeout = 2 * time.Second
	}
	if c.RetryDelay == 0 {
		c.RetryDelay = 10 * time.Millisecond
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 25
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.Clock == nil {
		c.Clock = network.WallClock()
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
}

// Node is one agent-system node.
type Node struct {
	cfg       Config
	ep        network.Endpoint
	store     stable.Store
	queue     *stable.Queue
	mgr       *txn.Manager
	registry  *agent.Registry
	factories []ResourceFactory
	wheel     *network.TimerWheel // every wait in the node runs on it

	// pmu serializes Machine.Step; the machine itself is pure and
	// single-threaded. Never hold mu and pmu together.
	pmu     sync.Mutex
	machine *protocol.Machine

	// members is cfg.Membership (nil without the membership layer).
	members *membership.Manager

	mu               sync.Mutex
	resources        map[string]resource.Resource
	branchTx         map[string]parked // transactions parked for a verdict or an exec ack
	pool             *sched.Pool       // step scheduler; set once recovery completes
	recoveredSettled chan struct{}     // a verdict settled a branch record; recovery waits for the last

	decodes atomic.Int64 // full container decodes, see decode

	// Ack piggyback hold buffers (PR-10): non-blocking responses parked
	// per peer until an outbound batch heads that way or the linger
	// timer flushes them.
	holdMu    sync.Mutex
	held      map[string][]network.Outgoing
	heldArmed map[string]bool

	recovered []txn.Outcome // decider records found at New, replayed by Start

	ready chan struct{}
	stop  chan struct{}
	wg    sync.WaitGroup
}

// New creates a node runtime attached to the given endpoint and store. The
// registry provides the step and compensation code (the code-mobility
// substitution); factories construct the node's resources.
func New(cfg Config, ep network.Endpoint, store stable.Store, registry *agent.Registry, factories ...ResourceFactory) (*Node, error) {
	cfg.fillDefaults()
	if cfg.Name == "" {
		cfg.Name = ep.Name()
	}
	if strings.Contains(cfg.Name, "#") {
		return nil, fmt.Errorf("node: name %q must not contain '#'", cfg.Name)
	}
	queue := stable.NewQueue(store, "q/")
	mgr, err := txn.NewManager(cfg.Name, store)
	if err != nil {
		return nil, err
	}
	if tr := cfg.Tracer; tr != nil {
		// Stable-transaction outcomes (commit, abort, prepare,
		// commit-prepared) land in the same ring as the protocol events
		// they settle.
		mgr.SetTraceHook(func(op, id string) {
			tr.Rec(trace.OpStable, id, "", op, "", "", 0)
		})
	}
	n := &Node{
		cfg:      cfg,
		ep:       ep,
		store:    store,
		queue:    queue,
		mgr:      mgr,
		registry: registry,
		machine: protocol.NewMachine(protocol.Config{
			Node:          cfg.Name,
			RetryInterval: cfg.RetryDelay * 5,
			AckTimeout:    cfg.AckTimeout,
		}),
		factories:        factories,
		members:          cfg.Membership,
		resources:        make(map[string]resource.Resource),
		branchTx:         make(map[string]parked),
		recoveredSettled: make(chan struct{}, 1),
		ready:            make(chan struct{}),
		stop:             make(chan struct{}),
	}
	// A decider that cannot read its records must not answer: they are
	// read here, and replayed by Start.
	if n.recovered, err = mgr.Outcomes(); err != nil {
		return nil, fmt.Errorf("node %s: %w", cfg.Name, err)
	}
	return n, nil
}

// Name returns the node name.
func (n *Node) Name() string { return n.cfg.Name }

// Queue exposes the node's agent input queue (tests and launchers).
func (n *Node) Queue() *stable.Queue { return n.queue }

// Resource returns the named local resource manager.
func (n *Node) Resource(name string) (resource.Resource, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	r, ok := n.resources[name]
	return r, ok
}

// Manager exposes the transaction manager (tests and setup code).
func (n *Node) Manager() *txn.Manager { return n.mgr }

// Start launches the timer wheel, the dispatcher and the worker pool. It
// returns immediately; recovery (in-doubt resolution, resource loading)
// happens in the background and gates queue processing.
func (n *Node) Start() {
	n.wheel = network.NewTimerWheel(n.cfg.Clock, n.onTimers, n.cfg.Counters)
	// The decider records answer queries the moment the dispatcher runs,
	// so they — and with them each source's mark — are back in the
	// machine first, and commits still owed to RCE parties go out again
	// on the wheel.
	for _, r := range n.recovered {
		n.step(protocol.RecoveredOutcome{TxnID: r.TxnID, Commit: r.Commit, Mark: r.Mark, Parties: r.Parties})
	}
	n.recovered = nil
	n.wg.Add(2)
	go func() {
		defer n.wg.Done()
		n.dispatch()
	}()
	go func() {
		defer n.wg.Done()
		n.recoverThenWork()
	}()
	if n.members != nil {
		// Introduce ourselves: a joining (or restarting) node's first
		// announcement provokes anti-entropy replies that teach it the
		// present view.
		n.Announce()
	}
}

// Stop halts the node, abandoning volatile state (the crash case). The
// stable store is left intact; a new Node on the same store recovers.
// The scheduler pool drains: in-flight step attempts finish, and claims
// on never-started entries and held attempts are released — a parked
// hand-off branch stays prepared, and recovery asks its decider; an
// unprepared compensation dies with the process. The timer wheel is
// stopped before waiting so no further timer events fire.
func (n *Node) Stop() {
	n.mu.Lock()
	select {
	case <-n.stop:
	default:
		close(n.stop)
	}
	pool := n.pool
	wheel := n.wheel
	n.mu.Unlock()
	if pool != nil {
		pool.Stop()
	}
	if wheel != nil {
		wheel.Stop()
	}
	n.wg.Wait()
}

// InDoubt returns how many prepared branches this node's store holds:
// hand-offs and RCE branches not yet settled with their decider's
// verdict. An agent completes before the
// source of its last hand-off settles, so a quiescent cluster is one
// where every node reads 0.
func (n *Node) InDoubt() (int, error) {
	ids, err := n.mgr.InDoubtBranches()
	return len(ids), err
}

// Ready returns a channel closed when recovery completed. (The protocol
// machine tracks readiness itself via the ReadyReached event; this
// channel is the public API for launchers and the cluster.)
func (n *Node) Ready() <-chan struct{} { return n.ready }

// send marshals and transmits a protocol message (fire and forget; the
// simulated network only fails permanently for unknown destinations).
func (n *Node) send(to, kind string, payload wire.BinaryMessage) {
	data := payload.AppendTo(nil)
	n.traceSend(to, kind, payload, len(data))
	// Unknown-destination errors are treated like a lost message: the
	// protocol's retries and presumed abort recover, exactly as for a
	// crashed destination.
	_ = n.ep.Send(to, kind, data)
}

// traceSend records one outbound protocol message in the trace ring.
func (n *Node) traceSend(to, kind string, payload wire.BinaryMessage, bytes int) {
	tr := n.cfg.Tracer
	if tr == nil {
		return
	}
	txnID, agentID := payloadSubject(payload)
	tr.Rec(trace.OpWireSend, txnID, agentID, kind, to, "", int64(bytes))
}

// payloadSubject pulls the transaction and/or agent a protocol payload
// concerns, for trace records.
func payloadSubject(payload wire.BinaryMessage) (txnID, agentID string) {
	switch p := payload.(type) {
	case *protocol.PrepareMsg:
		return p.TxnID, p.EntryID
	case *protocol.CtlMsg:
		return p.TxnID, ""
	case *protocol.AckMsg:
		return p.TxnID, ""
	case *protocol.StatusMsg:
		return p.TxnID, ""
	case *protocol.RCEExecMsg:
		return p.TxnID, ""
	case *doneMsg:
		return "", p.AgentID
	case *launchMsg:
		return "", p.ID
	default:
		return "", ""
	}
}

// sendTo routes a protocol send through the current transition's
// outbound batch, so every message a machine transition emits to the
// same destination rides one endpoint call (and with the Sim, one
// mailbox hop; with TCP, usually one socket write).
func (n *Node) sendTo(b *outBatch, to, kind string, payload wire.BinaryMessage) {
	data := payload.AppendTo(nil)
	n.traceSend(to, kind, payload, len(data))
	if n.holdForRide(to, kind, data) {
		return
	}
	b.add(to, kind, data)
}

// outBatch accumulates the sends of one protocol transition grouped by
// destination, preserving first-send order between destinations and
// message order within one.
type outBatch struct {
	order  []string
	byDest map[string][]network.Outgoing
}

func (b *outBatch) add(to, kind string, payload []byte) {
	if b.byDest == nil {
		b.byDest = make(map[string][]network.Outgoing, 2)
	}
	if _, ok := b.byDest[to]; !ok {
		b.order = append(b.order, to)
	}
	b.byDest[to] = append(b.byDest[to], network.Outgoing{Kind: kind, Payload: payload})
}

func (b *outBatch) flush(n *Node) {
	for _, to := range b.order {
		// Unknown-destination errors: lost messages, like send.
		_ = n.sendWithRides(to, b.byDest[to])
	}
	b.order = b.order[:0]
	clear(b.byDest)
}
