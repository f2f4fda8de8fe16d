// Package node implements the agent-system node runtime: exactly-once step
// execution (§2, after [11]), the basic rollback mechanism of Figure 4 and
// the optimized mechanism of Figure 5, over the substrates in
// internal/{network,stable,txn,resource}.
//
// Protocol architecture. Every 2PC / RCE / rollback decision lives in the
// pure state machines of internal/protocol; this package is the driver
// around them. The dispatcher goroutine decodes inbound messages into
// protocol events, workers feed local decisions (prepare shipped, commit
// decided, branch executed) in as events too, and a single
// network.TimerWheel per node turns timer-fire callbacks into events —
// Machine.Step is always serialized under one mutex. The effects a
// transition returns (outbound messages, staged-queue operations, branch
// commits/aborts, decision-record GC, timer arm/cancel) are applied by
// the same caller, outside the machine lock. Timers therefore cost O(1)
// goroutines per node — not one polling loop per in-flight transaction —
// and a network.VirtualClock advances every protocol timer
// deterministically.
//
// Concurrency model. Each node runs a dispatcher goroutine handling
// protocol messages and a sched.Pool of Config.Workers step workers
// draining the agent input queue through volatile claim/lease hand-out
// (default 1: the paper's serial node model). Workers block on
// acknowledgements from remote participants; the dispatcher never blocks
// on a worker. Concurrent step transactions are serialized by the txn
// layer's strict 2PL; the pool additionally avoids co-scheduling steps
// whose registered resource hints collide.
//
// Crash behaviour. A node's volatile state (in-flight transactions, locks,
// pending acks, the protocol machine) is lost on Stop/crash; its stable
// store (input queue, resource states, prepared branches, decision
// records) survives. On restart the node first resolves in-doubt prepared
// work with the respective coordinators (presumed abort) by replaying the
// survivors into a fresh machine, then re-loads resources, then resumes
// processing — exactly the recovery the paper's mechanism relies on
// (§4.3: the agent and log still reside in the input queue, enabling the
// algorithm to restart the transaction).
package node

import (
	"errors"
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
	// AckTimeout bounds waits for remote acknowledgements.
	AckTimeout time.Duration
	// RetryDelay is the back-off between attempts of failed work.
	RetryDelay time.Duration
	// MaxAttempts bounds retries of a queue container before the agent
	// is reported failed to its owner. 0 means unbounded.
	MaxAttempts int
	// Workers is the number of concurrent step-transaction workers
	// draining the input queue (the internal/sched pool). The default 1
	// reproduces the paper's one-step-at-a-time node model; higher
	// values run independent step transactions in parallel under 2PL.
	Workers int
	// SagaBaseline restores weakly reversible objects from savepoint
	// before-images, the saga-style behaviour the paper rejects (§4.1).
	// For the S16b ablation only — it demonstrably corrupts agents whose
	// compensations produce information (see the baseline tests).
	SagaBaseline bool
	// Clock drives the node's protocol timers (ack timeouts, control
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
	// the manager's consistent-hash ring, and runs a rebalancer that
	// migrates misplaced ring-placed agents via 2PC hand-offs (see
	// membership.go). Nil keeps the static-wiring behaviour.
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
	clock     network.Clock
	wheel     *network.TimerWheel

	// pmu serializes Machine.Step; the machine itself is pure and
	// single-threaded. Never hold mu and pmu together.
	pmu     sync.Mutex
	machine *protocol.Machine

	// members is cfg.Membership (nil without the membership layer);
	// adopted/adopting (under mu) back the duplicate-adoption guard.
	members  *membership.Manager
	adopted  map[string]int64
	adopting map[string]stagingAdoption

	mu        sync.Mutex
	resources map[string]resource.Resource
	waiters   map[string]chan protocol.AckMsg
	branchTx  map[string]*txn.Tx // prepared RCE branch transactions, parked for the verdict
	pool      *sched.Pool        // step scheduler; set once recovery completes

	decodes atomic.Int64 // full container decodes, see decode

	// Control-plane write stager (PR-10): decision-record clears and
	// done-record drops from concurrent transitions coalesce into one
	// group Apply, flushed on size or after a short linger.
	stagerMu    sync.Mutex
	stagerOps   []stable.Op
	stagerArmed bool

	// Ack piggyback hold buffers (PR-10): non-blocking responses parked
	// per peer until an outbound batch heads that way or the linger
	// timer flushes them.
	holdMu    sync.Mutex
	held      map[string][]network.Outgoing
	heldArmed map[string]bool

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
	if err := refuseOlderLayout(cfg.Name, store, queue); err != nil {
		return nil, err // before anything below can write to the store
	}
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
		clock:    cfg.Clock,
		machine: protocol.NewMachine(protocol.Config{
			Node:          cfg.Name,
			RetryInterval: cfg.RetryDelay * 5,
			StaleAfter:    2 * cfg.AckTimeout,
		}),
		factories: factories,
		members:   cfg.Membership,
		adopted:   make(map[string]int64),
		adopting:  make(map[string]stagingAdoption),
		resources: make(map[string]resource.Resource),
		waiters:   make(map[string]chan protocol.AckMsg),
		branchTx:  make(map[string]*txn.Tx),
		ready:     make(chan struct{}),
		stop:      make(chan struct{}),
	}
	return n, nil
}

// refuseOlderLayout scans the input queue, entries and markers, and the
// completion records for what an older runtime wrote and this one no
// longer reads: gob-encoded containers (before the binary container
// codec), the gob envelopes the queue and done/ records wrapped around a
// container (before the queue stored it bare), and prepared insertions
// that carry their container under q/s/ (before Prepare wrote it at its
// entry key). Left to the runtime the first two would decode as a corrupt
// container and be dropped as poisoned (failAgent), and the third is a
// marker that hides nothing, deleted on commit with its container —
// either way every in-flight agent of the data directory silently lost.
// So the node refuses to start instead, with the store untouched. Only
// those shapes count: other garbage (a malformed launch) stays on the
// runtime poison path, so one bad message cannot block a restart.
func refuseOlderLayout(node string, store stable.Store, queue *stable.Queue) error {
	refuse := func(what, name, how, commit string) error {
		return fmt.Errorf("node %s: %s %q %s: this data directory was written by an older runtime; %s is the last commit that reads it (finish or drain its agents there)", node, what, name, how, commit)
	}
	const gob = "is gob-encoded"
	err := queue.Each(func(key, id string, data []byte) error {
		switch {
		case id == "" && stable.IsRetiredStagedRecord(data):
			return refuse("prepared insertion", key, "carries its container", "e4fe5c0")
		case !wire.LooksLikeGob(data):
			return nil
		case id == "":
			// Not this layout's record: the envelope around the container.
			return refuse("queue record", key, gob, "fd17232")
		default:
			return refuse("queued container of agent", id, gob, "5015b40")
		}
	})
	if err != nil {
		return err
	}
	keys, err := store.Keys(donePrefix)
	if err != nil {
		return err
	}
	for _, k := range keys {
		if raw, _, err := store.Get(k); err != nil {
			return err
		} else if wire.LooksLikeGob(raw) {
			return refuse("completion record of agent", strings.TrimPrefix(k, donePrefix), gob, "fd17232")
		}
	}
	return nil
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
	n.wheel = network.NewTimerWheel(n.clock, n.onTimer, n.cfg.Counters)
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
		n.wg.Add(1)
		go n.rebalanceLoop()
		// Introduce ourselves: a joining (or restarting) node's first
		// announcement provokes anti-entropy replies that teach it the
		// present view.
		n.Announce()
	}
}

// Stop halts the node, abandoning volatile state (the crash case). The
// stable store is left intact; a new Node on the same store recovers.
// Closing the stop channel first unblocks workers waiting on remote
// acknowledgements, so the scheduler pool drains promptly: in-flight step
// attempts finish (committed work stands, aborted work is still queued),
// and claims on never-started entries are released. The timer wheel is
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
	// Courtesy drain of the GC stager: the ops are crash-safe to lose,
	// but a clean stop should not leave avoidable garbage behind.
	n.flushCtlStage()
}

// Ready returns a channel closed when recovery completed. (The protocol
// machine tracks readiness itself via the ReadyReached event; this
// channel is the public API for launchers and the cluster.)
func (n *Node) Ready() <-chan struct{} { return n.ready }

// --- ack plumbing -----------------------------------------------------

func ackKey(kind, id string) string { return kind + "|" + id }

// registerWaiter registers interest in an acknowledgement before the
// request is sent; await then blocks for it. The machine's DeliverAck
// effect fulfils it.
func (n *Node) registerWaiter(kind, id string) chan protocol.AckMsg {
	ch := make(chan protocol.AckMsg, 1)
	n.mu.Lock()
	n.waiters[ackKey(kind, id)] = ch
	n.mu.Unlock()
	return ch
}

func (n *Node) dropWaiter(kind, id string) {
	n.mu.Lock()
	delete(n.waiters, ackKey(kind, id))
	n.mu.Unlock()
}

func (n *Node) deliverAck(kind, id string, msg protocol.AckMsg) {
	n.mu.Lock()
	ch, ok := n.waiters[ackKey(kind, id)]
	if ok {
		delete(n.waiters, ackKey(kind, id))
	}
	n.mu.Unlock()
	if ok {
		ch <- msg
	}
}

// errAckTimeout marks a missing acknowledgement (retryable).
var errAckTimeout = errors.New("node: acknowledgement timed out")

func (n *Node) await(ch chan protocol.AckMsg, kind, id string) (protocol.AckMsg, error) {
	timeout, cancel := network.ClockTimer(n.clock, n.cfg.AckTimeout)
	defer cancel()
	select {
	case msg := <-ch:
		if !msg.OK {
			return msg, fmt.Errorf("node: %s refused: %s", kind, msg.Err)
		}
		return msg, nil
	case <-timeout:
		n.dropWaiter(kind, id)
		return protocol.AckMsg{}, fmt.Errorf("%w: %s %s", errAckTimeout, kind, id)
	case <-n.stop:
		n.dropWaiter(kind, id)
		return protocol.AckMsg{}, errors.New("node: stopped")
	}
}

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
		msgs := b.byDest[to]
		// A batch headed to a peer picks up that peer's parked replies:
		// the piggyback ride.
		if rides := n.takeHeld(to); len(rides) > 0 {
			n.cfg.Counters.IncAckPiggybacked(int64(len(rides)))
			for _, r := range rides {
				n.cfg.Tracer.Rec(trace.OpPiggyback, "", "", r.Kind, to, "", int64(len(r.Payload)))
			}
			msgs = append(msgs, rides...)
		}
		n.cfg.Tracer.Rec(trace.OpBatchFlush, "", "", "", to, "", int64(len(msgs)))
		// Unknown-destination errors: lost messages, like send.
		_ = n.ep.SendBatch(to, msgs)
	}
	b.order = b.order[:0]
	clear(b.byDest)
}
