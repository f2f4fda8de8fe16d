// Package cluster assembles simulated multi-node agent systems for tests,
// examples and the experiment harness: a simulated network, one node
// runtime per name (each with its own stable store and resources), a
// collector that receives agent completion notifications, and fault
// injection (node crash/recovery, link partitions).
//
// A crash (Crash) stops the node runtime and detaches it from the network,
// discarding all volatile state; the stable store survives, exactly like a
// machine reboot. Recover re-attaches a fresh runtime to the surviving
// store and lets the node-level recovery protocol resolve in-doubt work.
// With replication configured (Options.Store.Repl), KillPermanent models
// the harsher fault where the disk dies too: the node's identity fails
// over onto the most caught-up surviving replica (see repl.go).
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/stable"
	"repro/internal/stable/repl"
	"repro/internal/trace"
	"repro/internal/txn"
)

// collectorName is the network name of the cluster's completion collector;
// it doubles as the owner of launched agents.
const collectorName = "~collector"

// Options configures a cluster.
type Options struct {
	// Optimized selects the Figure-5 rollback algorithm on all nodes.
	Optimized bool
	// LogMode selects state or transition logging (default state).
	LogMode core.LogMode
	// Latency is the one-way network latency (default 0: immediate).
	Latency time.Duration
	// AckTimeout / RetryDelay / MaxAttempts override node defaults.
	AckTimeout  time.Duration
	RetryDelay  time.Duration
	MaxAttempts int
	// Workers sets the step-scheduler worker count on every node
	// (node.Config.Workers; default 1, the paper's serial model).
	Workers int
	// SagaBaseline enables the deliberately wrong saga-style WRO
	// restore (S16b ablation; see node.Config.SagaBaseline).
	SagaBaseline bool
	// Counters receives all metrics; one is created if nil.
	Counters *metrics.Counters
	// Store configures every node's stable engine through the unified
	// stable.Spec entry point: Engine/Dir/Sync select the engine (each
	// node gets Spec.ForNode(name)), Repl adds per-shard primary/backup
	// replication (enabling KillPermanent failover). The zero value gives
	// each node a MemStore owned by the cluster, so it survives simulated
	// crashes; a durable engine automatically runs its real
	// crash-recovery path on Recover (the store handle is closed on Crash
	// and reopened via stable.Open).
	Store stable.Spec
	// FaultSeed seeds the simulated network's fault RNG so probabilistic
	// link faults (SetLinkFaults) replay identically for the same seed.
	FaultSeed int64
	// MailboxCap bounds each node's inbound mailbox; overflow drops are
	// counted in Counters.MailboxDrops. Zero keeps mailboxes unbounded.
	MailboxCap int
	// Clock drives the simulated network's latency-delayed deliveries
	// AND every node's protocol timers (ack timeouts, control resends,
	// in-doubt queries, notification resends — the node timer wheel);
	// nil uses the wall clock. A network.VirtualClock makes both
	// manually advanceable (deterministic deadline order).
	Clock network.Clock
	// TraceRing sizes each node's causal-trace ring buffer: 0 keeps
	// tracing on at trace.DefaultRingSize, a positive value overrides
	// the ring size, and a negative value disables tracing entirely.
	// Tracers are stamped from Clock and survive Crash/Recover, so a
	// node's timeline spans simulated reboots.
	TraceRing int
	// Membership gives every node a membership manager: views flood via
	// announcements, "@ring" step locations resolve through the
	// consistent-hash ring, and each node rebalances misplaced agents.
	// It also enables Join (boot a node mid-run) and Leave (drain and
	// detach a node).
	Membership bool
	// VNodes overrides the ring's virtual-node count per member (default
	// membership.DefaultVNodes).
	VNodes int
}

// Result is the final outcome of one agent delivered to the collector.
type Result struct {
	AgentID string
	Failed  bool
	Reason  string
	Agent   *agent.Agent
}

// nodeState tracks one node and what is needed to resurrect it.
type nodeState struct {
	n         *node.Node
	store     stable.Store
	factories []node.ResourceFactory
	crashed   bool
	// left: the node was drained out via Leave. The runtime is stopped
	// and detached from the network, but — unlike a crash — the state is
	// terminal, and the node object and store stay readable so
	// invariant checks can still sum its resources.
	left bool
	// dead: KillPermanent destroyed the node's storage and no failover
	// has (yet) succeeded. Terminal unless a replica promotion revives
	// the identity.
	dead bool
	// replHost is the follower side of the node's replication plane,
	// rebuilt on every boot.
	replHost *repl.Host
}

// Cluster is a simulated multi-node agent system.
type Cluster struct {
	opts     Options
	sim      *network.Sim
	registry *agent.Registry
	counters *metrics.Counters

	mu      sync.Mutex
	nodes   map[string]*nodeState
	tracers map[string]*trace.Tracer
	results map[string]chan Result
	started bool
	// followers caches each shard's fixed follower set; storeDirs
	// overrides a node's primary data directory after a failover promoted
	// a replica living elsewhere on disk.
	followers map[string][]string
	storeDirs map[string]string

	// replicaMu guards the cluster-owned replica stores (they outlive
	// their holder's runtime, like the primaries outlive theirs).
	replicaMu sync.Mutex
	replicas  map[string]map[string]*replicaRef // holder -> shard -> ref
	replGen   map[string]int                    // "holder/shard" -> next dir generation

	collectorEp network.Endpoint
	wg          sync.WaitGroup
	stop        chan struct{}
}

// New creates an empty cluster.
func New(opts Options) *Cluster {
	if opts.Counters == nil {
		opts.Counters = &metrics.Counters{}
	}
	if opts.LogMode == 0 {
		opts.LogMode = core.StateLogging
	}
	return &Cluster{
		opts: opts,
		sim: network.NewSim(network.SimConfig{
			Latency:    opts.Latency,
			Counters:   opts.Counters,
			FaultSeed:  opts.FaultSeed,
			MailboxCap: opts.MailboxCap,
			Clock:      opts.Clock,
		}),
		registry:  agent.NewRegistry(),
		counters:  opts.Counters,
		nodes:     make(map[string]*nodeState),
		tracers:   make(map[string]*trace.Tracer),
		results:   make(map[string]chan Result),
		followers: make(map[string][]string),
		storeDirs: make(map[string]string),
		replicas:  make(map[string]map[string]*replicaRef),
		replGen:   make(map[string]int),
		stop:      make(chan struct{}),
	}
}

// Registry returns the shared step/compensation registry.
func (c *Cluster) Registry() *agent.Registry { return c.registry }

// Counters returns the cluster's metrics counters.
func (c *Cluster) Counters() *metrics.Counters { return c.counters }

// AddNode registers a node with its resource factories. Must be called
// before Start.
func (c *Cluster) AddNode(name string, factories ...node.ResourceFactory) error {
	store, err := c.newStore(name)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started || c.nodes[name] != nil {
		_ = stable.Close(store)
		if c.started {
			return errors.New("cluster: AddNode after Start")
		}
		return fmt.Errorf("cluster: duplicate node %q", name)
	}
	c.nodes[name] = &nodeState{
		store:     store,
		factories: factories,
	}
	return nil
}

// newStore builds one node's stable engine store (the inner store —
// replication wrapping happens separately, once the node set is known).
func (c *Cluster) newStore(name string) (stable.Store, error) {
	spec := c.opts.Store
	spec.Repl = stable.ReplSpec{} // replication is layered on by the cluster
	if spec.Counters == nil {
		spec.Counters = c.counters
	}
	if spec.Durable() {
		spec.Dir = c.storeDir(name)
	}
	store, err := stable.Open(spec)
	if err != nil {
		return nil, fmt.Errorf("cluster: store for %q: %w", name, err)
	}
	return store, nil
}

// Start boots all nodes and the collector, and waits for every node to
// finish recovery (trivial on first boot).
func (c *Cluster) Start() error {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return errors.New("cluster: already started")
	}
	c.started = true
	names := make([]string, 0, len(c.nodes))
	for name := range c.nodes {
		names = append(names, name)
	}
	c.mu.Unlock()
	sort.Strings(names)

	if c.replEnabled() {
		// The node set is final now: fix every shard's follower set and
		// wrap each engine store into its shard's primary.
		for _, name := range names {
			c.mu.Lock()
			st := c.nodes[name]
			c.mu.Unlock()
			rs, err := c.wrapRepl(name, st.store, false)
			if err != nil {
				return err
			}
			c.mu.Lock()
			st.store = rs
			c.mu.Unlock()
		}
	}

	ep, err := c.sim.Endpoint(collectorName)
	if err != nil {
		return err
	}
	c.collectorEp = ep
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.collect()
	}()

	for _, name := range names {
		if err := c.bootNode(name); err != nil {
			return err
		}
	}
	return c.AwaitReady(5 * time.Second)
}

func (c *Cluster) bootNode(name string) error {
	c.mu.Lock()
	st := c.nodes[name]
	c.mu.Unlock()
	if c.replEnabled() {
		// Attach the replication plane first, so the store can replicate
		// (and block on quorum acks) from the node's first write on.
		if err := c.bootRepl(name, st); err != nil {
			return err
		}
	}
	ep, err := c.sim.Endpoint(name)
	if err != nil {
		return err
	}
	cfg := node.Config{
		Name:         name,
		Optimized:    c.opts.Optimized,
		LogMode:      c.opts.LogMode,
		AckTimeout:   c.opts.AckTimeout,
		RetryDelay:   c.opts.RetryDelay,
		MaxAttempts:  c.opts.MaxAttempts,
		Workers:      c.opts.Workers,
		SagaBaseline: c.opts.SagaBaseline,
		Clock:        c.opts.Clock,
		Counters:     c.counters,
		Tracer:       c.nodeTracer(name),
	}
	if c.opts.Membership {
		// A fresh manager per boot: the view is volatile (like the rest
		// of the node's soft state); the boot announcement plus
		// anti-entropy replies re-teach a recovered node the present.
		cfg.Membership = membership.NewManager(name, c.opts.VNodes, c.seedMembers()...)
	}
	n, err := node.New(cfg, ep, st.store, c.registry, st.factories...)
	if err != nil {
		return err
	}
	c.mu.Lock()
	st.n = n
	st.crashed = false
	c.mu.Unlock()
	n.Start()
	return nil
}

// seedMembers builds the epoch-0 membership hints a booting node starts
// from: every registered, not-left node. Hints only say "announce to
// these"; real entries learned from the flood override them.
func (c *Cluster) seedMembers() []membership.Member {
	c.mu.Lock()
	defer c.mu.Unlock()
	seeds := make([]membership.Member, 0, len(c.nodes))
	for name, st := range c.nodes {
		if st.left {
			continue
		}
		seeds = append(seeds, membership.Member{Name: name, Status: membership.Alive, Epoch: 0})
	}
	return seeds
}

// Join registers and boots an additional node after Start — the
// membership join path. The newcomer's boot announcement floods its
// existence; every node's ring then includes it, and their rebalancers
// migrate its fair share of ring-placed agents over. Requires
// Options.Membership (without it the existing nodes would never learn
// the new name).
func (c *Cluster) Join(name string, factories ...node.ResourceFactory) error {
	if !c.opts.Membership {
		return errors.New("cluster: Join requires Options.Membership")
	}
	c.mu.Lock()
	started := c.started
	c.mu.Unlock()
	if !started {
		return errors.New("cluster: Join before Start (use AddNode)")
	}
	store, err := c.newStore(name)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if c.nodes[name] != nil {
		c.mu.Unlock()
		_ = stable.Close(store)
		return fmt.Errorf("cluster: duplicate node %q", name)
	}
	c.nodes[name] = &nodeState{store: store, factories: factories}
	c.mu.Unlock()
	if c.replEnabled() {
		rs, err := c.wrapRepl(name, store, false)
		if err != nil {
			return err
		}
		c.mu.Lock()
		c.nodes[name].store = rs
		c.mu.Unlock()
	}
	if err := c.bootNode(name); err != nil {
		return err
	}
	n, _ := c.Node(name)
	timer := time.NewTimer(5 * time.Second)
	defer timer.Stop()
	select {
	case <-n.Ready():
		return nil
	case <-timer.C:
		return fmt.Errorf("cluster: join %q: ready timeout", name)
	}
}

// Leave drains a node out of the cluster: its Left status floods, its
// rebalancer migrates every ring-placed agent to the new owners (and the
// node refuses new adoptions), and once the input queue is empty with no
// claims or staged hand-offs in flight, the runtime stops and detaches
// from the network. The node object and its store remain readable — a
// departed node's resources still count in conservation sums.
func (c *Cluster) Leave(name string, timeout time.Duration) error {
	if !c.opts.Membership {
		return errors.New("cluster: Leave requires Options.Membership")
	}
	n, ok := c.Node(name)
	if !ok {
		return fmt.Errorf("cluster: no node %q", name)
	}
	c.mu.Lock()
	if c.nodes[name].left {
		c.mu.Unlock()
		return fmt.Errorf("cluster: node %q already left", name)
	}
	c.mu.Unlock()
	n.AnnounceStatus(name, membership.Left)
	deadline := time.Now().Add(timeout)
	// Two consecutive clean reads: one could race an entry between its
	// claim release and the rebalancer's next hand-off.
	for streak := 0; streak < 2; {
		depth, err := n.Queue().Len()
		if err != nil {
			return err
		}
		staged, err := n.Queue().StagedTxns()
		if err != nil {
			return err
		}
		claimed := n.Queue().Claimed()
		if depth == 0 && claimed == 0 && len(staged) == 0 {
			streak++
			time.Sleep(time.Millisecond)
			continue
		}
		streak = 0
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: leave %q: not drained after %v (%d queued, %d claimed, %d staged)",
				name, timeout, depth, claimed, len(staged))
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.mu.Lock()
	c.nodes[name].left = true
	store := c.nodes[name].store
	c.mu.Unlock()
	c.sim.Crash(name)
	if rs, ok := store.(*repl.Store); ok {
		rs.Unbind()
	}
	n.Stop()
	return nil
}

// LeftNodes returns the names of nodes drained out via Leave, sorted.
func (c *Cluster) LeftNodes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var names []string
	for name, st := range c.nodes {
		if st.left {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// nodeTracer returns the node's trace ring, creating it on first boot
// and reusing it across Crash/Recover so timelines span reboots.
// Returns nil when Options.TraceRing is negative.
func (c *Cluster) nodeTracer(name string) *trace.Tracer {
	if c.opts.TraceRing < 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if tr, ok := c.tracers[name]; ok {
		return tr
	}
	now := func() int64 { return time.Now().UnixNano() }
	if clk := c.opts.Clock; clk != nil {
		now = func() int64 { return clk.Now().UnixNano() }
	}
	size := c.opts.TraceRing
	if size == 0 {
		size = trace.DefaultRingSize
	}
	tr := trace.New(name, size, now)
	c.tracers[name] = tr
	return tr
}

// Tracer returns the named node's trace ring, or nil when tracing is
// disabled or the node never booted.
func (c *Cluster) Tracer(name string) *trace.Tracer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tracers[name]
}

// TraceRecords merges every node's ring snapshot into one causally
// sorted record slice — the input for timeline reconstruction and the
// trace exporters.
func (c *Cluster) TraceRecords() []trace.Record {
	c.mu.Lock()
	tracers := make([]*trace.Tracer, 0, len(c.tracers))
	for _, tr := range c.tracers {
		tracers = append(tracers, tr)
	}
	c.mu.Unlock()
	snaps := make([][]trace.Record, len(tracers))
	for i, tr := range tracers {
		snaps[i] = tr.Snapshot()
	}
	return trace.Merge(snaps...)
}

// AwaitReady blocks until every running node finished recovery.
func (c *Cluster) AwaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	c.mu.Lock()
	nodes := make([]*nodeState, 0, len(c.nodes))
	for _, st := range c.nodes {
		nodes = append(nodes, st)
	}
	c.mu.Unlock()
	for _, st := range nodes {
		if st.crashed || st.n == nil {
			continue
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return errors.New("cluster: ready timeout")
		}
		timer := time.NewTimer(remain)
		select {
		case <-st.n.Ready():
			timer.Stop()
		case <-timer.C:
			return errors.New("cluster: ready timeout")
		}
	}
	return nil
}

// Node returns the running node runtime by name.
func (c *Cluster) Node(name string) (*node.Node, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.nodes[name]
	if !ok || st.n == nil || st.crashed {
		return nil, false
	}
	return st.n, true
}

// WithTx runs fn inside a local transaction on the named node, committing
// on success and aborting on error. Used to seed resources.
func (c *Cluster) WithTx(nodeName string, fn func(tx *txn.Tx, n *node.Node) error) error {
	n, ok := c.Node(nodeName)
	if !ok {
		return fmt.Errorf("cluster: no node %q", nodeName)
	}
	tx, err := n.Manager().Begin()
	if err != nil {
		return err
	}
	if err := fn(tx, n); err != nil {
		_ = tx.Abort()
		return err
	}
	return tx.Commit()
}

// Launch inserts the agent into the input queue of node at and returns the
// channel delivering its final result. Savepoints for the sub-itineraries
// entered to reach the first step are constituted first.
func (c *Cluster) Launch(a *agent.Agent, entered []string, at string) (<-chan Result, error) {
	n, ok := c.Node(at)
	if !ok {
		return nil, fmt.Errorf("cluster: no node %q", at)
	}
	a.Owner = collectorName
	if err := node.AppendInitialSavepointsMode(a, entered, c.opts.LogMode, c.opts.SagaBaseline); err != nil {
		return nil, err
	}
	data, err := node.EncodeContainer(&node.Container{Mode: node.ModeStep, Agent: a})
	if err != nil {
		return nil, err
	}
	ch := make(chan Result, 1)
	c.mu.Lock()
	c.results[a.ID] = ch
	c.mu.Unlock()
	if err := n.Queue().Enqueue(a.ID, data); err != nil {
		return nil, err
	}
	return ch, nil
}

// Run launches the agent and waits for its result.
func (c *Cluster) Run(a *agent.Agent, entered []string, at string, timeout time.Duration) (Result, error) {
	ch, err := c.Launch(a, entered, at)
	if err != nil {
		return Result{}, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		return res, nil
	case <-timer.C:
		return Result{}, fmt.Errorf("cluster: agent %s timed out after %v", a.ID, timeout)
	}
}

// Crash stops a node abruptly: volatile state is lost, messages to it are
// dropped, the stable store survives. With a durable engine the store
// handle is closed too (the on-disk state survives, like a machine
// reboot), and Recover reopens it through its real crash-recovery path.
func (c *Cluster) Crash(name string) error {
	c.mu.Lock()
	st, ok := c.nodes[name]
	if !ok || st.n == nil || st.crashed || st.left {
		c.mu.Unlock()
		return fmt.Errorf("cluster: cannot crash %q", name)
	}
	st.crashed = true
	n := st.n
	store := st.store
	c.mu.Unlock()
	// Order matters: detach from the network first, so that when
	// releasing quorum-blocked writers (Unbind) lets the node runtime
	// wind down, nothing under-replicated can leak out of the dead node.
	c.sim.Crash(name)
	if rs, ok := store.(*repl.Store); ok {
		rs.Unbind()
	}
	n.Stop()
	if c.opts.Store.Durable() {
		_ = stable.Close(store)
		c.closeReplicas(name)
	}
	return nil
}

// Recover boots a fresh node runtime on the crashed node's surviving
// store.
func (c *Cluster) Recover(name string) error {
	c.mu.Lock()
	st, ok := c.nodes[name]
	if !ok || !st.crashed || st.dead {
		c.mu.Unlock()
		return fmt.Errorf("cluster: cannot recover %q", name)
	}
	c.mu.Unlock()
	if c.opts.Store.Durable() {
		store, err := c.newStore(name)
		if err != nil {
			return err
		}
		if c.replEnabled() {
			rs, err := c.wrapRepl(name, store, false)
			if err != nil {
				return err
			}
			store = rs
		}
		c.mu.Lock()
		st.store = store
		c.mu.Unlock()
	}
	return c.bootNode(name)
}

// SetLink partitions (up=false) or heals (up=true) the link between two
// nodes.
func (c *Cluster) SetLink(a, b string, up bool) { c.sim.SetLink(a, b, up) }

// SetLinkFaults installs probabilistic faults (drop/duplicate/reorder,
// latency spike) on both directions of the link between two nodes; a zero
// LinkFaults removes them.
func (c *Cluster) SetLinkFaults(a, b string, f network.LinkFaults) {
	c.sim.SetLinkFaults(a, b, f)
	c.sim.SetLinkFaults(b, a, f)
}

// ClearLinkFaults removes every installed link fault.
func (c *Cluster) ClearLinkFaults() { c.sim.ClearLinkFaults() }

// HealAllLinks removes every link partition.
func (c *Cluster) HealAllLinks() { c.sim.HealAll() }

// LinkFaultStats returns the injected-fault totals summed over all links.
func (c *Cluster) LinkFaultStats() network.LinkStats { return c.sim.TotalLinkStats() }

// NodeNames returns the names of all registered nodes (crashed or not),
// sorted for determinism.
func (c *Cluster) NodeNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.nodes))
	for name := range c.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// CrashedNodes returns the names of currently crashed nodes, sorted.
func (c *Cluster) CrashedNodes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var names []string
	for name, st := range c.nodes {
		if st.crashed && !st.dead {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// Close shuts everything down.
func (c *Cluster) Close() {
	c.mu.Lock()
	select {
	case <-c.stop:
		c.mu.Unlock()
		return
	default:
	}
	close(c.stop)
	nodes := make([]*nodeState, 0, len(c.nodes))
	for _, st := range c.nodes {
		nodes = append(nodes, st)
	}
	c.mu.Unlock()
	for _, st := range nodes {
		if st.n != nil && !st.crashed && !st.left {
			if rs, ok := st.store.(*repl.Store); ok {
				rs.Unbind()
			}
			st.n.Stop()
		}
		_ = stable.Close(st.store)
	}
	c.replicaMu.Lock()
	for _, byShard := range c.replicas {
		for _, ref := range byShard {
			if ref.store != nil {
				_ = stable.Close(ref.store)
				ref.store = nil
			}
		}
	}
	c.replicaMu.Unlock()
	c.sim.Close()
	c.wg.Wait()
}

// collect receives completion notifications, acknowledges them, and
// resolves result channels exactly once.
func (c *Cluster) collect() {
	for {
		select {
		case <-c.stop:
			return
		case msg, ok := <-c.collectorEp.Recv():
			if !ok {
				return
			}
			if msg.Kind != node.KindAgentDone {
				continue
			}
			done, err := node.DecodeDone(msg.Payload)
			if err != nil {
				continue
			}
			// Acknowledge so the node garbage-collects its record.
			if ack, err := node.EncodeDoneAck(done.AgentID); err == nil {
				_ = c.collectorEp.Send(msg.From, node.KindAgentDoneAck, ack)
			}
			c.mu.Lock()
			ch, want := c.results[done.AgentID]
			if want {
				delete(c.results, done.AgentID)
			}
			c.mu.Unlock()
			if !want {
				continue
			}
			ch <- Result{
				AgentID: done.AgentID,
				Failed:  done.Failed,
				Reason:  done.Reason,
				Agent:   done.Agent,
			}
		}
	}
}
