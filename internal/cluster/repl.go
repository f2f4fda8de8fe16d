package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/stable"
	"repro/internal/stable/repl"
)

// Replication in the simulated cluster.
//
// With Options.Store.Repl configured, every node's store is wrapped in a
// repl.Store (the primary of its shard) and every node runs a repl.Host
// holding replicas of other shards, connected through a dedicated
// "<node>!repl" endpoint on the simulated network — the storage plane
// has its own port, like a real database, and shares the node's fate for
// crashes and partitions (network.hostOf).
//
// KillPermanent models the failure class the paper excludes: the machine
// dies *with its disk*. The cluster destroys the node's primary store
// and every replica it hosted, promotes the most caught-up surviving
// replica of its shard (highest persisted (epoch, LSN)) to be the
// shard's new authoritative store, and boots a fresh runtime for the
// node's identity on it — conceptually the identity is re-homed onto the
// survivor that already held its stable state. Recovery then runs the
// normal §4.3 replay of stable survivors: queued agents resume, in-doubt
// hand-offs re-resolve, and replicated decision and outcome records let
// the reborn coordinator or decider answer in-doubt queries (with quorum
// acks a decision replicates before anyone can learn it, so the answers
// are always consistent with what was externalized).

// replicaRef tracks one replica's storage independent of the holder's
// runtime, so it survives the holder's crashes (and can be inspected for
// failover while the holder is down).
type replicaRef struct {
	dir   string       // data directory; "" for mem
	store stable.Store // open handle, nil while closed
}

// replEnabled reports whether the Spec configures replication.
func (c *Cluster) replEnabled() bool {
	return c.opts.Store.Repl.Enabled()
}

// followersFor returns (computing and caching on first use) the follower
// set of a shard: the next Repl.Followers node names in sorted circular
// order. Fixed for the shard's lifetime.
func (c *Cluster) followersFor(name string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.followers[name]; ok {
		return f
	}
	names := make([]string, 0, len(c.nodes))
	for n, st := range c.nodes {
		if !st.left {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	idx := -1
	for i, n := range names {
		if n == name {
			idx = i
			break
		}
	}
	var out []string
	if idx >= 0 {
		k := c.opts.Store.Repl.Followers
		if k > len(names)-1 {
			k = len(names) - 1
		}
		for i := 1; i <= k; i++ {
			out = append(out, names[(idx+i)%len(names)])
		}
	}
	c.followers[name] = out
	return out
}

// wrapRepl wraps a node's engine store into the primary side of its
// shard. promote bumps the epoch: the store is a replica being made
// authoritative.
func (c *Cluster) wrapRepl(name string, inner stable.Store, promote bool) (*repl.Store, error) {
	return repl.Wrap(inner, repl.Options{
		Shard:     name,
		Followers: c.followersFor(name),
		Acks:      c.opts.Store.Repl.FollowerAcks(),
		Clock:     c.opts.Clock,
		Promote:   promote,
		Counters:  c.opts.Store.Counters,
	})
}

// openReplica returns holder's replica store of shard, creating or
// reopening it as needed. Replica stores are cluster-owned: a mem
// replica survives the holder's simulated crashes, a durable one is
// closed on crash and reopened (running its own recovery) here.
func (c *Cluster) openReplica(holder, shard string) (stable.Store, error) {
	spec := c.opts.Store
	spec.Repl = stable.ReplSpec{}
	spec.Counters = nil // replica writes must not double-count primary metrics

	c.replicaMu.Lock()
	defer c.replicaMu.Unlock()
	byShard := c.replicas[holder]
	if byShard == nil {
		byShard = make(map[string]*replicaRef)
		c.replicas[holder] = byShard
	}
	ref := byShard[shard]
	if ref == nil {
		ref = &replicaRef{}
		if spec.Durable() {
			key := holder + "/" + shard
			gen := c.replGen[key]
			c.replGen[key] = gen + 1
			ref.dir = filepath.Join(spec.Dir, holder, "replica", fmt.Sprintf("%s.%d", shard, gen))
		}
		byShard[shard] = ref
	}
	if ref.store == nil {
		spec.Dir = ref.dir
		st, err := stable.Open(spec)
		if err != nil {
			return nil, fmt.Errorf("cluster: replica %s of %s: %w", holder, shard, err)
		}
		ref.store = st
	}
	return ref.store, nil
}

// closeReplicas closes holder's durable replica handles (holder
// crashed; the on-disk state survives).
func (c *Cluster) closeReplicas(holder string) {
	c.replicaMu.Lock()
	defer c.replicaMu.Unlock()
	for _, ref := range c.replicas[holder] {
		if ref.store != nil && ref.dir != "" {
			_ = stable.Close(ref.store)
			ref.store = nil
		}
	}
}

// destroyReplicas removes every replica holder hosts — its machine died
// with the disk.
func (c *Cluster) destroyReplicas(holder string) {
	c.replicaMu.Lock()
	defer c.replicaMu.Unlock()
	for _, ref := range c.replicas[holder] {
		if ref.store != nil {
			_ = stable.Close(ref.store)
		}
		if ref.dir != "" {
			_ = os.RemoveAll(ref.dir)
		}
	}
	delete(c.replicas, holder)
}

// bootRepl attaches the node's replication plane: its repl endpoint, the
// follower host with every replica it holds, and the frame pump.
func (c *Cluster) bootRepl(name string, st *nodeState) error {
	ep, err := c.sim.Endpoint(repl.Endpoint(name))
	if err != nil {
		return err
	}
	host := repl.NewHost(name, func(shard string) (stable.Store, error) {
		return c.openReplica(name, shard)
	})
	c.replicaMu.Lock()
	shards := make([]string, 0, len(c.replicas[name]))
	for shard := range c.replicas[name] {
		shards = append(shards, shard)
	}
	c.replicaMu.Unlock()
	sort.Strings(shards)
	for _, shard := range shards {
		store, err := c.openReplica(name, shard)
		if err != nil {
			return err
		}
		if err := host.Attach(shard, store); err != nil {
			return err
		}
	}
	rs, _ := st.store.(*repl.Store)
	peer := repl.NewPeer(name, rs, host, func(to, kind string, payload []byte) {
		_ = ep.Send(to, kind, payload)
	})
	st.replHost = host
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for msg := range ep.Recv() {
			_ = peer.Deliver(msg.From, msg.Kind, msg.Payload)
		}
		// Endpoint detached (crash or shutdown): release quorum waits.
		peer.Stop()
	}()
	peer.Announce()
	return nil
}

// KillPermanent kills a node *with its disk* — the fault class the
// paper's recovery cannot handle — and fails its identity over onto the
// most caught-up surviving replica: the node's own store and every
// replica it hosted are destroyed, the best replica of its shard is
// promoted (epoch bump), and a fresh runtime boots on it, running normal
// recovery there. With quorum acks no acknowledged batch — and no 2PC
// decision a participant could have observed — is lost; with async acks
// an unreplicated tail dies with the machine (that is the documented
// trade of Acks: 1).
func (c *Cluster) KillPermanent(name string) error {
	if !c.replEnabled() {
		return errors.New("cluster: KillPermanent requires Options.Store.Repl (no replicas to fail over to)")
	}
	c.mu.Lock()
	st, ok := c.nodes[name]
	if !ok || st.n == nil || st.left || st.dead {
		c.mu.Unlock()
		return fmt.Errorf("cluster: cannot kill %q", name)
	}
	wasCrashed := st.crashed
	st.dead = true
	st.crashed = true
	n := st.n
	store := st.store
	c.mu.Unlock()

	// 1. Crash semantics first: detach from the network, release quorum
	// waits (safe only after the detach — see repl.Store.Unbind), stop
	// the runtime.
	if !wasCrashed {
		c.sim.Crash(name)
		if rs, ok := store.(*repl.Store); ok {
			rs.Unbind()
		}
		n.Stop()
	}
	_ = stable.Close(store)

	// 2. The disk dies with the machine: destroy the primary store and
	// every replica this node hosted for others (their primaries will
	// re-replicate onto the reborn identity via snapshots).
	if dir := c.storeDir(name); dir != "" {
		_ = os.RemoveAll(dir)
	}
	c.mu.Lock()
	delete(c.storeDirs, name)
	c.mu.Unlock()
	c.destroyReplicas(name)

	// Every primary that counted this node as a caught-up follower must
	// forget that: the acked copies died with the disk, and the reborn
	// machine starts empty. Resetting re-arms the resend loops (they will
	// re-snapshot onto the reborn identity) and keeps a *later* failover
	// from promoting on the strength of acks that no longer name real
	// bytes.
	c.mu.Lock()
	for other, ost := range c.nodes {
		if other == name || ost.store == nil {
			continue
		}
		if rs, ok := ost.store.(*repl.Store); ok {
			rs.ResetFollower(name)
		}
	}
	c.mu.Unlock()

	// 3. Elect the most caught-up surviving replica of the shard.
	type candidate struct {
		holder     string
		ref        *replicaRef
		epoch, lsn uint64
		opened     bool // temporarily opened for inspection
	}
	var best *candidate
	for _, holder := range c.followersFor(name) {
		c.mu.Lock()
		hs := c.nodes[holder]
		holderDead := hs == nil || hs.dead
		c.mu.Unlock()
		if holderDead {
			continue
		}
		c.replicaMu.Lock()
		ref := c.replicas[holder][name]
		c.replicaMu.Unlock()
		if ref == nil {
			continue
		}
		cand := &candidate{holder: holder, ref: ref}
		if ref.store == nil {
			// Holder is down but its disk survived: open the replica to
			// inspect (and possibly promote) it.
			if _, err := c.openReplica(holder, name); err != nil {
				continue
			}
			cand.opened = true
		}
		var err error
		if cand.epoch, cand.lsn, err = repl.ReadMeta(ref.store); err != nil {
			continue
		}
		if best == nil || cand.epoch > best.epoch || (cand.epoch == best.epoch && cand.lsn > best.lsn) {
			if best != nil && best.opened {
				c.replicaMu.Lock()
				_ = stable.Close(best.ref.store)
				best.ref.store = nil
				c.replicaMu.Unlock()
			}
			best = cand
		} else if cand.opened {
			c.replicaMu.Lock()
			_ = stable.Close(ref.store)
			ref.store = nil
			c.replicaMu.Unlock()
		}
	}
	if best == nil {
		return fmt.Errorf("cluster: node %q killed permanently and no replica survives — shard lost", name)
	}

	// 4. Transfer ownership: the replica stops following (its holder's
	// host must drop it) and becomes the shard's authoritative store.
	c.mu.Lock()
	if hs := c.nodes[best.holder]; hs != nil && hs.replHost != nil {
		hs.replHost.Detach(name)
	}
	c.mu.Unlock()
	c.replicaMu.Lock()
	delete(c.replicas[best.holder], name)
	c.replicaMu.Unlock()

	promoted, err := c.wrapRepl(name, best.ref.store, true)
	if err != nil {
		return fmt.Errorf("cluster: promote replica of %q from %q: %w", name, best.holder, err)
	}
	c.mu.Lock()
	st.store = promoted
	if best.ref.dir != "" {
		c.storeDirs[name] = best.ref.dir
	}
	st.dead = false
	c.mu.Unlock()

	// 5. Reboot the identity on the promoted store; §4.3 recovery
	// replays the replicated survivors as events.
	if err := c.bootNode(name); err != nil {
		return err
	}
	nn, _ := c.Node(name)
	timer := time.NewTimer(5 * time.Second)
	defer timer.Stop()
	select {
	case <-nn.Ready():
		return nil
	case <-timer.C:
		return fmt.Errorf("cluster: failover of %q: ready timeout", name)
	}
}

// AwaitReplication blocks until every live node's primary has every
// *live* follower caught up to its log — i.e. the replication factor
// lost in a failover has been restored. Sequential permanent kills need
// this between kills: quorum tolerates one lost copy, so the survivors
// must finish re-replicating before the next machine may die. A
// (primary, follower) pair counts as caught up once it has been observed
// flush in any polling pass, so ongoing commit traffic cannot starve the
// wait; crashed followers are skipped (their disks survive, they catch
// up on recovery).
func (c *Cluster) AwaitReplication(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	caught := make(map[string]bool)
	for {
		lagging := c.replicationLag(caught)
		if len(lagging) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: replication factor not restored: %v", lagging)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// replicationLag runs one polling pass: it marks every (primary,
// follower) pair currently flush in caught and returns the pairs still
// lagging.
func (c *Cluster) replicationLag(caught map[string]bool) []string {
	type entry struct {
		name  string
		store stable.Store
	}
	var primaries []entry
	down := make(map[string]bool)
	c.mu.Lock()
	for n, st := range c.nodes {
		if st.n == nil || st.left || st.dead || st.crashed {
			down[n] = true
			continue
		}
		primaries = append(primaries, entry{n, st.store})
	}
	c.mu.Unlock()
	var lagging []string
	for _, e := range primaries {
		rs, ok := e.store.(*repl.Store)
		if !ok {
			continue
		}
		st := rs.ReplStatus()
		for f, acked := range st.Acked {
			pair := e.name + "\x00" + f
			if caught[pair] || down[f] {
				continue
			}
			if acked >= st.LSN {
				caught[pair] = true
				continue
			}
			lagging = append(lagging, fmt.Sprintf("%s→%s %d/%d", e.name, f, acked, st.LSN))
		}
	}
	return lagging
}

// ReplStatus returns the replication status (epoch, LSN, follower ack
// positions) of a node's primary store, if it is replicated.
func (c *Cluster) ReplStatus(name string) (stable.ReplStatus, bool) {
	c.mu.Lock()
	st, ok := c.nodes[name]
	c.mu.Unlock()
	if !ok || st.store == nil {
		return stable.ReplStatus{}, false
	}
	if r, ok := st.store.(stable.Replicated); ok {
		return r.ReplStatus(), true
	}
	return stable.ReplStatus{}, false
}

// storeDir returns the node's current primary data directory ("" for
// volatile engines).
func (c *Cluster) storeDir(name string) string {
	if !c.opts.Store.Durable() {
		return ""
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if dir, ok := c.storeDirs[name]; ok {
		return dir
	}
	return c.opts.Store.ForNode(name).Dir
}

// NodeStoreSpec returns the Spec that reopens the node's *current*
// primary store — after a permanent-kill failover the directory is the
// promoted replica's, not the node's original one. Post-mortem checks
// (chaos store-recovery invariant) use it.
func (c *Cluster) NodeStoreSpec(name string) (stable.Spec, bool) {
	if !c.opts.Store.Durable() {
		return stable.Spec{}, false
	}
	spec := c.opts.Store
	spec.Repl = stable.ReplSpec{}
	spec.Counters = nil
	spec.Dir = c.storeDir(name)
	return spec, true
}
