package node

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/membership"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/stable"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Membership integration: announcement flooding, ring-based step routing
// and the rebalancer that migrates misplaced agents through the ordinary
// 2PC hand-off.
//
// The node is (as everywhere) only the driver: the view/ring logic lives
// in internal/membership, the hand-off logic in internal/protocol. A
// migration is exactly a worker hand-off — destructive read of the queue
// entry committed atomically with the coordinator decision, the staged
// copy on the destination committed by the same decision — so the
// conservation and exactly-once arguments of the step path carry over
// verbatim. What membership adds on top:
//
//   - the claim fence (stable.Queue.SetFence) keeps step workers off
//     entries the rebalancer is about to move, and TryClaim gives the
//     rebalancer the same exclusion against workers — an agent is never
//     simultaneously executing and migrating, so in-flight transactions
//     drain on the source before its entries transfer;
//   - Container.Epoch, bumped per migration, lets a destination refuse
//     adopting an agent epoch it has already adopted (a volatile guard —
//     2PC is the real exactly-once mechanism, the epoch check is the
//     belt-and-braces against a confused or replayed coordinator);
//   - a node whose own status is Left refuses new adoptions entirely and
//     its ring (which no longer contains it) drains every ring-placed
//     agent to the new owners.
const kindMemberAnnounce = "member.announce"

// RingLoc is the itinerary location sentinel resolved through the
// membership ring at execution time: "@ring" places the step on the
// owner of the agent's ID, "@ring:<key>" on the owner of <key>. Steps
// with ordinary node names bypass the ring entirely (and are therefore
// never rebalanced — their placement is the itinerary author's).
const RingLoc = "@ring"

// RingKey extracts the placement key of a ring-routed location, if loc
// is one.
func RingKey(loc, agentID string) (string, bool) {
	if loc == RingLoc {
		return agentID, true
	}
	if strings.HasPrefix(loc, RingLoc+":") {
		return loc[len(RingLoc)+1:], true
	}
	return "", false
}

// announceMsg carries one node's full membership view:
//
//	0x90 0x14 | count | count × (Name Status Epoch)
type announceMsg struct {
	Members []membership.Member
}

// AppendTo implements wire.BinaryMessage.
func (m *announceMsg) AppendTo(buf []byte) []byte {
	buf = append(buf, wire.BinaryVersion, typeAnnounce)
	buf = wire.AppendUvarint(buf, uint64(len(m.Members)))
	for _, e := range m.Members {
		buf = wire.AppendString(buf, e.Name)
		buf = append(buf, byte(e.Status))
		buf = wire.AppendVarint(buf, e.Epoch)
	}
	return buf
}

// DecodeFrom implements wire.BinaryMessage. A status beyond Left is
// refused: Manager.Merge lets the higher status win, so an unknown one
// would outrank a departure.
func (m *announceMsg) DecodeFrom(data []byte) error {
	b, err := wire.Body(data, typeAnnounce)
	if err != nil {
		return err
	}
	r := wire.NewReader(b)
	m.Members = nil
	// A member costs at least its name length, status and epoch.
	if n := r.Count(3); n > 0 {
		m.Members = make([]membership.Member, n)
		for i := range m.Members {
			m.Members[i] = membership.Member{Name: r.String(), Status: membership.Status(r.Byte()), Epoch: r.Varint()}
			if m.Members[i].Status > membership.Left {
				r.Fail("member status %d", m.Members[i].Status)
			}
		}
	}
	return r.Done()
}

// Membership returns the node's membership manager (nil when the node
// runs with static wiring).
func (n *Node) Membership() *membership.Manager { return n.members }

// Adopted returns how many distinct agents this node has adopted through
// committed migrations since it started (volatile, like the guard map).
func (n *Node) Adopted() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.adopted)
}

// Announce floods the node's current view to every known live peer.
// Start calls it once at boot (a recovered or joining node re-learns the
// present through the anti-entropy replies it provokes) and the
// announcement handler calls it after every view-changing merge.
func (n *Node) Announce() {
	if n.members == nil {
		return
	}
	view := n.members.View()
	for _, peer := range n.members.Peers() {
		n.send(peer, kindMemberAnnounce, &announceMsg{Members: view.Members})
	}
}

// AnnounceStatus records a local status transition (the driver API for
// join/leave/suspect events — deterministic operator/cluster input, not
// a timer-based failure detector) and floods the new view.
func (n *Node) AnnounceStatus(name string, s membership.Status) {
	if n.members == nil {
		return
	}
	if entry, changed := n.members.SetStatus(name, s); changed {
		n.cfg.Tracer.Rec(trace.OpMember, "", "", "set-status", entry.Name, entry.Status.String(), entry.Epoch)
		n.cfg.Counters.IncRingChange()
		n.Announce()
	}
}

// handleAnnounce merges one flooded view. A merge that changes the local
// view re-floods it (so news reaches everyone transitively); a sender
// whose view was missing something gets a direct reply (so lagging and
// freshly restarted nodes converge without waiting for the next change).
func (n *Node) handleAnnounce(msg network.Message) {
	var am announceMsg
	if err := am.DecodeFrom(msg.Payload); err != nil {
		return
	}
	n.cfg.Counters.IncMemberAnnounce()
	changed, remoteStale := n.members.Merge(membership.View{Members: am.Members})
	if changed {
		n.cfg.Tracer.Rec(trace.OpMember, "", "", "merge", msg.From, "", int64(len(am.Members)))
		n.cfg.Counters.IncRingChange()
		n.Announce()
	}
	if remoteStale && msg.From != n.cfg.Name {
		view := n.members.View()
		n.send(msg.From, kindMemberAnnounce, &announceMsg{Members: view.Members})
	}
}

// ringDest resolves a ring-routed step location to the current owner.
// An empty ring (impossible while the node itself is Alive) falls back
// to self so the step keeps making local progress.
func (n *Node) ringDest(key string) string {
	if owner := n.members.Ring().Owner(key); owner != "" {
		return owner
	}
	return n.cfg.Name
}

// --- adoption guard ---------------------------------------------------

// stagingAdoption remembers, per staged transaction, which agent epoch a
// commit would adopt. Volatile by design: after a crash the 2PC in-doubt
// resolution re-derives everything that matters from stable storage.
type stagingAdoption struct {
	agentID string
	epoch   int64
}

// adoptionGate vets one StageEntry before it is durably prepared. It
// refuses when this node has Left (a draining node must not accept new
// agents) or when the container carries a migration epoch the node has
// already adopted (duplicate adoption). On acceptance of a migration
// container it parks the (txn, agent, epoch) so resolveAdoption can
// record the adoption if the transaction commits.
func (n *Node) adoptionGate(e protocol.StageEntry) error {
	if n.members == nil {
		return nil
	}
	if n.members.Left() {
		return errors.New("node left the cluster (draining)")
	}
	c, err := peekContainer(e.Data)
	if err != nil || c.Epoch == 0 {
		return nil // not a migration container (or not ours to judge)
	}
	agentID := e.EntryID
	if c.Agent != nil {
		agentID = c.Agent.ID
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.adopted[agentID] >= c.Epoch {
		n.cfg.Tracer.Rec(trace.OpMigrate, e.TxnID, agentID, "refuse", e.From, "", c.Epoch)
		n.cfg.Counters.IncAdoptionRefusal()
		return fmt.Errorf("agent %s epoch %d already adopted", agentID, c.Epoch)
	}
	n.adopting[e.TxnID] = stagingAdoption{agentID: agentID, epoch: c.Epoch}
	return nil
}

// resolveAdoption settles the adoption bookkeeping of one staged
// transaction: a commit records the agent epoch as adopted, an abort
// just forgets the staging. No-op for ordinary (non-migration) entries.
func (n *Node) resolveAdoption(txnID string, commit bool) {
	if n.members == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	rec, ok := n.adopting[txnID]
	if !ok {
		return
	}
	delete(n.adopting, txnID)
	if commit && rec.epoch > n.adopted[rec.agentID] {
		n.adopted[rec.agentID] = rec.epoch
	}
}

// --- rebalancer -------------------------------------------------------

// rebalanceLoop is the per-node rebalancer goroutine: woken by view
// changes (and, while migrations are pending or the node is draining, by
// queue activity), it sweeps the input queue and migrates every
// ring-placed agent whose owner is no longer this node. No ticker — the
// loop is signal-driven, so it is deterministic under a VirtualClock; the
// clock only paces retries of failed hand-offs.
func (n *Node) rebalanceLoop() {
	defer n.wg.Done()
	select {
	case <-n.ready:
	case <-n.stop:
		return
	}
	for {
		changed := n.members.Changed()
		notify := n.queue.Notify()
		pending := n.rebalanceSweep()
		if n.members.Left() {
			pending = true // draining: late arrivals must migrate too
		}
		if pending {
			select {
			case <-n.stop:
				return
			case <-changed:
			case <-notify:
			case <-n.clock.After(n.cfg.RetryDelay * 5):
			}
		} else {
			select {
			case <-n.stop:
				return
			case <-changed:
			}
		}
	}
}

// migrateBurst bounds the migration hand-offs the rebalancer attempts per
// sweep; overflow moves stay fenced and retry on the next sweep.
const migrateBurst = 8

// rebalanceSweep lists the queue, fences every misplaced ring-placed
// agent against the step workers, and migrates the unclaimed ones. It
// reports whether work remains (entries in flight under a worker claim,
// or hand-offs that aborted and need a retry).
func (n *Node) rebalanceSweep() (pending bool) {
	ring := n.members.Ring()
	entries, err := n.queue.Entries()
	if err != nil {
		return true
	}
	type move struct {
		e    *stable.Entry
		dest string
	}
	var moves []move
	fenced := make(map[string]bool)
	for _, e := range entries {
		dest, ok := n.migrationDest(ring, e)
		if !ok || dest == n.cfg.Name {
			continue
		}
		fenced[e.ID] = true
		moves = append(moves, move{e: e, dest: dest})
	}
	// The fence map is frozen from here on (SetFence readers see it
	// concurrently); a fresh sweep installs a fresh map.
	if len(fenced) == 0 {
		n.queue.SetFence(nil)
		return false
	}
	n.queue.SetFence(func(id string) bool { return fenced[id] })
	// still collects the moves that remain queued after this pass. The
	// fence keys are agent IDs, so a fence left behind after a successful
	// migration would block the same agent's NEXT visit to this node (a
	// later ring-routed hand-off back here) forever — the final fence must
	// cover exactly the entries that still need moving, nothing else.
	still := make(map[string]bool)
	attempted := 0
	for _, mv := range moves {
		select {
		case <-n.stop:
			return true
		default:
		}
		// Migration-burst throttle: a view change over a deep queue would
		// otherwise convert the whole misplaced backlog into one burst of
		// back-to-back distributed hand-offs, starving step workers of
		// store and lock bandwidth exactly when a joining node spikes
		// load. Overflow moves stay fenced (so workers do not race the
		// next pass for them) and retry on the next sweep.
		if attempted >= migrateBurst {
			still[mv.e.ID] = true
			pending = true
			continue
		}
		claimed, ok, err := n.queue.TryClaim(mv.e)
		if err != nil || !ok {
			// A worker holds it (its in-flight transaction drains before
			// the agent can move) or it was consumed since the listing;
			// the worker's Release re-triggers the sweep.
			if err != nil || n.stillQueued(mv.e) {
				still[mv.e.ID] = true
				pending = true
			}
			continue
		}
		attempted++
		if err := n.migrateEntry(claimed, mv.dest); err != nil {
			n.queue.Release(claimed)
			n.cfg.Counters.IncMigrationAbort()
			n.cfg.Tracer.Rec(trace.OpMigrate, "", claimed.ID, "abort", n.cfg.Name, mv.dest, 0)
			still[mv.e.ID] = true
			pending = true
			continue
		}
		// The hand-off removed the entry durably; Release just drops the
		// claim bookkeeping (and wakes anyone waiting on the queue).
		n.queue.Release(claimed)
	}
	if len(still) == 0 {
		n.queue.SetFence(nil)
	} else {
		n.queue.SetFence(func(id string) bool { return still[id] })
	}
	return pending
}

// stillQueued reports whether a TryClaim miss left the entry behind (a
// worker claim) rather than consumed it.
func (n *Node) stillQueued(e *stable.Entry) bool {
	entries, err := n.queue.Entries()
	if err != nil {
		return true
	}
	for _, cur := range entries {
		if cur.ID == e.ID {
			return true
		}
	}
	return false
}

// migrationDest decides where a queued container belongs under ring. Only
// ring-placed step containers move: explicit-location steps and rollback
// containers are bound to this node by their itinerary or their log (a
// compensation must run where its step ran) and keep executing here even
// during a drain.
func (n *Node) migrationDest(ring *membership.Ring, e *stable.Entry) (string, bool) {
	c, err := peekContainer(e.Data)
	if err != nil || c.Agent == nil || c.Mode != ModeStep {
		return "", false
	}
	step, err := c.Agent.Itin.StepAt(c.Agent.Cursor)
	if err != nil {
		return "", false
	}
	key, ok := RingKey(step.Loc, c.Agent.ID)
	if !ok {
		return "", false
	}
	owner := ring.Owner(key)
	if owner == "" {
		return "", false
	}
	return owner, true
}

// migrateEntry hands one claimed entry to dest as a 2PC queue hand-off —
// the same coordinator path as a step's shipContainer, minus the step:
// remove-from-source joins the coordinator's commit batch, the container
// (with a bumped migration epoch) is staged on dest, and one decision
// commits both. A crash at any point leaves the agent in exactly one
// input queue (§4.3 carries over: before the decision the staged copy
// dies by presumed abort; after it, removal is already durable).
func (n *Node) migrateEntry(e *stable.Entry, dest string) error {
	c, err := n.decode(e.Data)
	if err != nil || c.Agent == nil {
		return fmt.Errorf("node %s: migrate %q: corrupt container", n.cfg.Name, e.ID)
	}
	c.Epoch++
	data, err := EncodeContainer(c)
	if err != nil {
		return err
	}
	tx, err := n.mgr.Begin()
	if err != nil {
		return err
	}
	n.cfg.Tracer.Rec(trace.OpMigrate, tx.ID(), c.Agent.ID, "start", n.cfg.Name, dest, int64(len(data)))
	n.queue.RemoveIn(tx, e)
	prep, err := n.prepareEnqueueRemote(tx, dest, c.Agent.ID, data)
	if err != nil {
		n.abortParts(tx, nil)
		_ = tx.Abort()
		return fmt.Errorf("node %s: migrate %s to %s: %w", n.cfg.Name, c.Agent.ID, dest, err)
	}
	onCommit := func() { n.cfg.Counters.IncMigration(int64(len(data))) }
	if err := n.commitDistributed(tx, []protocol.Participant{prep}, onCommit); err != nil {
		return err
	}
	n.cfg.Tracer.Rec(trace.OpMigrate, tx.ID(), c.Agent.ID, "commit", n.cfg.Name, dest, int64(len(data)))
	return nil
}
