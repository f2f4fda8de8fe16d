package node

import (
	"fmt"
	"strings"

	"repro/internal/membership"
	"repro/internal/network"
	"repro/internal/stable"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Membership integration: announcement flooding and ring-based step
// routing.
//
// The node is (as everywhere) only the driver: the view/ring logic lives
// in internal/membership, the hand-off logic in internal/protocol. An
// agent moves between nodes one way only, the hand-off (§4.3): a step
// ships it to the ring owner of its next step, and a worker that claims
// a step container whose ring owner is another node forwards it
// unexecuted (forward). Placement is checked where work is claimed, so
// no second goroutine races the workers for queued entries: a view change
// takes effect at the next claim of each misplaced agent. A node whose
// own status is Left adopts nothing (decide), and its ring, which no
// longer contains it, forwards every ring-placed agent to the new owners.
const kindMemberAnnounce = "member.announce"

// RingLoc is the itinerary location sentinel resolved through the
// membership ring at execution time: "@ring" places the step on the
// owner of the agent's ID, "@ring:<key>" on the owner of <key>. Steps
// with ordinary node names bypass the ring entirely (and are therefore
// never forwarded — their placement is the itinerary author's).
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

// misplaced reports the ring owner of a step container's current step
// when that step is ring-placed and the owner is another node. Explicit
// locations and rollback containers are bound to this node by their
// itinerary or their log (a compensation runs where its step ran) and
// never move this way.
func (n *Node) misplaced(c *Container) (string, bool) {
	if n.members == nil || c.Mode != ModeStep {
		return "", false
	}
	step, err := c.Agent.Itin.StepAt(c.Agent.Cursor)
	if err != nil {
		return "", false // runStep reports it
	}
	key, ok := RingKey(step.Loc, c.Agent.ID)
	if !ok {
		return "", false
	}
	dest := n.ringDest(key)
	return dest, dest != n.cfg.Name
}

// forward hands a claimed container to dest, the ring owner of its step,
// without running the step: the removal from this queue is prepared for
// dest, which enqueues the stored bytes and decides (handOff), so a crash
// at any point leaves the agent in exactly one input queue. A failed
// forward costs an attempt and retries on the scheduler's cooldown, as a
// ring-routed step's hand-off does.
func (n *Node) forward(entry *stable.Entry, agentID, dest string) error {
	tx, err := n.mgr.Begin()
	if err != nil {
		return err
	}
	size := int64(len(entry.Data))
	n.cfg.Tracer.Rec(trace.OpMigrate, tx.ID(), agentID, "start", n.cfg.Name, dest, size)
	n.queue.RemoveIn(tx, entry)
	count := func(d int64) { n.cfg.Counters.AddMigrations(d, size) }
	if err := n.handOff(tx, dest, agentID, entry.Data, nil, count); err != nil {
		n.cfg.Counters.IncMigrationAbort()
		n.cfg.Tracer.Rec(trace.OpMigrate, tx.ID(), agentID, "abort", n.cfg.Name, dest, 0)
		return fmt.Errorf("node %s: forward %s to %s: %w", n.cfg.Name, agentID, dest, err)
	}
	n.cfg.Tracer.Rec(trace.OpMigrate, tx.ID(), agentID, "commit", n.cfg.Name, dest, size)
	return nil
}
