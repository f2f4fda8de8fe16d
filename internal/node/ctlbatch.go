package node

import (
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/stable"
	"repro/internal/trace"
)

// Control-plane writes and the ack hold:
//
//   - record GC: a DropOutcomes or DropDone effect deletes its records in
//     one store.Apply. Concurrent deletes need no staging here: the WAL's
//     group commit already coalesces concurrent applies into one write.
//     The outcome record itself is written inside the decider's own
//     commit batch, so no verdict leaves before its record is stable.
//
//   - ack piggybacking: non-blocking messages (a party's q.outcome.ack,
//     a source's q.resolved) park per peer for up to a RetryDelay linger;
//     the next outbound transition batch headed to that peer drains them
//     into its frame group, so they ride a write the node was making
//     anyway. A message someone blocks on (exec acks, verdicts, done
//     acks) never parks. The linger is the one driver-level timer:
//     onTimers intercepts it before the protocol machine sees the fire.

// holdPrefix marks the per-peer hold linger timers; it collides with no
// protocol timer class.
const holdPrefix = "hold|"

// dropRecords deletes collected control-plane records in one apply.
// Losing it to a crash is safe: a surviving outcome record answers
// queries with the verdict it records, and a surviving done record only
// restarts the idempotent done/ack cycle.
func (n *Node) dropRecords(ops ...stable.Op) {
	_ = n.store.Apply(ops...)
	n.cfg.Counters.ObserveDecisionBatch(len(ops))
}

// piggybackKind reports whether a kind is safe to park: nothing blocks on
// it, and a RetryDelay of extra latency sits far inside the sender's
// RetryInterval resend cadence. A verdict never parks: the source's claim
// and locks, and a party's locks, wait on it.
func piggybackKind(kind string) bool {
	return kind == protocol.KindOutcomeAck || kind == protocol.KindResolved
}

// holdForRide parks one encoded reply for peer to, arming the linger
// timer on the first hold. Reports whether the message was parked
// (false: the caller sends it normally).
func (n *Node) holdForRide(to, kind string, payload []byte) bool {
	if n.wheel == nil || !piggybackKind(kind) {
		return false
	}
	n.holdMu.Lock()
	if n.held == nil {
		n.held = make(map[string][]network.Outgoing)
		n.heldArmed = make(map[string]bool)
	}
	n.held[to] = append(n.held[to], network.Outgoing{Kind: kind, Payload: payload})
	arm := !n.heldArmed[to]
	if arm {
		n.heldArmed[to] = true
	}
	n.holdMu.Unlock()
	if arm {
		n.wheel.Schedule(holdPrefix+to, n.cfg.RetryDelay)
	}
	return true
}

// sendWithRides sends msgs to peer in one batch, and with them the
// replies parked for that peer: the piggyback ride.
func (n *Node) sendWithRides(peer string, msgs []network.Outgoing) error {
	if rides := n.takeHeld(peer); len(rides) > 0 {
		n.cfg.Counters.IncAckPiggybacked(int64(len(rides)))
		for _, r := range rides {
			n.cfg.Tracer.Rec(trace.OpPiggyback, "", "", r.Kind, peer, "", int64(len(r.Payload)))
		}
		msgs = append(msgs, rides...)
	}
	n.cfg.Tracer.Rec(trace.OpBatchFlush, "", "", "", peer, "", int64(len(msgs)))
	return n.ep.SendBatch(peer, msgs)
}

// takeHeld removes and returns every message parked for peer.
func (n *Node) takeHeld(peer string) []network.Outgoing {
	n.holdMu.Lock()
	msgs := n.held[peer]
	if msgs != nil {
		delete(n.held, peer)
		delete(n.heldArmed, peer)
	}
	n.holdMu.Unlock()
	return msgs
}

// flushHeld sends a peer's parked replies in their own frame group — the
// linger expired with no outbound batch materialising.
func (n *Node) flushHeld(peer string) {
	msgs := n.takeHeld(peer)
	if len(msgs) == 0 {
		return
	}
	// Unknown-destination errors: lost messages, like send.
	_ = n.ep.SendBatch(peer, msgs)
}
