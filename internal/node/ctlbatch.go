package node

import (
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/stable"
	"repro/internal/trace"
)

// Control-plane batching, driver half (the machine half is the per-peer
// timer coalescing in internal/protocol/timers.go):
//
//   - decision-record GC staging: ClearDecision and DropDone effects from
//     concurrent transitions buffer into one bounded staging slice and
//     apply as a single stable group commit, flushed when the buffer
//     fills or after a RetryDelay linger. Only the garbage-collection
//     deletes stage — the decision record itself is still written inside
//     the transaction's own commit batch, so the durability-ordering
//     invariant (no control send leaves before its decision record is
//     stable) holds without the stager ever gating a send.
//
//   - ack piggybacking: non-blocking replies (commit/abort acks, status
//     answers) park per peer for up to a RetryDelay linger; the next
//     outbound transition batch headed to that peer drains them into its
//     frame group, so the ack rides a write the node was making anyway.
//     A reply the sender blocks on (prepare acks, exec acks, done acks)
//     never parks.

const (
	// ctlStageMax bounds the GC staging buffer; a full buffer flushes
	// immediately instead of waiting for the linger timer.
	ctlStageMax = 64
	// stagerFlushID is the wheel timer draining the stager after its
	// linger; holdPrefix marks the per-peer hold-buffer linger timers.
	// Both are driver-level timers: onTimer intercepts them before the
	// protocol machine sees the fire. Neither collides with a protocol
	// timer kind.
	stagerFlushID = "stager|flush"
	holdPrefix    = "hold|"
)

// stageCtlOp buffers one control-plane GC operation for the next group
// commit (or applies it directly when the wheel is not running). Losing
// staged deletes on a crash is safe: a surviving decision record answers
// queries with the decision it records, and a surviving done record only
// restarts the idempotent done/ack cycle.
func (n *Node) stageCtlOp(op stable.Op) {
	if n.wheel == nil {
		_ = n.store.Apply(op)
		return
	}
	n.stagerMu.Lock()
	n.stagerOps = append(n.stagerOps, op)
	full := len(n.stagerOps) >= ctlStageMax
	arm := !full && !n.stagerArmed
	if arm {
		n.stagerArmed = true
	}
	n.stagerMu.Unlock()
	if full {
		n.flushCtlStage()
	} else if arm {
		n.wheel.Schedule(stagerFlushID, n.cfg.RetryDelay)
	}
}

// flushCtlStage applies every staged GC operation as one stable group
// commit.
func (n *Node) flushCtlStage() {
	n.stagerMu.Lock()
	ops := n.stagerOps
	n.stagerOps = nil
	n.stagerArmed = false
	n.stagerMu.Unlock()
	if len(ops) == 0 {
		return
	}
	_ = n.store.Apply(ops...)
	n.cfg.Counters.ObserveDecisionBatch(len(ops))
	n.cfg.Tracer.Rec(trace.OpCtlFlush, "", "", "", "", "", int64(len(ops)))
}

// piggybackKind reports whether a reply kind is safe to park: nothing
// blocks on it, and a RetryDelay of extra latency sits far inside the
// sender's RetryInterval resend cadence.
func piggybackKind(kind string) bool {
	switch kind {
	case protocol.KindEnqueueCommitAck, protocol.KindEnqueueAbortAck,
		protocol.KindRCECommitAck, protocol.KindRCEAbortAck,
		protocol.KindTxnStatus:
		return true
	}
	return false
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
