package node

import (
	"fmt"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/sched"
	"repro/internal/stable"
	"repro/internal/trace"
	"repro/internal/txn"
)

// runCompensation executes one compensation transaction of a partial
// rollback — Figure 4b (basic) and Figure 5b (optimized) of the paper.
// The transactional mechanics live here; every routing decision (where
// the next hop runs, whether entries ship as an RCE list) is computed
// by the pure functions in internal/protocol.
//
// The container was routed here by the previous hop: in basic mode this is
// always the node where the step being compensated executed; in optimized
// mode the agent only travels when the step contains a mixed compensation
// entry, otherwise it stays put and the resource compensation entries are
// shipped to the resource node instead.
//
// The container's SRO is already the target savepoint's (startRollback
// restored it before the first hop). Reaching the target restores the
// full savepoint image: the cursor, itinerary and step counter, and the
// SRO once more, to the same bytes. The WRO is never restored (§4.1).
func (n *Node) runCompensation(entry *stable.Entry, c *Container, attempt int) error {
	a := c.Agent
	spID := c.SpID
	// Strongly reversible objects are not accessible during compensation
	// (§4.3, Figure 3): a compensation must not read SRO state, whichever
	// savepoint's it is.
	a.SRO.Freeze(true)

	tx, err := n.mgr.Begin()
	if err != nil {
		return err
	}
	n.cfg.Tracer.Rec(trace.OpAgentStep, tx.ID(), a.ID, "compensate", "", "", int64(attempt))
	n.queue.RemoveIn(tx, entry)

	// Pop the step this transaction compensates, then route the next hop
	// first: its destination decides the transaction, so the RCE list
	// has to name it.
	var eos *core.EndStepEntry
	var ops []*core.OpEntry
	reached, _ := protocol.PopToTarget(a.Log, spID)
	if !reached {
		if eos, ops, err = protocol.PopLastStep(a.Log); err != nil {
			_ = tx.Abort()
			n.cfg.Counters.IncCompTxnAbort()
			return permanent(fmt.Errorf("node %s: %w", n.cfg.Name, err))
		}
		reached, _ = protocol.PopToTarget(a.Log, spID)
	}
	next, dest, err := n.nextHop(a, spID, reached, attempt)
	if err != nil {
		_ = tx.Abort()
		return err
	}

	var ship *protocol.RCEShipped
	if eos != nil {
		if ship, err = n.compensateLastStep(tx, a, eos, ops, dest, attempt); err != nil {
			_ = tx.Abort()
			n.cfg.Counters.IncCompTxnAbort()
			return err
		}
	}
	finish := func(parts []string) error {
		a.SRO.Freeze(false) // clear runtime-only flag before serialization
		return n.shipContainer(entry, tx, next, dest, parts, n.cfg.Counters.AddCompTxns, func(err error) error {
			if err != nil {
				n.cfg.Counters.IncCompTxnAbort()
			}
			return err
		})
	}
	if ship == nil {
		return finish(nil)
	}
	// Figure 5b: the worker is free at the ship; the exec ack, or its
	// timeout on the wheel, ends the attempt.
	parts := []string{ship.To}
	pool := n.pool
	return n.hold(tx, pointCompHeld, *ship, func(ok bool, reason string) {
		if !ok {
			n.abort(tx, parts)
			n.cfg.Counters.IncCompTxnAbort()
			pool.Settle(entry, fmt.Errorf("node %s: remote compensation on %s: %s", n.cfg.Name, ship.To, reason))
		} else if err := finish(parts); err != sched.Held {
			pool.Settle(entry, err)
		}
	})
}

// nextHop routes the container after this compensation transaction. On
// reaching the target it restores the agent from the savepoint entry —
// without deleting it from the log (§4.3) — and the next step
// transaction starts at the restored cursor position; otherwise the next
// compensation transaction runs where Figure 5a's destination rule puts
// it. The SRO stays frozen for the compensations still to run here.
func (n *Node) nextHop(a *agent.Agent, spID string, reached bool, attempt int) (*Container, string, error) {
	if !reached {
		eos, ok := protocol.PeekEOS(a.Log)
		if !ok {
			return nil, "", permanent(fmt.Errorf("node %s: agent %s: savepoint %q unreachable during rollback", n.cfg.Name, a.ID, spID))
		}
		return &Container{Mode: ModeRollback, SpID: spID, Agent: a}, protocol.CompensationDest(eos, n.cfg.Optimized, n.cfg.Name), nil
	}
	if err := a.RestoreSavepoint(spID); err != nil {
		return nil, "", permanent(fmt.Errorf("node %s: restore savepoint %q: %w", n.cfg.Name, spID, err))
	}
	step, err := a.Itin.StepAt(a.Cursor)
	if err != nil {
		return nil, "", permanent(fmt.Errorf("node %s: restored cursor: %w", n.cfg.Name, err))
	}
	dest, err := n.stepDest(a, step, attempt)
	return &Container{Mode: ModeStep, Agent: a}, dest, err
}

// compensateLastStep executes the compensating operations of the step
// the caller popped off the log (protocol.PopLastStep yields them in the
// reverse execution order compensations must run in, §4.2) inside tx. In
// the optimized algorithm without mixed entries (Figure 5b), the agent
// compensation entries run here first, so a failing one aborts before
// anything left, and the resource compensation entries are returned as
// the list to ship to the resource node, naming decider, the node the
// container goes to next; nil when nothing ships.
func (n *Node) compensateLastStep(tx *txn.Tx, a *agent.Agent, eos *core.EndStepEntry, ops []*core.OpEntry, decider string, attempt int) (*protocol.RCEShipped, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	dest := protocol.PickDestination(eos.Node, eos.AltNodes, attempt)
	if protocol.CompensateLocally(eos, n.cfg.Optimized, n.cfg.Name) || dest == n.cfg.Name {
		// Basic algorithm, or mixed entries (the agent was brought to
		// the resource node), or the agent already resides there (or at
		// the alternative this attempt picked — a branch here would
		// share this transaction's ID): execute everything locally in
		// log order.
		if err := n.execCompOps(tx, a, ops); err != nil {
			return nil, err
		}
		n.cfg.Counters.IncCompOps(int64(len(ops)))
		return nil, nil
	}

	aces, rces, err := protocol.SplitCompOps(ops)
	if err != nil {
		return nil, permanent(fmt.Errorf("node %s: %w", n.cfg.Name, err))
	}
	if err := n.execCompOps(tx, a, aces); err != nil {
		return nil, err
	}
	n.cfg.Counters.IncCompOps(int64(len(aces)))
	if len(rces) == 0 {
		return nil, nil
	}
	n.cfg.Counters.IncRemoteCompBatch()
	return &protocol.RCEShipped{TxnID: tx.ID(), To: dest, Decider: decider, Ops: rces}, nil
}
