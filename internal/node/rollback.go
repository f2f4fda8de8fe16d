package node

import (
	"fmt"

	"repro/internal/agent"
	"repro/internal/protocol"
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

	reached, _ := protocol.PopToTarget(a.Log, spID)
	var parts []string
	if !reached {
		parts, err = n.compensateLastStep(tx, a, attempt)
		if err != nil {
			abortErr := tx.Abort()
			n.abortParts(tx, parts)
			n.cfg.Counters.IncCompTxnAbort()
			if abortErr != nil {
				return abortErr
			}
			return err
		}
		reached, _ = protocol.PopToTarget(a.Log, spID)
	}

	var next *Container
	var dest string
	if reached {
		// Restore the agent from the savepoint entry — without deleting
		// it from the log (§4.3) — and start the next step transaction
		// at the restored cursor position.
		img, err := a.Log.ReconstructSRO(spID)
		if err != nil {
			_ = tx.Abort()
			n.abortParts(tx, parts)
			return permanent(fmt.Errorf("node %s: restore savepoint %q: %w", n.cfg.Name, spID, err))
		}
		a.SRO.Freeze(false)
		if err := a.RestoreSystemImage(img); err != nil {
			_ = tx.Abort()
			n.abortParts(tx, parts)
			return permanent(err)
		}
		step, err := a.Itin.StepAt(a.Cursor)
		if err != nil {
			_ = tx.Abort()
			n.abortParts(tx, parts)
			return permanent(fmt.Errorf("node %s: restored cursor: %w", n.cfg.Name, err))
		}
		next = &Container{Mode: ModeStep, Agent: a}
		if dest, err = n.stepDest(a, step, attempt); err != nil {
			_ = tx.Abort()
			n.abortParts(tx, parts)
			return err
		}
	} else {
		// More steps to compensate: route the agent (or not — Figure
		// 5a's destination rule) to the next compensation transaction.
		eos, ok := protocol.PeekEOS(a.Log)
		if !ok {
			_ = tx.Abort()
			n.abortParts(tx, parts)
			return permanent(fmt.Errorf("node %s: agent %s: savepoint %q unreachable during rollback", n.cfg.Name, a.ID, spID))
		}
		next = &Container{Mode: ModeRollback, SpID: spID, Agent: a}
		dest = protocol.CompensationDest(eos, n.cfg.Optimized, n.cfg.Name)
	}

	a.SRO.Freeze(false) // clear runtime-only flag before serialization
	if err := n.shipContainer(tx, next, dest, parts, n.cfg.Counters.AddCompTxns); err != nil {
		n.cfg.Counters.IncCompTxnAbort()
		return err
	}
	return nil
}

// compensateLastStep pops the last executed step off the log (EOS, then
// operation entries until BOS — protocol.PopLastStep yields them already
// in the reverse execution order compensations must run in, §4.2) and
// executes its compensating operations inside tx. In the optimized
// algorithm without mixed entries, agent compensation entries run
// locally concurrently with the resource compensation entries shipped to
// the resource node; the remote branch is returned as a prepared
// participant.
func (n *Node) compensateLastStep(tx *txn.Tx, a *agent.Agent, attempt int) ([]string, error) {
	eos, ops, err := protocol.PopLastStep(a.Log)
	if err != nil {
		return nil, permanent(fmt.Errorf("node %s: %w", n.cfg.Name, err))
	}
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

	// Figure 5b: group the entries, ship the resource compensation
	// entries, run the agent compensation entries concurrently, then
	// wait for the ACK.
	aces, rces, err := protocol.SplitCompOps(ops)
	if err != nil {
		return nil, permanent(fmt.Errorf("node %s: %w", n.cfg.Name, err))
	}
	var parts []string
	var ackCh chan protocol.AckMsg
	if len(rces) > 0 {
		ackCh = n.prepareRCERemote(tx, dest, rces)
		parts = append(parts, dest)
		n.cfg.Counters.IncRemoteCompBatch()
	}
	if err := n.execCompOps(tx, a, aces); err != nil {
		if ackCh != nil {
			n.dropWaiter(protocol.KindRCEExecAck, tx.ID())
		}
		return parts, err
	}
	n.cfg.Counters.IncCompOps(int64(len(aces)))
	if ackCh != nil {
		if _, err := n.await(ackCh, protocol.KindRCEExecAck, tx.ID()); err != nil {
			return parts, fmt.Errorf("node %s: remote compensation on %s: %w", n.cfg.Name, eos.Node, err)
		}
	}
	return parts, nil
}
