package node

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/itinerary"
	"repro/internal/protocol"
	"repro/internal/sched"
	"repro/internal/stable"
	"repro/internal/trace"
	"repro/internal/txn"
)

// permanentError marks failures that retrying cannot fix (unknown step
// code, corrupt log, rollback to a savepoint not in the log, operations
// declared non-compensable).
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

func permanent(err error) error { return &permanentError{err: err} }

func isPermanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}

// errImmediateRollback reports that a requested rollback targeted the
// savepoint directly before the aborting step: the rollback is already
// complete and the next step transaction starts from the queue (Figure 4a,
// first case). It is surfaced as a retryable error so the worker's attempt
// accounting still bounds rollback/retry loops.
var errImmediateRollback = errors.New("node: rollback finished at immediate savepoint")

// donePrefix keys the durable completion records (appendDoneRec), each
// re-sent to the agent's owner until acknowledged.
const donePrefix = "done/"

func doneKey(agentID string) string          { return donePrefix + agentID }
func stableDelDone(agentID string) stable.Op { return stable.Del(doneKey(agentID)) }

// recoverThenWork resolves in-doubt work, loads resources, then starts
// the step scheduler pool over the input queue. The pool is only started
// after recovery completes, so in-doubt transactions are resolved before
// any new step transaction can observe resource state.
func (n *Node) recoverThenWork() {
	if !n.runRecovery() {
		return
	}
	n.step(protocol.ReadyReached{})
	close(n.ready)
	pool := sched.New(sched.Config{
		Workers:     n.cfg.Workers,
		RetryDelay:  n.cfg.RetryDelay,
		MaxAttempts: n.cfg.MaxAttempts,
		Queue:       n.queue,
		Exec:        n.process,
		Permanent:   isPermanent,
		Fail:        n.failAgent,
		Hints:       n.conflictKeys,
		Busy:        n.lockBusy,
		Counters:    n.cfg.Counters,
		Tracer:      n.cfg.Tracer,
	})
	// Publish AND start the pool inside one critical section: Stop
	// snapshots n.pool under the same mutex, so it either sees no pool
	// (recovery lost the race and never starts it) or a fully started
	// one — Pool.Stop's wg.Wait must never run concurrently with
	// Pool.Start's wg.Add. Start only launches goroutines; it does not
	// block, so holding mu here is safe.
	n.mu.Lock()
	select {
	case <-n.stop:
		n.mu.Unlock()
		return
	default:
		n.pool = pool
		pool.Start()
	}
	n.mu.Unlock()
}

// conflictKeys derives the scheduler's conflict hints for one queued
// container: the resource names the next step method declared through
// Registry.RegisterStepHints. Hint-less methods — and rollback
// containers, whose compensations span many steps — return nil and
// schedule freely; 2PL remains the arbiter of actual conflicts.
func (n *Node) conflictKeys(e *stable.Entry) []string {
	if !n.registry.HasHints() {
		return nil // process decodes; nothing to read here
	}
	c, err := n.decode(e.Data)
	if err != nil {
		return nil // process decodes again and fails the entry
	}
	// Decode once per claim: process executes on this container. Hints
	// are read-only by contract (agent.StepHint), and a retry is a fresh
	// claim of the stored bytes, so no attempt sees another's mutations.
	e.Decoded = c
	if c.Mode != ModeStep || c.Agent == nil {
		return nil
	}
	step, err := c.Agent.Itin.StepAt(c.Agent.Cursor)
	if err != nil {
		return nil
	}
	hint, ok := n.registry.StepHintFor(step.Method)
	if !ok {
		return nil
	}
	return hint(c.Agent, step)
}

// lockBusy reports whether the transaction lock of the named local
// resource is currently held — the scheduler's lock-conflict hint
// (txn.Lock.Busy).
func (n *Node) lockBusy(key string) bool {
	r, ok := n.Resource(key)
	if !ok {
		return false
	}
	return r.ConflictLock().Busy()
}

// runRecovery resolves in-doubt prepared branches — hand-offs and RCE
// branches waiting on their decider — by replaying each stable-storage
// survivor into the protocol machine once, whose query timers ask on
// until the verdicts settle them, then re-loads the resource managers
// from the stable store and replays undelivered completion
// notifications. It returns false if the node was stopped first.
func (n *Node) runRecovery() bool {
	branches, err := n.mgr.InDoubtBranches()
	if err != nil {
		return false
	}
	for _, id := range branches {
		if decider, err := n.mgr.Decider(id); err == nil && decider != "" {
			n.step(protocol.RecoveredBranch{TxnID: id, Decider: decider})
		}
	}
	for len(branches) > 0 {
		select {
		case <-n.stop:
			return false
		case <-n.recoveredSettled:
		}
		if branches, err = n.mgr.InDoubtBranches(); err != nil {
			return false
		}
	}
	for _, f := range n.factories {
		r, err := f(n.store)
		if err != nil {
			// A resource that cannot load makes the node useless;
			// keep it not-ready (steps routed here will time out and
			// use alternatives) rather than serve corrupt state.
			n.cfg.Logger.Error("node recovery: resource load failed, staying not-ready",
				"node", n.cfg.Name, "err", err)
			return false
		}
		n.mu.Lock()
		n.resources[r.Name()] = r
		n.mu.Unlock()
	}
	n.replayDone()
	return true
}

// replayDone re-enters crash-surviving completion records into the
// notifier's resend cycle.
func (n *Node) replayDone() {
	keys, err := n.store.Keys(donePrefix)
	if err != nil {
		return
	}
	for _, k := range keys {
		raw, ok, err := n.store.Get(k)
		if err != nil || !ok {
			continue
		}
		owner, _, err := readDoneRec(raw)
		if err != nil {
			continue
		}
		n.step(protocol.DoneRecorded{AgentID: strings.TrimPrefix(k, donePrefix), Owner: owner})
	}
}

// decode is DecodeContainer, counted: decodes is how many full container
// decodes this node has run (tests assert one per claimed attempt).
func (n *Node) decode(data []byte) (*Container, error) {
	n.decodes.Add(1)
	return DecodeContainer(data)
}

// encode is EncodeContainer, observed: the encode reports the size of the
// log it ships, which feeds the core.log_bytes_peak gauge.
func (n *Node) encode(c *Container) ([]byte, error) {
	data, logBytes, err := encodeContainer(c)
	if err == nil {
		n.cfg.Counters.ObserveLogBytes(int64(logBytes))
	}
	return data, err
}

// process executes one claimed container. Every attempt starts from the
// stored bytes — each claim hands out a fresh entry, decoded here or by
// the claim's hint pass (conflictKeys), never both — so an aborted
// attempt's in-memory mutations vanish and the stable queue copy is
// authoritative: the paper's "the state of the agent and the rollback log
// read from stable storage is the state before the execution of the
// aborting step transaction".
func (n *Node) process(entry *stable.Entry, attempt int) error {
	c, _ := entry.Decoded.(*Container)
	entry.Decoded = nil
	if c == nil {
		var err error
		if c, err = n.decode(entry.Data); err != nil {
			return permanent(fmt.Errorf("node %s: corrupt container %q: %w", n.cfg.Name, entry.ID, err))
		}
	}
	if a := c.Agent; a == nil || a.SRO == nil || a.WRO == nil || a.Log == nil {
		return permanent(fmt.Errorf("node %s: container %q lacks an agent, a data space or a log", n.cfg.Name, entry.ID))
	}
	if dest, ok := n.misplaced(c); ok {
		return n.forward(entry, c.Agent.ID, dest)
	}
	switch c.Mode {
	case ModeStep:
		return n.runStep(entry, c, attempt)
	case ModeRollback:
		return n.runCompensation(entry, c, attempt)
	default:
		return permanent(fmt.Errorf("node %s: unknown container mode %d", n.cfg.Name, c.Mode))
	}
}

// failAgent removes the container and reports permanent failure to the
// agent's owner.
func (n *Node) failAgent(entry *stable.Entry, cause error) {
	c, err := n.decode(entry.Data) // fresh pre-step state
	if err != nil || c.Agent == nil {
		// Undeliverable: drop the poisoned entry.
		n.cfg.Logger.Error("dropping poisoned queue entry",
			"node", n.cfg.Name, "entry", entry.ID, "cause", cause)
		_ = n.queue.Remove(entry)
		return
	}
	n.cfg.Logger.Warn("agent failed permanently",
		"node", n.cfg.Name, "agent", c.Agent.ID, "cause", cause)
	tx, err := n.mgr.Begin()
	if err != nil {
		return
	}
	n.queue.RemoveIn(tx, entry)
	if err := n.finishAgent(tx, c.Agent, true, cause.Error()); err != nil {
		_ = tx.Abort()
	}
}

// finishAgent records completion durably within tx, commits, and hands
// the notification to the protocol machine's notifier role (sent now,
// re-sent on its timer until acknowledged).
func (n *Node) finishAgent(tx *txn.Tx, a *agent.Agent, failed bool, reason string) error {
	n.cfg.Tracer.Rec(trace.OpAgentStep, tx.ID(), a.ID, "finish", "", "", 0)
	data, err := n.encode(&Container{Mode: ModeStep, Agent: a})
	if err != nil {
		return err
	}
	rec := appendDoneRec(a.Owner, &doneMsg{AgentID: a.ID, Failed: failed, Reason: reason, Data: data})
	tx.AddCommitOps(stable.Put(doneKey(a.ID), rec))
	if err := tx.Commit(); err != nil {
		return err
	}
	// Count the committed step transaction BEFORE the notification goes
	// out: once the owner sees the done message it may snapshot metrics,
	// and the final step must already be in them.
	if !failed {
		n.cfg.Counters.AddStepTxns(1)
	}
	n.step(protocol.DoneRecorded{AgentID: a.ID, Owner: a.Owner})
	return nil
}

// runStep executes the next itinerary step inside a step transaction (§2):
// destructive read from the input queue, step method invocation, log
// append (BOS, operation entries, EOS), savepoint constitution, and the
// hand-off of the agent to the next node's input queue, which decides.
func (n *Node) runStep(entry *stable.Entry, c *Container, attempt int) error {
	a := c.Agent
	step, err := a.Itin.StepAt(a.Cursor)
	if err != nil {
		return permanent(fmt.Errorf("node %s: agent %s cursor: %w", n.cfg.Name, a.ID, err))
	}
	fn, ok := n.registry.Step(step.Method)
	if !ok {
		return permanent(fmt.Errorf("node %s: unknown step method %q", n.cfg.Name, step.Method))
	}

	tx, err := n.mgr.Begin()
	if err != nil {
		return err
	}
	// The join record for timeline reconstruction: the worker is the only
	// place that knows both the agent entry and its step transaction.
	n.cfg.Tracer.Rec(trace.OpAgentStep, tx.ID(), a.ID, step.Method, "", "", int64(attempt))
	n.queue.RemoveIn(tx, entry)
	seq := a.StepSeq
	sctx := &stepCtx{node: n, a: a, tx: tx, seq: seq}
	if err := fn(sctx); err != nil {
		abortErr := tx.Abort()
		n.cfg.Counters.IncStepTxnAbort()
		if abortErr != nil {
			return abortErr
		}
		var rb *agent.RollbackRequest
		if errors.As(err, &rb) {
			return n.startRollback(entry, rb.SpID)
		}
		// §2: abort and restart the step transaction.
		return fmt.Errorf("node %s: step %q aborted: %w", n.cfg.Name, step.Method, err)
	}

	// Step body succeeded: append the step's log entries.
	a.StepSeq = seq + 1
	hasMixed := false
	a.Log.Append(&core.BeginStepEntry{Node: n.cfg.Name, Seq: seq})
	for _, op := range sctx.ops {
		if op.Kind == core.OpMixed {
			hasMixed = true
		}
		a.Log.Append(op)
	}
	a.Log.Append(&core.EndStepEntry{
		Node:     n.cfg.Name,
		Seq:      seq,
		HasMixed: hasMixed,
		AltNodes: step.Alt,
	})

	// Advance the itinerary and maintain savepoints (§4.4.2). Subs with
	// a partial entry order get a concrete, locality-aware order fixed
	// the moment they are entered; the reordered itinerary is captured
	// in the sub's savepoint, so rollback restores the same order.
	move, err := a.Itin.AdvanceHook(a.Cursor, itinerary.LocalityOrder(n.cfg.Name))
	if err != nil {
		_ = tx.Abort()
		return permanent(fmt.Errorf("node %s: advance itinerary: %w", n.cfg.Name, err))
	}
	a.Cursor = move.Next
	if move.TopLevelLeft != "" {
		// Completing a top-level sub-itinerary discards all rollback
		// information: the agent can never be rolled back past here.
		a.Log.Clear()
	} else {
		for _, id := range move.Left {
			if a.Log.HasSavepoint(id) {
				if err := a.Log.RemoveSavepoint(id); err != nil {
					_ = tx.Abort()
					return permanent(fmt.Errorf("node %s: remove savepoint %q: %w", n.cfg.Name, id, err))
				}
			}
		}
	}
	if !move.Next.Done {
		ids := append(append([]string(nil), sctx.saveReqs...), move.Entered...)
		for _, id := range ids {
			if err := n.appendSavepoint(a, id); err != nil {
				_ = tx.Abort()
				return permanent(err)
			}
		}
	}
	if move.Next.Done {
		// finishAgent counts the committed step transaction itself,
		// before the completion notification can race a metrics reader.
		if err := n.finishAgent(tx, a, false, ""); err != nil {
			_ = tx.Abort()
			return err
		}
		return nil
	}

	next, err := a.Itin.StepAt(a.Cursor)
	if err != nil {
		_ = tx.Abort()
		return permanent(err)
	}
	dest, err := n.stepDest(a, next, attempt)
	if err != nil {
		_ = tx.Abort()
		return err
	}
	return n.shipContainer(entry, tx, &Container{Mode: ModeStep, Agent: a}, dest, nil, n.cfg.Counters.AddStepTxns, nil)
}

// stepDest resolves the node a step runs on: its location (or, on a
// retry, an alternative), and for a ring-routed location the key's
// current owner.
func (n *Node) stepDest(a *agent.Agent, step itinerary.Step, attempt int) (string, error) {
	key, ok := RingKey(step.Loc, a.ID)
	if !ok {
		return protocol.PickDestination(step.Loc, step.Alt, attempt), nil
	}
	if n.members == nil {
		return "", permanent(fmt.Errorf("node %s: agent %s location %q needs the membership layer", n.cfg.Name, a.ID, step.Loc))
	}
	return n.ringDest(key), nil
}

// appendSavepoint constitutes a savepoint at the current end of the log.
func (n *Node) appendSavepoint(a *agent.Agent, id string) error {
	if a.Log.HasSavepoint(id) {
		// Re-entry after a rollback to this savepoint: it is still in
		// the log and still valid.
		return nil
	}
	n.cfg.Counters.IncSavepoints()
	return appendSavepointTo(a, id, n.cfg.LogMode)
}

// appendSavepointTo writes one savepoint at the current end of the log. If
// the log already ends with a savepoint, the new one shares its state and
// is written as a data-less special savepoint referencing the existing one
// (§4.4.2); the reference is flattened to the root data-carrying entry so
// removal order between nested scopes stays unconstrained.
func appendSavepointTo(a *agent.Agent, id string, mode core.LogMode) error {
	if _, ok := a.Log.SavepointAt(a.Log.Len() - 1); ok {
		sp := a.Log.Last().(*core.SavepointEntry)
		ref := sp.ID
		if sp.Special {
			ref = sp.RefID
		}
		return a.Log.AppendSpecialSavepoint(id, ref, true)
	}
	sys, err := a.SysState()
	if err != nil {
		return err
	}
	return a.Log.AppendSavepoint(id, sys, a.SRO.Data, mode, true)
}

// AppendInitialSavepoints constitutes the savepoints of the
// sub-itineraries entered to reach an agent's first step; launchers call
// it before enqueueing a fresh agent.
func AppendInitialSavepoints(a *agent.Agent, entered []string, mode core.LogMode) error {
	for _, id := range entered {
		if a.Log.HasSavepoint(id) {
			continue
		}
		if err := appendSavepointTo(a, id, mode); err != nil {
			return err
		}
	}
	return nil
}

// startRollback implements Figure 4a / 5a: after the aborting step
// transaction rolled back, a new transaction re-reads the agent and log
// from stable storage and either finishes immediately (savepoint directly
// before the aborting step) or routes the agent into its first
// compensation transaction — the routing decisions are
// protocol.PopToTarget / protocol.CompensationDest. The ModeRollback
// container it ships already carries the target savepoint's SRO: no
// compensation can read the SRO (§4.3), so the one the rollback undoes
// is dead payload, and the reconstruction runCompensation repeats on
// reaching the target yields the same bytes (DESIGN.md §5, "Rollback
// execution").
func (n *Node) startRollback(entry *stable.Entry, spID string) error {
	c, err := n.decode(entry.Data) // fresh pre-step state
	if err != nil {
		return permanent(err)
	}
	a := c.Agent
	if !a.Log.HasSavepoint(spID) {
		return permanent(fmt.Errorf("node %s: agent %s: no savepoint %q in log (non-compensable or discarded)", n.cfg.Name, a.ID, spID))
	}
	if reached, popped := protocol.PopToTarget(a.Log, spID); reached {
		// Savepoint set directly before the aborting step: rollback is
		// finished. If stale savepoints above the target were popped,
		// rewrite the queued container so they do not linger.
		if popped > 0 {
			tx, err := n.mgr.Begin()
			if err != nil {
				return err
			}
			n.queue.RemoveIn(tx, entry)
			data, err := EncodeContainer(&Container{Mode: ModeStep, Agent: a})
			if err != nil {
				_ = tx.Abort()
				return permanent(err)
			}
			if err := n.queue.EnqueueIn(tx, a.ID, data); err != nil {
				_ = tx.Abort()
				return err
			}
			if err := tx.Commit(); err != nil {
				return err
			}
		}
		return errImmediateRollback
	}

	eos, ok := protocol.PeekEOS(a.Log)
	if !ok {
		return permanent(fmt.Errorf("node %s: agent %s: savepoint %q unreachable (no end-of-step entry)", n.cfg.Name, a.ID, spID))
	}
	if err := a.RestoreSRO(spID); err != nil {
		return permanent(fmt.Errorf("node %s: restore savepoint %q: %w", n.cfg.Name, spID, err))
	}
	dest := protocol.CompensationDest(eos, n.cfg.Optimized, n.cfg.Name)
	tx, err := n.mgr.Begin()
	if err != nil {
		return err
	}
	n.queue.RemoveIn(tx, entry)
	return n.shipContainer(entry, tx, &Container{Mode: ModeRollback, SpID: spID, Agent: a}, dest, nil, nil, nil)
}

// shipContainer finishes a transaction that hands the container to dest,
// its decider: a local enqueue joins the commit batch directly; a remote
// hand-off is decided by dest (handOff), and the attempt on entry is
// held until it is. Pre-prepared RCE branches on parts (Figure 5b) get
// the same verdict from the decider. count (may be nil) is the caller's
// metric hook (see handOff and commitDistributed); done (may be nil)
// maps the transaction's result, nil once committed, to the attempt's.
func (n *Node) shipContainer(entry *stable.Entry, tx *txn.Tx, c *Container, dest string, parts []string, count func(int64), done func(error) error) error {
	if done == nil {
		done = func(err error) error { return err }
	}
	data, err := n.encode(c)
	if err != nil {
		n.abort(tx, parts)
		return done(permanent(err))
	}
	hook := count
	if dest != n.cfg.Name {
		hook = func(d int64) {
			n.cfg.Counters.AddAgentTransfers(d, int64(len(data)))
			if count != nil {
				count(d)
			}
		}
	}
	if dest == n.cfg.Name {
		if err := n.queue.EnqueueIn(tx, c.Agent.ID, data); err != nil {
			n.abort(tx, parts)
			return done(err)
		}
		return done(n.commitDistributed(tx, parts, hook))
	}
	return n.handOff(entry, tx, dest, c.Agent.ID, data, parts, hook, done)
}
