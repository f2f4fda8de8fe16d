package node

import (
	"errors"
	"strings"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/stable"
	"repro/internal/trace"
	"repro/internal/txn"
)

// dispatch is the message-handling goroutine: it decodes inbound
// protocol messages into events for the protocol machine. There is no
// ticker — every retry and in-doubt cycle runs on the node's timer
// wheel, armed by the machine itself.
func (n *Node) dispatch() {
	for {
		select {
		case <-n.stop:
			return
		case msg, ok := <-n.ep.Recv():
			if !ok {
				return
			}
			n.handle(msg)
		}
	}
}

// step feeds events — one, or the per-transaction events of a batch
// frame — through the protocol machine (serialized under pmu) and
// applies the returned effects. Effects are applied outside
// the machine lock, in emission order, by the same caller — they are
// idempotent or state-guarded, so concurrent steppers interleaving
// their effect application is safe.
//
// All messages the transition batch emits — including those of nested
// transitions its effects trigger — are collected per destination and
// flushed in one endpoint call per peer when the outermost step
// returns, so a commit fan-out, an ack+status pair or the replies to a
// coalesced frame coalesce on the wire instead of paying one network
// hop each.
func (n *Node) step(evs ...protocol.Event) {
	var b outBatch
	for _, ev := range evs {
		n.stepInto(ev, &b)
	}
	b.flush(n)
}

// stepInto is step with the caller's outbound batch: nested transitions
// (a Decide's verdict, an unreachable hand-off) join the enclosing batch
// rather than flushing early.
func (n *Node) stepInto(ev protocol.Event, b *outBatch) {
	tr := n.cfg.Tracer
	var name, txnID, agentID, before string
	if tr != nil {
		name, txnID, agentID = protocol.EventInfo(ev)
	}
	n.pmu.Lock()
	if tr != nil {
		before = n.machine.StateOf(txnID, agentID)
	}
	effs := n.machine.Step(ev)
	var after string
	if tr != nil {
		after = n.machine.StateOf(txnID, agentID)
	}
	n.pmu.Unlock()
	tr.Rec(trace.OpTransition, txnID, agentID, name, before, after, int64(len(effs)))
	n.cfg.Counters.IncProtocolTransition()
	for _, eff := range effs {
		n.applyEffect(eff, b)
	}
}

// onTimer is the wheel's fire callback: a timer event like any other,
// except for the two driver-level timers (the GC-stager linger and the
// per-peer hold-buffer lingers), which never reach the machine.
func (n *Node) onTimer(id string) {
	if id == stagerFlushID {
		n.flushCtlStage()
		return
	}
	if peer, ok := strings.CutPrefix(id, holdPrefix); ok {
		n.flushHeld(peer)
		return
	}
	n.cfg.Tracer.Rec(trace.OpTimerFire, "", "", id, "", "", 0)
	n.step(protocol.TimerFired{ID: id})
}

// handle translates one wire message into a protocol event. All
// decision logic lives in the machine; this switch only decodes and,
// where a decision needs a fact the driver owns (its own mark), reads it
// to enrich the event. Protocol payloads go through protocol.Decode.
func (n *Node) handle(msg network.Message) {
	n.cfg.Tracer.Rec(trace.OpWireRecv, "", "", msg.Kind, msg.From, "", int64(len(msg.Payload)))
	switch msg.Kind {
	case protocol.KindEnqueuePrepare:
		var req protocol.PrepareMsg
		if err := protocol.Decode(msg.Payload, &req); err != nil {
			return
		}
		n.step(protocol.HandoffReceived{TxnID: req.TxnID, From: msg.From, EntryID: req.EntryID, Data: req.Data, Mark: req.Mark, Parties: req.Parties})
	case protocol.KindOutcome:
		var st protocol.StatusMsg
		if err := protocol.Decode(msg.Payload, &st); err != nil {
			return
		}
		n.step(protocol.OutcomeReceived{TxnID: st.TxnID, From: msg.From, Committed: st.Committed})
	case protocol.KindResolved:
		var mk protocol.MarkMsg
		if err := protocol.Decode(msg.Payload, &mk); err != nil {
			return
		}
		n.step(protocol.ResolvedReceived{From: msg.From, Mark: mk.Mark})
	case protocol.KindTxnQuery:
		var req protocol.CtlMsg
		if err := protocol.Decode(msg.Payload, &req); err != nil {
			return
		}
		n.step(protocol.QueryReceived{TxnID: req.TxnID, From: msg.From, Mark: n.mgr.Mark()})
	case protocol.KindQueryBatch:
		// One multi-transaction query frame explodes into the exact
		// per-transaction events the plain kind produces; the answers
		// share one outbound batch.
		var req protocol.QueryBatchMsg
		if err := protocol.Decode(msg.Payload, &req); err != nil {
			return
		}
		mark := n.mgr.Mark()
		evs := make([]protocol.Event, 0, len(req.TxnIDs))
		for _, txnID := range req.TxnIDs {
			evs = append(evs, protocol.QueryReceived{TxnID: txnID, From: msg.From, Mark: mark})
		}
		n.step(evs...)
	case protocol.KindRCEExec:
		var req protocol.RCEExecMsg
		if err := protocol.Decode(msg.Payload, &req); err != nil {
			return
		}
		n.step(protocol.RCEExecReceived{TxnID: req.TxnID, From: msg.From, Decider: req.Decider, Ops: req.Ops})
	case protocol.KindRCEExecAck, protocol.KindOutcomeAck:
		var ack protocol.AckMsg
		if err := protocol.Decode(msg.Payload, &ack); err != nil {
			return
		}
		n.step(protocol.AckReceived{Kind: msg.Kind, TxnID: ack.TxnID, From: msg.From, OK: ack.OK, Err: ack.Err})
	case kindAgentLaunch:
		n.handleLaunch(msg)
	case kindMemberAnnounce:
		if n.members != nil {
			n.handleAnnounce(msg)
		}
	case kindAgentDoneAck:
		var ack protocol.AckMsg
		if err := protocol.Decode(msg.Payload, &ack); err != nil {
			return
		}
		n.step(protocol.DoneAcked{AgentID: ack.TxnID})
	}
}

// applyEffect executes one machine effect. Mechanics only — queue and
// store operations, transaction settles, sends, timers; any outcome the
// machine must know about loops back in as another event. Sends join
// the enclosing transition's outbound batch b.
func (n *Node) applyEffect(eff protocol.Effect, b *outBatch) {
	switch e := eff.(type) {
	case protocol.SendMsg:
		n.sendTo(b, e.To, e.Kind, e.Payload)
	case protocol.SendHandoff:
		n.sendHandoff(e, b)
	case protocol.DeliverAck:
		n.deliverAck(e.Kind, e.TxnID, protocol.AckMsg{TxnID: e.TxnID, OK: e.OK, Err: e.Err})
	case protocol.Decide:
		n.decide(e, b)
	case protocol.DropOutcomes:
		for _, id := range e.TxnIDs {
			n.stageCtlOp(txn.DropOutcomeOp(id))
		}
	case protocol.SendResolved:
		n.sendResolvedInto(b, e.To)
	case protocol.CommitBranch:
		if tx := n.takeBranchTx(e.TxnID); tx != nil {
			_ = tx.CommitPrepared()
		}
	case protocol.AbortBranch:
		if tx := n.takeBranchTx(e.TxnID); tx != nil {
			_ = tx.Abort()
		}
	case protocol.ResolveBranchRecord:
		_ = n.mgr.ResolveBranch(e.TxnID, e.Commit)
	case protocol.ExecBranch:
		// Executed asynchronously: compensating operations wait on
		// resource locks, and a blocked dispatcher could not deliver
		// the acknowledgements the worker's own transaction needs —
		// classic head-of-line blocking.
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.runBranchExec(e.TxnID, e.Decider, e.Ops)
		}()
	case protocol.ResendDone:
		n.sendDone(b, e.AgentID)
	case protocol.DropDone:
		n.stageCtlOp(stableDelDone(e.AgentID))
	case protocol.ArmTimer:
		n.cfg.Tracer.Rec(trace.OpTimerArm, "", "", e.ID, "", "", int64(e.D))
		if n.wheel != nil {
			n.wheel.Schedule(e.ID, e.D)
		}
	case protocol.CountCompOps:
		n.cfg.Counters.IncCompOps(e.N)
	}
}

// sendHandoff sends a hand-off's prepare at once, with whatever is parked
// for its decider riding along. A send that fails before any byte left
// (network.ErrUnreachable) is fed back: no decider can ever see it, so
// the source aborts now and the next attempt may pick an alternative.
func (n *Node) sendHandoff(e protocol.SendHandoff, b *outBatch) {
	data := e.Msg.AppendTo(nil)
	n.traceSend(e.To, protocol.KindEnqueuePrepare, e.Msg, len(data))
	msgs := []network.Outgoing{{Kind: protocol.KindEnqueuePrepare, Payload: data}}
	if err := n.sendWithRides(e.To, msgs); errors.Is(err, network.ErrUnreachable) {
		n.stepInto(protocol.OutcomeReceived{TxnID: e.Msg.TxnID, Err: err.Error()}, b)
	}
}

// decide makes a decider verdict durable (DESIGN.md §5) and feeds it back.
// A node that has left the cluster adopts nothing: its commit becomes a
// fence. The entry and its commit record, listing the RCE parties, land
// in one Enqueue batch — with this node's own prepared branch of the
// transaction when it is a party too — so the entry is visible, and the
// next step can run, at once.
func (n *Node) decide(e protocol.Decide, b *outBatch) {
	commit := e.Commit && (n.members == nil || !n.members.Left())
	var branch *txn.Tx
	if commit && e.Branch {
		if branch = n.takeBranchTx(e.TxnID); branch == nil {
			commit = false // its branch is gone: this node cannot commit
		}
	}
	rec := txn.OutcomeOp(e.TxnID, true, e.Mark, e.Parties)
	var err error
	switch {
	case branch != nil:
		err = branch.CommitPreparedWith(func(ops ...stable.Op) error {
			return n.queue.Enqueue(e.EntryID, e.Data, append(ops, rec)...)
		})
		if err != nil {
			n.parkBranchTx(e.TxnID, branch) // still prepared
		}
	case commit:
		err = n.queue.Enqueue(e.EntryID, e.Data, rec)
	default:
		err = n.store.Apply(txn.OutcomeOp(e.TxnID, false, e.Mark, nil))
	}
	point := pointDeciderCommitted
	if commit && (len(e.Parties) > 0 || branch != nil) {
		point = pointDeciderRecorded
	}
	if err == nil && n.crashed(point) {
		return
	}
	n.stepInto(protocol.HandoffDecided{TxnID: e.TxnID, Commit: commit, OK: err == nil}, b)
}

// runBranchExec executes a resource-compensation-entry list inside a
// branch of a compensation transaction — the resource-node half of
// Figure 5b — prepared for its decider. On success the prepared
// transaction is parked for the decider's verdict; the machine decides
// (in the BranchPrepared transition) whether the branch is acknowledged
// or — if an abort overtook the execution — settled immediately.
func (n *Node) runBranchExec(txnID, decider string, ops []*core.OpEntry) {
	tx := n.mgr.BeginWithID(txnID)
	err := n.execCompOps(tx, nil, ops)
	if err == nil {
		err = tx.PrepareDelegated(decider)
	}
	if err != nil {
		_ = tx.Abort()
		n.step(protocol.BranchPrepared{TxnID: txnID, OK: false, Err: err.Error()})
		return
	}
	if n.crashed(pointPartyPrepared) {
		return
	}
	n.parkBranchTx(txnID, tx)
	n.step(protocol.BranchPrepared{TxnID: txnID, OK: true})
}

func (n *Node) parkBranchTx(txnID string, tx *txn.Tx) {
	n.mu.Lock()
	n.branchTx[txnID] = tx
	n.mu.Unlock()
}

func (n *Node) takeBranchTx(txnID string) *txn.Tx {
	n.mu.Lock()
	defer n.mu.Unlock()
	tx, ok := n.branchTx[txnID]
	if !ok {
		return nil
	}
	delete(n.branchTx, txnID)
	return tx
}

// sendDone (re)sends one durable completion record to its owner,
// joining the enclosing transition's outbound batch when one is active
// so a coalesced done-resend timer emits one frame group per owner.
func (n *Node) sendDone(b *outBatch, agentID string) {
	raw, ok, err := n.store.Get(doneKey(agentID))
	if err != nil || !ok {
		return
	}
	owner, msg, err := readDoneRec(raw)
	if err != nil {
		return
	}
	n.sendTo(b, owner, kindAgentDone, msg)
}

// handleLaunch inserts a fresh agent container into the input queue.
func (n *Node) handleLaunch(msg network.Message) {
	var req launchMsg
	if err := req.DecodeFrom(msg.Payload); err != nil {
		return
	}
	reply := protocol.AckMsg{TxnID: req.ID, OK: true}
	if err := n.queue.Enqueue(req.ID, req.Data); err != nil {
		reply.OK = false
		reply.Err = err.Error()
	}
	n.send(msg.From, kindAgentLaunchAck, &reply)
}

// execCompOps runs compensating operations in the order given (the caller
// arranges reverse log order). a may be nil for shipped resource batches.
func (n *Node) execCompOps(tx *txn.Tx, a *agent.Agent, ops []*core.OpEntry) error {
	for _, op := range ops {
		if err := n.execCompOp(tx, a, op); err != nil {
			return err
		}
	}
	return nil
}
