package node

import (
	"strings"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/protocol"
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
// (StageEntry, ResolveStaged outcomes) join the enclosing batch rather
// than flushing early.
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
// where a decision needs a stable-storage fact (the presumed-abort
// decision record), reads it to enrich the event. Protocol payloads go
// through protocol.Decode.
func (n *Node) handle(msg network.Message) {
	n.cfg.Tracer.Rec(trace.OpWireRecv, "", "", msg.Kind, msg.From, "", int64(len(msg.Payload)))
	switch msg.Kind {
	case protocol.KindEnqueuePrepare:
		var req protocol.PrepareMsg
		if err := protocol.Decode(msg.Payload, &req); err != nil {
			return
		}
		n.step(protocol.PrepareReceived{TxnID: req.TxnID, EntryID: req.EntryID, From: msg.From, Data: req.Data})
	case protocol.KindEnqueueCommit, protocol.KindEnqueueAbort:
		var req protocol.CtlMsg
		if err := protocol.Decode(msg.Payload, &req); err != nil {
			return
		}
		n.step(protocol.CtlReceived{TxnID: req.TxnID, From: msg.From, Commit: msg.Kind == protocol.KindEnqueueCommit})
	case protocol.KindRCECommit, protocol.KindRCEAbort:
		var req protocol.CtlMsg
		if err := protocol.Decode(msg.Payload, &req); err != nil {
			return
		}
		n.step(protocol.CtlReceived{TxnID: req.TxnID, From: msg.From, Commit: msg.Kind == protocol.KindRCECommit, RCE: true})
	case protocol.KindTxnQuery:
		var req protocol.CtlMsg
		if err := protocol.Decode(msg.Payload, &req); err != nil {
			return
		}
		decided, err := n.mgr.Decided(req.TxnID)
		if err != nil {
			return
		}
		n.step(protocol.QueryReceived{TxnID: req.TxnID, From: msg.From, StoreDecided: decided})
	case protocol.KindCtlBatch:
		// One multi-transaction resend frame explodes into the exact
		// per-transaction events the unbatched kinds produce; replies
		// share one outbound batch.
		var req protocol.CtlBatchMsg
		if err := protocol.Decode(msg.Payload, &req); err != nil {
			return
		}
		evs := make([]protocol.Event, 0, len(req.Items))
		for _, it := range req.Items {
			evs = append(evs, protocol.CtlReceived{TxnID: it.TxnID, From: msg.From, Commit: it.Commit, RCE: it.RCE})
		}
		n.step(evs...)
	case protocol.KindQueryBatch:
		var req protocol.QueryBatchMsg
		if err := protocol.Decode(msg.Payload, &req); err != nil {
			return
		}
		evs := make([]protocol.Event, 0, len(req.TxnIDs))
		for _, txnID := range req.TxnIDs {
			decided, err := n.mgr.Decided(txnID)
			if err != nil {
				continue
			}
			evs = append(evs, protocol.QueryReceived{TxnID: txnID, From: msg.From, StoreDecided: decided})
		}
		n.step(evs...)
	case protocol.KindTxnStatus:
		var st protocol.StatusMsg
		if err := protocol.Decode(msg.Payload, &st); err != nil {
			return
		}
		n.step(protocol.StatusReceived{TxnID: st.TxnID, Committed: st.Committed})
	case protocol.KindRCEExec:
		var req protocol.RCEExecMsg
		if err := protocol.Decode(msg.Payload, &req); err != nil {
			return
		}
		n.step(protocol.RCEExecReceived{TxnID: req.TxnID, From: msg.From, Ops: req.Ops})
	case protocol.KindEnqueuePrepareAck, protocol.KindRCEExecAck,
		protocol.KindEnqueueCommitAck, protocol.KindEnqueueAbortAck,
		protocol.KindRCECommitAck, protocol.KindRCEAbortAck:
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
	case protocol.DeliverAck:
		n.deliverAck(e.Kind, e.TxnID, protocol.AckMsg{TxnID: e.TxnID, OK: e.OK, Err: e.Err})
	case protocol.StageEntry:
		// Membership: a draining (Left) node and an already-adopted agent
		// epoch are refused before anything touches stable storage — the
		// coordinator sees a NOT-OK ack and aborts, same as a full queue.
		err := n.adoptionGate(e)
		if err == nil {
			err = n.queue.Prepare(e.TxnID, e.EntryID, e.Data)
		}
		if err == nil {
			n.stepInto(protocol.StageOutcome{TxnID: e.TxnID, OK: true}, b)
		}
		reply := protocol.AckMsg{TxnID: e.TxnID, OK: err == nil}
		if err != nil {
			reply.Err = err.Error()
		}
		n.sendTo(b, e.From, e.AckKind, &reply)
	case protocol.ResolveStaged:
		var err error
		if e.Commit {
			err = n.queue.CommitStaged(e.TxnID)
		} else {
			err = n.queue.AbortStaged(e.TxnID)
		}
		if err != nil {
			// The entry is still durably staged but the machine already
			// dropped it: re-enter the in-doubt cycle so the query timer
			// retries the verdict — the replacement for the old
			// dispatcher tick re-deriving in-doubt work from
			// queue.StagedTxns() every cycle. (The coordinator keeps its
			// commit obligation too: refused ctl acks do not retire it.)
			n.stepInto(protocol.RecoveredStaged{TxnID: e.TxnID}, b)
		}
		if err == nil {
			n.resolveAdoption(e.TxnID, e.Commit)
		}
		if e.AckTo != "" {
			reply := protocol.AckMsg{TxnID: e.TxnID, OK: err == nil}
			if err != nil {
				reply.Err = err.Error()
			}
			n.sendTo(b, e.AckTo, e.AckKind, &reply)
		}
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
			n.runBranchExec(e.TxnID, e.Ops)
		}()
	case protocol.ClearDecision:
		n.stageCtlOp(n.mgr.ClearDecisionOp(e.TxnID))
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

// runBranchExec executes a resource-compensation-entry list inside a
// branch of the coordinator's compensation transaction — the
// resource-node half of Figure 5b. On success the prepared transaction
// is parked for the coordinator's verdict; the machine decides (in the
// BranchPrepared transition) whether the branch is acknowledged or —
// if an abort overtook the execution — settled immediately.
func (n *Node) runBranchExec(txnID string, ops []*core.OpEntry) {
	tx := n.mgr.BeginWithID(txnID)
	err := n.execCompOps(tx, nil, ops)
	if err == nil {
		err = tx.Prepare()
	}
	if err != nil {
		_ = tx.Abort()
		n.step(protocol.BranchPrepared{TxnID: txnID, OK: false, Err: err.Error()})
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
