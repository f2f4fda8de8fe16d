// Package protocol is the event-driven core of the distributed
// protocols in §3–§4 of the paper: the step-transaction two-phase
// commit of the queue hand-off, remote compensation via RCE lists
// (Figure 5b), presumed-abort in-doubt resolution, and the reliable
// completion-notification cycle.
//
// Everything here is a pure, single-threaded state machine. A
// transition consumes exactly one Event — an inbound protocol message,
// a timer firing, a local decision of the worker (begin / decide /
// execution finished), or a recovery replay — and returns the list of
// Effects the driver must apply: outbound messages, stable-store
// writes, prepared-transaction commits/aborts, timer arms, and
// metric counts. The machine never starts a goroutine, owns no
// channel, and performs no I/O; facts that live in stable storage (the
// presumed-abort decision record) are passed in on the event by the
// driver. That makes every protocol decision — including the PR-4
// chaos catch, an abort overtaking a lock-blocked RCE execution — an
// ordinary state edge that permutation tests and fuzzers can cover
// without a cluster, a store, or a clock.
//
// The driver (internal/node) serializes Step calls, translates wire
// messages to events, applies effects in order, and runs every timer
// on one network.TimerWheel per node, so steady-state goroutine count
// is O(workers) rather than O(in-flight transactions).
package protocol

import (
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// Config are the machine's only tunables. The zero value of either
// duration falls back to a sane default so a zero-config machine is
// usable in tests.
type Config struct {
	// Node is the local node's network name (transaction IDs it
	// coordinates are "<Node>#<seq>").
	Node string
	// RetryInterval is the cadence of control-message resends, in-doubt
	// queries and completion-notification resends (the old dispatcher
	// tick, RetryDelay*5 in node terms).
	RetryInterval time.Duration
	// StaleAfter is how long a prepared RCE branch may sit undecided
	// before the participant starts querying its coordinator
	// (2*AckTimeout in node terms).
	StaleAfter time.Duration
}

func (c *Config) fillDefaults() {
	if c.RetryInterval <= 0 {
		c.RetryInterval = 50 * time.Millisecond
	}
	if c.StaleAfter <= 0 {
		c.StaleAfter = 4 * time.Second
	}
}

// Machine holds the protocol state of one node across all three roles:
// coordinator of its own distributed transactions, participant in
// queue hand-offs, and RCE/rollback participant (Figure 5b resource
// side), plus the completion notifier. Step is the single transition
// function; it must be externally serialized (the driver guarantees
// one Step at a time) and is otherwise a pure state+effects fold.
type Machine struct {
	cfg   Config
	ready bool

	coord    map[string]*coordTxn // transactions this node coordinates
	staged   map[string]string    // staged queue txn → coordinator node
	branches map[string]*branch   // RCE branch per transaction
	done     map[string]string    // undelivered completion: agent → owner

	// scheds holds the coalesced per-(class, peer) timer slots (see
	// timers.go), keyed by their wheel timer ID "<class>|<peer>".
	scheds map[string]*peerSched

	transitions int64
}

// NewMachine creates an empty machine for one node.
func NewMachine(cfg Config) *Machine {
	cfg.fillDefaults()
	return &Machine{
		cfg:      cfg,
		coord:    make(map[string]*coordTxn),
		staged:   make(map[string]string),
		branches: make(map[string]*branch),
		done:     make(map[string]string),
		scheds:   make(map[string]*peerSched),
	}
}

// Event is one protocol input. Events are plain data; the driver
// enriches them with the stable-store facts a decision needs (e.g.
// QueryReceived.StoreDecided) so the machine itself stays I/O-free.
type Event interface{ isEvent() }

// Effect is one output the driver must apply. Effects are emitted in
// application order; all of them are either idempotent or guarded by
// machine state, so a crash between effect applications is recovered
// by the protocol's own retry/presumed-abort cycle.
type Effect interface{ isEffect() }

// --- events -----------------------------------------------------------

// CoordPrepareEnqueue opens the coordinator decision for TxnID (queries
// now answer "undecided") and ships the prepare of a queue hand-off.
type CoordPrepareEnqueue struct {
	TxnID   string
	Dest    string
	EntryID string
	Data    []byte
}

// CoordPrepareRCE opens the coordinator decision for TxnID and ships a
// resource-compensation-entry list to the resource node (Figure 5b).
type CoordPrepareRCE struct {
	TxnID string
	Dest  string
	Ops   []*core.OpEntry
}

// CoordDecided closes the coordinator decision: Commit=true after the
// local commit (with the decision record durably in the store) drives
// the participants to commit reliably; Commit=false notifies them of
// the abort once (best effort — presumed abort covers the loss).
type CoordDecided struct {
	TxnID  string
	Commit bool
	Parts  []Participant
}

// AckReceived is any protocol acknowledgement. Kind is the ack message
// kind (KindEnqueuePrepareAck, KindRCECommitAck, ...).
type AckReceived struct {
	Kind  string
	TxnID string
	From  string
	OK    bool
	Err   string
}

// QueryReceived is a participant's in-doubt query for a transaction
// this node coordinated. StoreDecided is the driver-supplied fact
// whether the decision record exists in stable storage.
type QueryReceived struct {
	TxnID        string
	From         string
	StoreDecided bool
}

// StatusReceived is a coordinator's answer to an in-doubt query:
// Committed=false means presumed abort.
type StatusReceived struct {
	TxnID     string
	Committed bool
}

// PrepareReceived is the participant half of the queue hand-off: the
// coordinator asks this node to durably stage a container insertion.
type PrepareReceived struct {
	TxnID   string
	EntryID string
	From    string
	Data    []byte
}

// StageOutcome reports the driver's attempt to stage the entry
// (queue.Prepare). Only an OK outcome makes the transaction in-doubt.
type StageOutcome struct {
	TxnID string
	OK    bool
}

// CtlReceived is a commit/abort control message from the coordinator,
// for a staged queue entry (RCE=false) or an RCE branch (RCE=true).
type CtlReceived struct {
	TxnID  string
	From   string
	Commit bool
	RCE    bool
}

// RCEExecReceived asks this node to execute a resource-compensation
// list inside a prepared branch of the coordinator's compensation
// transaction (Figure 5b, resource-node half).
type RCEExecReceived struct {
	TxnID string
	From  string
	Ops   []*core.OpEntry
}

// BranchPrepared reports the driver's branch execution: OK=true means
// the branch transaction is durably prepared and parked; OK=false
// means it failed and was already aborted by the driver.
type BranchPrepared struct {
	TxnID string
	OK    bool
	Err   string
}

// DoneRecorded announces a durably recorded completion notification
// that must reach Owner reliably.
type DoneRecorded struct {
	AgentID string
	Owner   string
}

// DoneAcked is the owner's acknowledgement of a completion
// notification.
type DoneAcked struct{ AgentID string }

// RecoveredStaged replays a crash-surviving staged queue entry whose
// coordinator is remote; the machine re-enters the in-doubt query
// cycle for it.
type RecoveredStaged struct{ TxnID string }

// RecoveredBranch replays a crash-surviving prepared branch record
// (no live transaction); resolution goes through the branch record.
type RecoveredBranch struct{ TxnID string }

// ReadyReached marks the end of recovery: prepares and RCE executions
// are accepted from now on.
type ReadyReached struct{}

// TimerFired delivers an expired timer previously armed via ArmTimer.
type TimerFired struct{ ID string }

func (CoordPrepareEnqueue) isEvent() {}
func (CoordPrepareRCE) isEvent()     {}
func (CoordDecided) isEvent()        {}
func (AckReceived) isEvent()         {}
func (QueryReceived) isEvent()       {}
func (StatusReceived) isEvent()      {}
func (PrepareReceived) isEvent()     {}
func (StageOutcome) isEvent()        {}
func (CtlReceived) isEvent()         {}
func (RCEExecReceived) isEvent()     {}
func (BranchPrepared) isEvent()      {}
func (DoneRecorded) isEvent()        {}
func (DoneAcked) isEvent()           {}
func (RecoveredStaged) isEvent()     {}
func (RecoveredBranch) isEvent()     {}
func (ReadyReached) isEvent()        {}
func (TimerFired) isEvent()          {}

// --- effects ----------------------------------------------------------

// SendMsg transmits one protocol message; Payload is one of the
// message structs of this package (fire and forget — loss is covered
// by retries and presumed abort).
type SendMsg struct {
	To      string
	Kind    string
	Payload wire.BinaryMessage
}

// DeliverAck routes an acknowledgement to the local worker blocked on
// it (the driver's waiter plumbing).
type DeliverAck struct {
	Kind  string
	TxnID string
	OK    bool
	Err   string
}

// StageEntry asks the driver to durably stage the container insertion
// (queue.Prepare), acknowledge with the real outcome under AckKind,
// and feed the result back as a StageOutcome event.
type StageEntry struct {
	TxnID   string
	EntryID string
	From    string
	Data    []byte
	AckKind string
}

// ResolveStaged commits (Commit=true) or aborts a staged queue entry.
// When AckTo is non-empty the driver acknowledges with the operation's
// outcome under AckKind. Both queue operations are idempotent.
type ResolveStaged struct {
	TxnID   string
	Commit  bool
	AckTo   string
	AckKind string
}

// CommitBranch / AbortBranch settle the live prepared branch
// transaction parked by the driver for TxnID.
type CommitBranch struct{ TxnID string }

// AbortBranch aborts the parked branch transaction (releasing its
// resource locks).
type AbortBranch struct{ TxnID string }

// ResolveBranchRecord replays or drops the crash-surviving durable
// branch record for TxnID (txn.Manager.ResolveBranch).
type ResolveBranchRecord struct {
	TxnID  string
	Commit bool
}

// ExecBranch asks the driver to execute the compensation list inside a
// fresh branch transaction (off the dispatcher — compensations wait on
// resource locks), park the prepared transaction, and feed the result
// back as a BranchPrepared event.
type ExecBranch struct {
	TxnID   string
	ReplyTo string
	Ops     []*core.OpEntry
}

// ClearDecision garbage-collects the presumed-abort decision record:
// every participant acknowledged the commit.
type ClearDecision struct{ TxnID string }

// ResendDone (re)sends the durable completion record for AgentID to
// its owner.
type ResendDone struct{ AgentID string }

// DropDone deletes the durable completion record (owner acked).
type DropDone struct{ AgentID string }

// ArmTimer schedules (or re-schedules) the named timer on the node's
// timer wheel.
type ArmTimer struct {
	ID string
	D  time.Duration
}

// CountCompOps bumps the compensating-operations metric (the branch
// prepared successfully).
type CountCompOps struct{ N int64 }

func (SendMsg) isEffect()             {}
func (DeliverAck) isEffect()          {}
func (StageEntry) isEffect()          {}
func (ResolveStaged) isEffect()       {}
func (CommitBranch) isEffect()        {}
func (AbortBranch) isEffect()         {}
func (ResolveBranchRecord) isEffect() {}
func (ExecBranch) isEffect()          {}
func (ClearDecision) isEffect()       {}
func (ResendDone) isEffect()          {}
func (DropDone) isEffect()            {}
func (ArmTimer) isEffect()            {}
func (CountCompOps) isEffect()        {}

// --- transition dispatch ----------------------------------------------

// Step consumes one event and returns the effects to apply, in order.
// It is the package's only mutating entry point and must be serialized
// by the caller.
func (m *Machine) Step(ev Event) []Effect {
	m.transitions++
	switch e := ev.(type) {
	case CoordPrepareEnqueue:
		return m.coordPrepareEnqueue(e)
	case CoordPrepareRCE:
		return m.coordPrepareRCE(e)
	case CoordDecided:
		return m.coordDecided(e)
	case AckReceived:
		return m.ackReceived(e)
	case QueryReceived:
		return m.queryReceived(e)
	case StatusReceived:
		return m.resolve(e.TxnID, e.Committed, nil)
	case PrepareReceived:
		return m.prepareReceived(e)
	case StageOutcome:
		return m.stageOutcome(e)
	case CtlReceived:
		return m.ctlReceived(e)
	case RCEExecReceived:
		return m.rceExecReceived(e)
	case BranchPrepared:
		return m.branchPrepared(e)
	case DoneRecorded:
		return m.doneRecorded(e)
	case DoneAcked:
		return m.doneAcked(e)
	case RecoveredStaged:
		return m.recoveredStaged(e)
	case RecoveredBranch:
		return m.recoveredBranch(e)
	case ReadyReached:
		m.ready = true
		return nil
	case TimerFired:
		return m.timerFired(e)
	default:
		return nil
	}
}

// Transitions returns the number of Step calls processed.
func (m *Machine) Transitions() int64 { return m.transitions }

// Stats is a snapshot of the machine's per-role state sizes; tests and
// invariant checkers use it to assert terminal conditions (e.g. every
// prepared branch resolved).
type Stats struct {
	CoordActive      int // coordinator decisions still open
	CoordPendingCtl  int // decided commits awaiting participant acks
	Staged           int // in-doubt staged queue entries tracked
	BranchesExec     int // RCE executions in flight (incl. poisoned)
	BranchesPrepared int // prepared branches awaiting decision
	BranchesInDoubt  int // recovered branch records awaiting verdict
	DonePending      int // completion notifications awaiting ack
}

// Stats reports the current state sizes.
func (m *Machine) Stats() Stats {
	var s Stats
	for _, c := range m.coord {
		if c.active {
			s.CoordActive++
		}
		if len(c.pending) > 0 {
			s.CoordPendingCtl++
		}
	}
	s.Staged = len(m.staged)
	for _, b := range m.branches {
		switch b.state {
		case branchExecuting, branchExecutingAborted:
			s.BranchesExec++
		case branchPrepared:
			s.BranchesPrepared++
		case branchInDoubt:
			s.BranchesInDoubt++
		}
	}
	s.DonePending = len(m.done)
	return s
}

// Coordinator extracts the coordinator node from a transaction ID
// ("node#seq"); it returns "" for IDs without a separator.
func Coordinator(txnID string) string {
	if i := strings.LastIndex(txnID, "#"); i >= 0 {
		return txnID[:i]
	}
	return ""
}

// --- timer identifiers ------------------------------------------------

// Timer IDs are "<class>|<peer>"; the classes are in timers.go.
func timerID(class, peer string) string { return class + "|" + peer }

// splitTimerID splits "<class>|<peer>"; ok=false for malformed IDs.
func splitTimerID(tid string) (class, peer string, ok bool) {
	i := strings.Index(tid, "|")
	if i < 0 {
		return "", "", false
	}
	return tid[:i], tid[i+1:], true
}

// timerFired dispatches an expired timer to its class. A fire whose
// obligations are all gone (resolved between arm and fire) produces no
// effects and is not re-armed — timers are one-shot and self-healing.
func (m *Machine) timerFired(e TimerFired) []Effect {
	class, peer, ok := splitTimerID(e.ID)
	if !ok {
		return nil
	}
	switch class {
	case timerPeerCtl:
		return m.peerCtlTimer(peer)
	case timerPeerQuery:
		return m.peerQueryTimer(peer)
	case timerPeerStale:
		return m.peerStaleTimer(peer)
	case timerPeerDone:
		return m.peerDoneTimer(peer)
	default:
		return nil
	}
}
