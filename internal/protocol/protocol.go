// Package protocol is the event-driven core of the distributed
// protocols in §3–§4 of the paper: the queue hand-off of a step
// transaction, remote compensation via RCE lists (Figure 5b),
// presumed-abort in-doubt resolution, and the reliable
// completion-notification cycle.
//
// The hand-off is decided by the node that receives the container
// (the last-agent optimisation of two-phase commit). The source
// prepares its own part durably, naming that node, and sends one
// message; the decider enqueues the container and writes its commit
// record atomically, then answers. A decider asked about a hand-off it
// never saw fences the transaction durably before answering abort, and
// every message from a source carries its watermark: the lowest
// transaction it has not settled, below which the decider drops late
// prepares and collects its records. Roles: source.go, decider.go,
// coordinator.go (the RCE branches a compensation prepares), rce.go,
// notify.go.
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
	"strconv"
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

// Machine holds the protocol state of one node across all its roles:
// source and decider of queue hand-offs, coordinator of the RCE branches
// of its compensation transactions, RCE participant (Figure 5b resource
// side), and completion notifier. Step is the single transition
// function; it must be externally serialized (the driver guarantees one
// Step at a time) and is otherwise a pure state+effects fold.
type Machine struct {
	cfg   Config
	ready bool

	coord    map[string]*coordTxn   // RCE transactions this node coordinates
	delegs   map[string]*delegation // hand-offs this node's branches wait on
	decided  map[string]bool        // decider records: txn → committed (false: fenced)
	deciding map[string]bool        // hand-offs whose verdict is being written
	marks    map[string]uint64      // decider: highest mark seen per source
	branches map[string]*branch     // RCE branch per transaction
	done     map[string]string      // undelivered completion: agent → owner

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
		delegs:   make(map[string]*delegation),
		decided:  make(map[string]bool),
		deciding: make(map[string]bool),
		marks:    make(map[string]uint64),
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

// Delegate opens a hand-off at its source: the worker prepared its
// branch (naming Decider) and the container goes out now. Mark is the
// source's watermark (txn.Manager.Mark).
type Delegate struct {
	TxnID   string
	Decider string
	EntryID string
	Data    []byte
	Mark    uint64
}

// OutcomeReceived is a decider's verdict on one of this node's
// hand-offs (q.outcome: the answer to the hand-off or to a query), or an
// abort the driver feeds back, with its reason in Err, when the
// prepare's send failed before any byte of it left
// (network.ErrUnreachable: no decider can ever see it).
type OutcomeReceived struct {
	TxnID     string
	Committed bool
	Err       string
}

// DelegationStale reports that a live hand-off's outcome did not arrive
// within the worker's wait: the source starts querying its decider.
type DelegationStale struct{ TxnID string }

// RecoveredDelegation replays a crash-surviving branch that names its
// decider: the source is in doubt and asks.
type RecoveredDelegation struct {
	TxnID   string
	Decider string
}

// HandoffReceived is the decider half of a hand-off: a source asks this
// node to enqueue a container and decide.
type HandoffReceived struct {
	TxnID   string
	From    string
	EntryID string
	Data    []byte
	Mark    uint64
}

// HandoffDecided reports the driver's durable verdict on a hand-off
// (the Decide effect): Commit means the entry and its commit record
// landed, !Commit that the fence did. OK=false means nothing was
// written (a store error); the source's query will ask again.
type HandoffDecided struct {
	TxnID  string
	Commit bool
	OK     bool
}

// ResolvedReceived carries a source's mark (q.resolved): every hand-off
// of From below Mark has settled there.
type ResolvedReceived struct {
	From string
	Mark uint64
}

// RecoveredOutcome replays one decider record found at start-up.
type RecoveredOutcome struct {
	TxnID  string
	Commit bool
	Mark   uint64
}

// CoordPrepareRCE opens the coordinator decision for TxnID and ships a
// resource-compensation-entry list to the resource node (Figure 5b).
type CoordPrepareRCE struct {
	TxnID string
	Dest  string
	Ops   []*core.OpEntry
}

// CoordDecided closes the coordinator decision over the RCE branches
// on Parts: Commit=true after the decision record is durably in the
// store drives them to commit reliably; Commit=false notifies them of
// the abort once (best effort — presumed abort covers the loss).
type CoordDecided struct {
	TxnID  string
	Commit bool
	Parts  []string
}

// AckReceived is an RCE acknowledgement. Kind is the ack message kind
// (KindRCEExecAck, KindRCECommitAck, KindRCEAbortAck).
type AckReceived struct {
	Kind  string
	TxnID string
	From  string
	OK    bool
	Err   string
}

// QueryReceived is an in-doubt query (txn.query). From a participant of
// a transaction this node coordinates, StoreDecided and StorePrepared
// are the driver-supplied facts whether the decision record, and this
// node's own prepared branch for TxnID, exist in stable storage. From
// the source of a hand-off this node decides, they are unused.
type QueryReceived struct {
	TxnID         string
	From          string
	StoreDecided  bool
	StorePrepared bool
}

// StatusReceived is a coordinator's answer to an in-doubt query:
// Committed=false means presumed abort.
type StatusReceived struct {
	TxnID     string
	Committed bool
}

// CtlReceived is a commit/abort control message for an RCE branch from
// its coordinator.
type CtlReceived struct {
	TxnID  string
	From   string
	Commit bool
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

// RecoveredBranch replays a crash-surviving prepared RCE branch record
// (no live transaction); resolution goes through the branch record.
type RecoveredBranch struct{ TxnID string }

// ReadyReached marks the end of recovery: hand-offs and RCE executions
// are accepted from now on.
type ReadyReached struct{}

// TimerFired delivers an expired timer previously armed via ArmTimer.
type TimerFired struct{ ID string }

func (Delegate) isEvent()            {}
func (OutcomeReceived) isEvent()     {}
func (DelegationStale) isEvent()     {}
func (RecoveredDelegation) isEvent() {}
func (HandoffReceived) isEvent()     {}
func (HandoffDecided) isEvent()      {}
func (ResolvedReceived) isEvent()    {}
func (RecoveredOutcome) isEvent()    {}
func (CoordPrepareRCE) isEvent()     {}
func (CoordDecided) isEvent()        {}
func (AckReceived) isEvent()         {}
func (QueryReceived) isEvent()       {}
func (StatusReceived) isEvent()      {}
func (CtlReceived) isEvent()         {}
func (RCEExecReceived) isEvent()     {}
func (BranchPrepared) isEvent()      {}
func (DoneRecorded) isEvent()        {}
func (DoneAcked) isEvent()           {}
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

// SendHandoff transmits a hand-off (q.prepare) at once, not batched:
// when the send fails before any byte left (network.ErrUnreachable),
// the driver feeds an abort OutcomeReceived back.
type SendHandoff struct {
	To  string
	Msg *PrepareMsg
}

// DeliverAck routes an answer to the local worker blocked on it (the
// driver's waiter plumbing): an RCE exec ack, or — Kind KindOutcome, OK
// the commit — a live hand-off's verdict, on which the worker commits or
// aborts its prepared branch.
type DeliverAck struct {
	Kind  string
	TxnID string
	OK    bool
	Err   string
}

// Decide asks the driver to make a decider verdict durable and feed
// the result back as HandoffDecided. Commit: vet the container (the
// adoption gate), then enqueue Data and write the commit record in one
// batch — or, if the gate refuses, write the fence instead. !Commit:
// write the fence. Mark goes into the record.
type Decide struct {
	TxnID   string
	From    string
	EntryID string
	Data    []byte
	Mark    uint64
	Commit  bool
}

// DropOutcomes garbage-collects decider records below a source's mark.
type DropOutcomes struct{ TxnIDs []string }

// SendResolved sends the source's current mark to a decider
// (q.resolved); the driver reads the mark when it applies the effect.
type SendResolved struct{ To string }

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
func (SendHandoff) isEffect()         {}
func (DeliverAck) isEffect()          {}
func (Decide) isEffect()              {}
func (DropOutcomes) isEffect()        {}
func (SendResolved) isEffect()        {}
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
	case Delegate:
		return m.delegate(e)
	case OutcomeReceived:
		return m.settleDelegation(e)
	case DelegationStale:
		return m.delegationStale(e)
	case RecoveredDelegation:
		return m.recoveredDelegation(e)
	case HandoffReceived:
		return m.handoffReceived(e)
	case HandoffDecided:
		return m.handoffDecided(e)
	case ResolvedReceived:
		return m.advanceMark(e.From, e.Mark)
	case RecoveredOutcome:
		return m.recoveredOutcome(e)
	case CoordPrepareRCE:
		return m.coordPrepareRCE(e)
	case CoordDecided:
		return m.coordDecided(e)
	case AckReceived:
		return m.ackReceived(e)
	case QueryReceived:
		return m.queryReceived(e)
	case StatusReceived:
		return m.resolveBranch(e.TxnID, e.Committed)
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
	Delegations      int // hand-offs this node's branches still wait on
	Outcomes         int // decider records held (commits and fences)
	Deciding         int // hand-off verdicts being written
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
	s.Delegations = len(m.delegs)
	s.Outcomes = len(m.decided)
	s.Deciding = len(m.deciding)
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

// Coordinator extracts the node that began a transaction from its ID
// ("node#seq") — the coordinator of its RCE branches and the source of
// its hand-off; it returns "" for IDs without a separator.
func Coordinator(txnID string) string {
	if i := strings.LastIndex(txnID, "#"); i >= 0 {
		return txnID[:i]
	}
	return ""
}

// seqOf extracts the sequence number from a transaction ID ("node#seq").
func seqOf(txnID string) (uint64, bool) {
	i := strings.LastIndex(txnID, "#")
	if i < 0 {
		return 0, false
	}
	seq, err := strconv.ParseUint(txnID[i+1:], 10, 64)
	return seq, err == nil
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
