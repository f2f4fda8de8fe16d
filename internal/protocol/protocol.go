// Package protocol is the event-driven core of the distributed
// protocols in §3–§4 of the paper: the queue hand-off of a step
// transaction, remote compensation via RCE lists (Figure 5b),
// presumed-abort in-doubt resolution, and the reliable
// completion-notification cycle.
//
// Every distributed transaction has one decider (DESIGN.md §5): the
// node that receives the container (the last-agent optimisation of
// two-phase commit), or the compensating node itself when its agent
// stays. The source prepares its own part durably, naming the decider,
// and sends one message; RCE parties prepare their branches naming it
// too. The decider enqueues the container and writes its record
// atomically, then sends its verdict to the source and to each party. A
// decider asked about a transaction it never saw fences it durably
// before answering abort, and every message from a source carries its
// watermark: the lowest transaction it has not settled, below which the
// decider drops late prepares and collects its records. Roles:
// source.go, decider.go, rce.go (the RCE executor), notify.go.
//
// Everything here is a pure, single-threaded state machine. A
// transition consumes exactly one Event — an inbound protocol message,
// a timer firing, a local decision of the worker (hand-off delegated,
// RCE list shipped, own transaction decided, execution finished), or a recovery replay —
// and returns the list of Effects the driver must apply: outbound
// messages, stable-store writes, prepared-branch settles, timer arms
// and cancels, and metric counts. The machine never starts a goroutine,
// owns no channel, and performs no I/O; facts the driver owns (a node's
// own watermark) are passed in on the event. That makes every protocol
// decision — including the chaos harness's first catch, an abort
// overtaking a lock-blocked RCE execution — an ordinary state edge that permutation
// tests and fuzzers can cover without a cluster, a store, or a clock.
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
	// Node is the local node's network name (transaction IDs it begins
	// are "<Node>#<seq>").
	Node string
	// RetryInterval is the cadence of verdict resends, in-doubt queries
	// and completion-notification resends (RetryDelay*5 in node terms).
	RetryInterval time.Duration
	// AckTimeout is how long a shipped RCE list waits for its exec ack;
	// a hand-off or a prepared RCE branch first asks its decider after
	// twice that (staleAfter).
	AckTimeout time.Duration
}

func (c *Config) fillDefaults() {
	if c.RetryInterval <= 0 {
		c.RetryInterval = 50 * time.Millisecond
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 2 * time.Second
	}
}

func (c *Config) staleAfter() time.Duration { return 2 * c.AckTimeout }

// Machine holds the protocol state of one node across all its roles:
// source and decider of distributed transactions, RCE party (Figure 5b
// resource side), and completion notifier. Step is the single transition
// function; it must be externally serialized (the driver guarantees one
// Step at a time) and is otherwise a pure state+effects fold.
type Machine struct {
	cfg   Config
	ready bool

	decided  map[string]*record  // decider records: commits and fences
	deciding map[string][]string // verdicts being written → the parties to tell
	marks    map[string]uint64   // decider: highest mark seen per source
	branches map[string]*branch  // per transaction: a prepared branch, hand-off or RCE, or a shipped RCE list
	done     map[string]string   // undelivered completion: agent → owner

	// armed holds the IDs of the obligation timers armed and not yet
	// fired (timers.go).
	armed map[string]bool

	transitions int64
}

// NewMachine creates an empty machine for one node.
func NewMachine(cfg Config) *Machine {
	cfg.fillDefaults()
	return &Machine{
		cfg:      cfg,
		decided:  make(map[string]*record),
		deciding: make(map[string][]string),
		marks:    make(map[string]uint64),
		branches: make(map[string]*branch),
		done:     make(map[string]string),
		armed:    make(map[string]bool),
	}
}

// Event is one protocol input. Events are plain data; the driver
// enriches them with the facts a decision needs that it owns (e.g.
// QueryReceived.Mark) so the machine itself stays I/O-free.
type Event interface{ isEvent() }

// Effect is one output the driver must apply. Effects are emitted in
// application order; all of them are either idempotent or guarded by
// machine state, so a crash between effect applications is recovered
// by the protocol's own retry/presumed-abort cycle.
type Effect interface{ isEffect() }

// --- events -----------------------------------------------------------

// Delegate opens a hand-off at its source: the worker prepared its
// branch (naming Decider) and the container goes out now. Mark is the
// source's watermark (txn.Manager.Mark); Parties are the RCE parties
// whose branches the decider settles with the same verdict.
type Delegate struct {
	TxnID   string
	Decider string
	EntryID string
	Data    []byte
	Mark    uint64
	Parties []string
}

// OutcomeReceived is a decider's verdict (q.outcome) from From: on one of
// this node's hand-offs (the answer to the hand-off or to a query), or on
// an RCE branch this node holds. The driver also feeds an abort back,
// with its reason in Err and no From, when a prepare's send failed
// before any byte of it left (network.ErrUnreachable: no decider can
// ever see it) — possibly inside the Delegate step that sent it.
type OutcomeReceived struct {
	TxnID     string
	From      string
	Committed bool
	Err       string
}

// HandoffReceived is the decider half of a hand-off: a source asks this
// node to enqueue a container and decide, for itself and for Parties.
type HandoffReceived struct {
	TxnID   string
	From    string
	EntryID string
	Data    []byte
	Mark    uint64
	Parties []string
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

// LocalDecided reports that this node settled its own transaction with
// RCE Parties: Commit — the container stayed, and the commit record
// landed in the transaction's own batch (the driver steps this from a
// commit hook, before the transaction leaves its open set); !Commit —
// the transaction aborted before any prepare of it left.
type LocalDecided struct {
	TxnID   string
	Commit  bool
	Parties []string
}

// ResolvedReceived carries a source's mark (q.resolved): every hand-off
// of From below Mark has settled there.
type ResolvedReceived struct {
	From string
	Mark uint64
}

// RecoveredOutcome replays one decider record found at start-up.
type RecoveredOutcome struct {
	TxnID   string
	Commit  bool
	Mark    uint64
	Parties []string
}

// AckReceived is an acknowledgement: Kind KindRCEExecAck answers an RCE
// list this node shipped, KindOutcomeAck a commit verdict it sent a
// party.
type AckReceived struct {
	Kind  string
	TxnID string
	From  string
	OK    bool
	Err   string
}

// QueryReceived is an in-doubt query (txn.query) from a source or an RCE
// party of a transaction this node decides. Mark is this node's own
// watermark (txn.Manager.Mark), which the driver reads: it tells
// whether this node's own transaction may still be running.
type QueryReceived struct {
	TxnID string
	From  string
	Mark  uint64
}

// RCEExecReceived asks this node to execute a resource-compensation
// list inside a prepared branch of compensation transaction TxnID,
// decided by Decider (Figure 5b, resource-node half).
type RCEExecReceived struct {
	TxnID   string
	From    string
	Decider string
	Ops     []*core.OpEntry
}

// RCEShipped ships a compensation transaction's resource compensation
// entries to the party To, whose branch Decider settles (Figure 5b); the
// worker parked the transaction, and ExecAcked ends it.
type RCEShipped struct {
	TxnID   string
	To      string
	Decider string
	Ops     []*core.OpEntry
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

// RecoveredBranch replays a crash-surviving prepared branch record
// naming its Decider: a hand-off this node began, or an RCE branch.
// Either way the node is in doubt and asks.
type RecoveredBranch struct {
	TxnID   string
	Decider string
}

// ReadyReached marks the end of recovery: hand-offs and RCE executions
// are accepted from now on.
type ReadyReached struct{}

// TimerFired delivers an expired timer previously armed via ArmTimer.
type TimerFired struct{ ID string }

func (Delegate) isEvent()         {}
func (OutcomeReceived) isEvent()  {}
func (HandoffReceived) isEvent()  {}
func (HandoffDecided) isEvent()   {}
func (LocalDecided) isEvent()     {}
func (ResolvedReceived) isEvent() {}
func (RecoveredOutcome) isEvent() {}
func (AckReceived) isEvent()      {}
func (QueryReceived) isEvent()    {}
func (RCEExecReceived) isEvent()  {}
func (RCEShipped) isEvent()       {}
func (BranchPrepared) isEvent()   {}
func (DoneRecorded) isEvent()     {}
func (DoneAcked) isEvent()        {}
func (RecoveredBranch) isEvent()  {}
func (ReadyReached) isEvent()     {}
func (TimerFired) isEvent()       {}

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

// ExecAcked ends a shipped RCE list once, for what the worker parked:
// OK when the party prepared its branch; else Err says why not — its
// refusal, or no ack within AckTimeout.
type ExecAcked struct {
	TxnID string
	OK    bool
	Err   string
}

// Decide asks the driver to make a decider verdict durable and feed
// the result back as HandoffDecided. Commit: enqueue Data and write the
// commit record, listing Parties, in one batch — with this node's own
// prepared branch of the transaction when Branch is set — or, if the node
// has left the cluster or the branch is gone, write the fence instead.
// !Commit: write the fence. Mark goes into the record.
type Decide struct {
	TxnID   string
	From    string
	EntryID string
	Data    []byte
	Mark    uint64
	Commit  bool
	Parties []string
	Branch  bool
}

// DropOutcomes garbage-collects decider records: below a source's mark,
// with every party acknowledged.
type DropOutcomes struct{ TxnIDs []string }

// SendResolved sends the source's current mark to a decider
// (q.resolved); the driver reads the mark when it applies the effect.
type SendResolved struct{ To string }

// SettleBranch applies a verdict to this node's prepared branch of
// TxnID, a hand-off's or an RCE party's, live or recovered: the driver
// commits or aborts the prepared transaction it parked for TxnID (and
// runs what the parking worker left to run), or, with none parked,
// replays or drops the durable branch record (txn.Manager.ResolveBranch).
// Err is set when the hand-off's prepare never reached a decider.
type SettleBranch struct {
	TxnID  string
	Commit bool
	Err    string
}

// ExecBranch asks the driver to execute the compensation list inside a
// fresh branch transaction (off the dispatcher — compensations wait on
// resource locks), prepare it naming Decider, park the prepared
// transaction, and feed the result back as a BranchPrepared event.
type ExecBranch struct {
	TxnID   string
	Decider string
	Ops     []*core.OpEntry
}

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

// CancelTimer disarms the named timer on the node's timer wheel.
type CancelTimer struct{ ID string }

// CountCompOps bumps the compensating-operations metric (the branch
// prepared successfully).
type CountCompOps struct{ N int64 }

func (SendMsg) isEffect()      {}
func (SendHandoff) isEffect()  {}
func (ExecAcked) isEffect()    {}
func (Decide) isEffect()       {}
func (DropOutcomes) isEffect() {}
func (SendResolved) isEffect() {}
func (SettleBranch) isEffect() {}
func (ExecBranch) isEffect()   {}
func (ResendDone) isEffect()   {}
func (DropDone) isEffect()     {}
func (ArmTimer) isEffect()     {}
func (CancelTimer) isEffect()  {}
func (CountCompOps) isEffect() {}

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
		return m.outcomeReceived(e)
	case HandoffReceived:
		return m.handoffReceived(e)
	case HandoffDecided:
		return m.handoffDecided(e)
	case LocalDecided:
		return m.localDecided(e)
	case ResolvedReceived:
		return m.advanceMark(e.From, e.Mark)
	case RecoveredOutcome:
		return m.recoveredOutcome(e)
	case AckReceived:
		return m.ackReceived(e)
	case QueryReceived:
		return m.queryReceived(e)
	case RCEExecReceived:
		return m.rceExecReceived(e)
	case RCEShipped:
		return m.rceShipped(e)
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
	Outcomes         int // decider records held (commits and fences)
	PendingParties   int // commit verdicts not yet acknowledged by a party
	Deciding         int // verdicts being written
	BranchesExec     int // RCE executions in flight (incl. poisoned), or shipped lists awaiting their ack
	BranchesPrepared int // prepared branches awaiting decision, hand-offs' included
	BranchesInDoubt  int // recovered branch records awaiting verdict
	DonePending      int // completion notifications awaiting ack
}

// Stats reports the current state sizes.
func (m *Machine) Stats() Stats {
	var s Stats
	s.Outcomes = len(m.decided)
	for _, r := range m.decided {
		s.PendingParties += len(r.pending)
	}
	s.Deciding = len(m.deciding)
	for _, b := range m.branches {
		switch b.state {
		case branchExecuting, branchExecutingAborted, branchShipped:
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

// Origin extracts the node that began a transaction from its ID
// ("node#seq") — the source of its hand-off, and the node its RCE
// parties ran for; it returns "" for IDs without a separator.
func Origin(txnID string) string {
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
