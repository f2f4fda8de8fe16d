// Package trace is a lock-light, bounded ring-buffer event tracer. Each
// node owns one ring of fixed-size records indexed by an atomic cursor:
// writers claim a slot with a single atomic add and overwrite the oldest
// record in place, so the ring is cheap enough to stay on by default and
// never grows. Records are stamped with the node name, transaction ID,
// agent entry ID and the node's network.Clock time (injected as a plain
// func so this package depends on nothing), which makes traces
// deterministic under a frozen VirtualClock: the same seed replayed
// twice yields the same record multiset, and CanonicalSort turns that
// multiset into byte-identical exports.
//
// The package is three layers:
//
//   - Tracer: the per-node ring (this file). All methods are nil-safe so
//     instrumentation sites never branch on configuration.
//   - timeline.go: grouping records into per-agent causal timelines,
//     joining txn-only records to agents via the worker's step records.
//   - export.go: JSONL, Chrome trace_event JSON and text post-mortems.
package trace

import (
	"sync"
	"sync/atomic"
)

// Op identifies what a record describes.
type Op uint8

const (
	// OpTransition is one Machine.Step: event in, state edge, effects out.
	OpTransition Op = iota + 1
	// OpTimerArm / OpTimerFire follow a protocol timer through the
	// wheel. Name carries the timer ID ("class|peer").
	OpTimerArm
	OpTimerFire
	// OpWireSend / OpWireRecv are one protocol message leaving or
	// entering the node. Name is the message kind, A the peer, N bytes.
	OpWireSend
	OpWireRecv
	// OpBatchFlush is one coalesced per-destination flush; A is the
	// destination, N the number of frames in the batch.
	OpBatchFlush
	// OpSchedClaim / OpSchedRetry / OpSchedAbort are scheduler decisions
	// about a queued agent. Agent is the queue entry ID.
	OpSchedClaim
	OpSchedRetry
	OpSchedAbort
	// OpAgentStep is the worker starting a unit of agent work (a step,
	// a compensation run, or the final done record). It is the join
	// table: the only record kind that always carries both the agent ID
	// and the step transaction ID.
	OpAgentStep
	// OpStable is a stable-store transaction outcome (Name is one of
	// commit, abort, prepare, commit-prepared; Txn the transaction).
	OpStable
	// OpMember is a membership view change (Name is the event — merge,
	// set-status, announce; A the subject member, B its status).
	OpMember
	// OpMigrate follows one forward of a misplaced ring-placed agent
	// (Name is start, commit or abort; Agent the agent, A the source, B
	// the destination, N the container bytes).
	OpMigrate
	// OpCtlFlush is one coalesced control-plane GC flush: decision-record
	// clears and done-record drops from concurrent transitions applied as
	// a single group commit. N is the number of staged ops in the batch.
	OpCtlFlush
	// OpPiggyback is one deferred ack/status frame riding an outbound
	// batch already headed to its peer instead of flushing its own frame
	// (Name is the message kind, A the peer, N the payload bytes).
	OpPiggyback
)

var opNames = [...]string{
	OpTransition: "transition",
	OpTimerArm:   "timer-arm",
	OpTimerFire:  "timer-fire",
	OpWireSend:   "wire-send",
	OpWireRecv:   "wire-recv",
	OpBatchFlush: "batch-flush",
	OpSchedClaim: "sched-claim",
	OpSchedRetry: "sched-retry",
	OpSchedAbort: "sched-abort",
	OpAgentStep:  "agent-step",
	OpStable:     "stable",
	OpMember:     "member",
	OpMigrate:    "migrate",
	OpCtlFlush:   "ctl-flush",
	OpPiggyback:  "piggyback",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return "op?"
}

// Record is one traced event. The meaning of Name, A, B and N depends on
// Op (see the Op constants); unused fields stay zero. Seq is the ring
// cursor value that claimed the slot — unique per tracer, monotonic in
// claim order, and deliberately excluded from canonical exports because
// claim order between goroutines is not deterministic even when the
// record contents are.
type Record struct {
	Seq   uint64
	T     int64 // clock time, nanoseconds
	Op    Op
	Node  string
	Txn   string
	Agent string
	Name  string
	A     string // transition: state before; wire/batch: peer
	B     string // transition: state after
	N     int64  // transition: effect count; wire: bytes; batch: frames; timer-arm: duration; sched: attempt
}

// slot holds one record behind its own mutex. A per-slot mutex keeps the
// hot path race-clean without a global lock: writers only contend when
// two claims are exactly one ring-length apart, which at any sane ring
// size means never.
type slot struct {
	mu  sync.Mutex
	rec Record
}

// Tracer is a per-node bounded ring. The zero value is not usable; a nil
// *Tracer is, and records nothing.
type Tracer struct {
	node  string
	now   func() int64
	mask  uint64
	cur   atomic.Uint64
	slots []slot
}

// DefaultRingSize is the per-node ring capacity when none is given:
// large enough to hold the full history of a small run and the recent
// past of a large one, small enough (~2 MiB of records) to keep per node.
const DefaultRingSize = 1 << 14

// New builds a tracer for one node. size is rounded up to a power of
// two (0 or negative selects DefaultRingSize). now supplies timestamps
// in nanoseconds — pass the node's network.Clock so traces are
// deterministic under VirtualClock; a nil now stamps zero.
func New(node string, size int, now func() int64) *Tracer {
	if size <= 0 {
		size = DefaultRingSize
	}
	n := 1
	for n < size {
		n <<= 1
	}
	if now == nil {
		now = func() int64 { return 0 }
	}
	return &Tracer{node: node, now: now, mask: uint64(n - 1), slots: make([]slot, n)}
}

// Node returns the node name the tracer was built for ("" on nil).
func (t *Tracer) Node() string {
	if t == nil {
		return ""
	}
	return t.node
}

// Rec appends one record to the ring. It is the hot path: one atomic
// add, one uncontended mutex, one struct assignment, zero allocations.
// Safe on a nil tracer.
func (t *Tracer) Rec(op Op, txn, agent, name, a, b string, n int64) {
	if t == nil {
		return
	}
	seq := t.cur.Add(1)
	s := &t.slots[seq&t.mask]
	ts := t.now()
	s.mu.Lock()
	s.rec = Record{Seq: seq, T: ts, Op: op, Node: t.node, Txn: txn, Agent: agent, Name: name, A: a, B: b, N: n}
	s.mu.Unlock()
}

// Snapshot copies the ring's live records, ordered by claim sequence.
// Safe to call concurrently with writers; a record being overwritten at
// snapshot time appears as either its old or its new value, never torn.
func (t *Tracer) Snapshot() []Record {
	if t == nil {
		return nil
	}
	out := make([]Record, 0, len(t.slots))
	for i := range t.slots {
		s := &t.slots[i]
		s.mu.Lock()
		r := s.rec
		s.mu.Unlock()
		if r.Seq != 0 {
			out = append(out, r)
		}
	}
	sortRecords(out, func(x, y Record) bool { return x.Seq < y.Seq })
	return out
}

// Len reports how many records have ever been claimed (not the ring
// occupancy). Safe on nil.
func (t *Tracer) Len() uint64 {
	if t == nil {
		return 0
	}
	return t.cur.Load()
}
