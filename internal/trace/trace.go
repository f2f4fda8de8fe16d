// Package trace is a lock-light, bounded ring-buffer event tracer. Each
// node owns one ring of fixed-size slots indexed by an atomic cursor:
// writers claim a slot with a single atomic add and overwrite the oldest
// record in place, so the ring is cheap enough to stay on by default and
// never grows. A slot holds a record's strings as bytes copied inline,
// not as pointers, so the garbage collector never scans the ring; a
// record too long for one slot claims the slots after it in the same
// add, and Snapshot rebuilds whole records from them. Records are
// stamped with the node name, transaction ID, agent entry ID and the
// node's network.Clock time (injected as a plain func so this package
// depends on nothing), which makes traces deterministic under a frozen
// VirtualClock: the same seed replayed twice yields the same record
// multiset, and CanonicalSort turns that multiset into byte-identical
// exports.
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
	// wheel. Name carries the timer ID ("class|txn", "pdone|agent").
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
// cursor value that claimed the record's first slot — unique per tracer,
// monotonic in claim order, and deliberately excluded from canonical
// exports because claim order between goroutines is not deterministic
// even when the record contents are.
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

// A slot is a fixed 128-byte struct with no pointer field, so the
// collector never scans the ring however many records it holds.
const (
	nFields = 5 // Txn, Agent, Name, A, B
	// maxField is the longest string field a record keeps (its length
	// is a byte): a field over it is cut to its first maxField bytes.
	maxField = 255
	// slotData is the string bytes one slot holds: 128 bytes less the
	// mutex and the header.
	slotData = 89
)

// slot holds one ring position behind its own mutex. A per-slot mutex
// keeps the hot path race-clean without a global lock: writers only
// contend when two claims are exactly one ring-length apart, which at
// any sane ring size means never.
type slot struct {
	mu sync.Mutex
	p  packed
}

// packed is a slot's content. seq is the claim that wrote it (0: never
// written). A record's first slot has span ≥ 1, the header and the first
// slotData bytes of its strings, concatenated in field order and each cut
// to lens; slot k of the record carries claim seq+k, span 0 and the next
// slotData bytes.
type packed struct {
	seq  uint64
	t, n int64
	op   Op
	span uint8
	lens [nFields]uint8
	data [slotData]byte
}

// Tracer is a per-node bounded ring. The zero value is not usable; a nil
// *Tracer is, and records nothing.
type Tracer struct {
	node     string
	now      func() int64
	mask     uint64
	maxBytes int // string bytes one record may hold: maxField per field, and no more than the ring
	cur      atomic.Uint64
	slots    []slot
}

// DefaultRingSize is the per-node ring capacity when none is given:
// large enough to hold the full history of a small run and the recent
// past of a large one, small enough (2 MiB of slots) to keep per node.
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
	return &Tracer{node: node, now: now, mask: uint64(n - 1),
		maxBytes: min(nFields*maxField, n*slotData), slots: make([]slot, n)}
}

// Node returns the node name the tracer was built for ("" on nil).
func (t *Tracer) Node() string {
	if t == nil {
		return ""
	}
	return t.node
}

// Rec appends one record to the ring. It is the hot path: one atomic
// add, one uncontended mutex and one copy of the string bytes per slot,
// zero allocations. A field over maxField bytes keeps its first maxField;
// a record longer than the whole ring keeps what the ring holds, cutting
// its last fields first. Safe on a nil tracer.
func (t *Tracer) Rec(op Op, txn, agent, name, a, b string, n int64) {
	if t == nil {
		return
	}
	fields := [nFields]string{txn, agent, name, a, b}
	var lens [nFields]uint8
	size := 0
	for i := range fields {
		l := min(len(fields[i]), maxField, t.maxBytes-size)
		lens[i] = uint8(l)
		size += l
	}
	span := uint64(max(1, (size+slotData-1)/slotData))
	seq := t.cur.Add(span) - span + 1
	s := &t.slots[seq&t.mask]
	ts := t.now()
	s.mu.Lock()
	s.p.seq, s.p.t, s.p.n, s.p.op, s.p.span, s.p.lens = seq, ts, n, op, uint8(span), lens
	pack(s.p.data[:], &fields, &lens, 0)
	s.mu.Unlock()
	for k := uint64(1); k < span; k++ {
		s := &t.slots[(seq+k)&t.mask]
		s.mu.Lock()
		s.p.seq, s.p.span = seq+k, 0
		pack(s.p.data[:], &fields, &lens, int(k)*slotData)
		s.mu.Unlock()
	}
}

// pack fills dst with the concatenation of fields, each cut to lens,
// from byte off on.
func pack(dst []byte, fields *[nFields]string, lens *[nFields]uint8, off int) {
	for i, f := range fields {
		l := int(lens[i])
		if off >= l {
			off -= l
			continue
		}
		dst = dst[copy(dst, f[off:l]):]
		if len(dst) == 0 {
			return
		}
		off = 0
	}
}

// Snapshot rebuilds the ring's live records, ordered by claim sequence.
// Safe to call concurrently with writers: each slot is read under its
// lock, and a record that spans slots is returned only if every one of
// them still carries its claim, so a record being overwritten at
// snapshot time appears whole, as its old or its new value, or not at
// all — never torn.
func (t *Tracer) Snapshot() []Record {
	if t == nil {
		return nil
	}
	out := make([]Record, 0, len(t.slots))
	var buf []byte
	for i := range t.slots {
		s := &t.slots[i]
		s.mu.Lock()
		p := s.p
		s.mu.Unlock()
		if p.seq == 0 || p.span == 0 {
			continue
		}
		var whole bool
		if buf, whole = t.gather(buf[:0], &p); !whole {
			continue
		}
		var f [nFields]string
		str := string(buf)
		for j, l := range p.lens {
			f[j], str = str[:l], str[l:]
		}
		out = append(out, Record{Seq: p.seq, T: p.t, Op: p.op, Node: t.node,
			Txn: f[0], Agent: f[1], Name: f[2], A: f[3], B: f[4], N: p.n})
	}
	sortRecords(out, func(x, y Record) bool { return x.Seq < y.Seq })
	return out
}

// gather appends to buf the string bytes of the record whose first slot
// holds p, reading its other slots under their locks. It reports false if
// any of them now carries another claim.
func (t *Tracer) gather(buf []byte, p *packed) ([]byte, bool) {
	size := 0
	for _, l := range p.lens {
		size += int(l)
	}
	buf = append(buf, p.data[:min(size, slotData)]...)
	for k := uint64(1); k < uint64(p.span); k++ {
		s := &t.slots[(p.seq+k)&t.mask]
		s.mu.Lock()
		ok := s.p.seq == p.seq+k
		if ok {
			buf = append(buf, s.p.data[:min(size-len(buf), slotData)]...)
		}
		s.mu.Unlock()
		if !ok {
			return buf, false
		}
	}
	return buf, true
}

// Len reports how many slots have ever been claimed (not the ring
// occupancy): one per record, more for a record that spans slots. Safe
// on nil.
func (t *Tracer) Len() uint64 {
	if t == nil {
		return 0
	}
	return t.cur.Load()
}
