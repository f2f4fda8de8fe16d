// Package core implements the agent rollback log of §4.2 — the data
// structure the whole rollback mechanism revolves around.
//
// The log is attached to the agent and migrates with it. It is a stack of
// four entry kinds (Figure 2):
//
//	SP   savepoint entry: restore information for the strongly
//	     reversible objects, via a full image (state logging) or a delta
//	     against the previous savepoint (transition logging);
//	BOS  begin-of-step entry: node that executed the step;
//	OE   operation entry: one compensating operation + parameters, of
//	     resource, agent or mixed kind (§4.4.1);
//	EOS  end-of-step entry: node, the has-mixed flag used by the
//	     optimized rollback, and alternative nodes for fault-tolerant
//	     compensation (§4.3 discussion).
//
// To compensate step n the operation entries between its EOS and BOS are
// executed in reverse log order (OEn,p … OEn,1).
package core

import (
	"errors"
	"fmt"

	"repro/internal/itinerary"
	"repro/internal/wire"
)

// OpKind classifies a compensating operation entry (§4.4.1).
type OpKind int

// Operation entry kinds.
const (
	// OpResource compensations touch only the resource state space; all
	// information they need travels in the entry's parameters. They can
	// be shipped to the resource node without the agent.
	OpResource OpKind = iota + 1
	// OpAgent compensations touch only weakly reversible objects of the
	// agent; they run wherever the agent resides.
	OpAgent
	// OpMixed compensations need both; the agent must be transferred to
	// the node where the step executed.
	OpMixed
)

// String returns the kind name.
func (k OpKind) String() string {
	switch k {
	case OpResource:
		return "resource"
	case OpAgent:
		return "agent"
	case OpMixed:
		return "mixed"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// LogMode selects how strongly reversible objects are logged (§4.2).
type LogMode int

// Logging modes for strongly reversible objects.
const (
	// StateLogging writes a complete image of the SROs per savepoint.
	StateLogging LogMode = iota + 1
	// TransitionLogging writes differences between adjacent savepoints;
	// the oldest savepoint in the log always carries a full base image.
	TransitionLogging
)

// Params carries the parameters of a compensating operation as named
// values, opaque bytes of the shared value codec.
type Params map[string][]byte

// NewParams returns an empty parameter set.
func NewParams() Params { return make(Params) }

// Set stores v under key and returns the receiver for chaining. Values
// go through the shared value codec (wire.EncodeValue); a value it cannot
// encode is a programming error and panics.
func (p Params) Set(key string, v any) Params {
	data, err := wire.EncodeValue(v)
	if err != nil {
		panic(err)
	}
	p[key] = data
	return p
}

// Get decodes the value under key into out (a non-nil pointer).
func (p Params) Get(key string, out any) error {
	raw, ok := p[key]
	if !ok {
		return fmt.Errorf("core: missing parameter %q", key)
	}
	if err := wire.DecodeValue(raw, out); err != nil {
		return fmt.Errorf("core: parameter %q: %w", key, err)
	}
	return nil
}

// Entry is one rollback-log entry.
type Entry interface {
	// entryName returns the short name used in log dumps (SP/BOS/OE/EOS).
	entryName() string
}

// SavepointEntry marks an agent savepoint (§4.2): the agent's execution
// state (Sys) and its strongly reversible objects. Exactly one of
// Image/Delta is meaningful for data-carrying savepoints; Special
// savepoints carry no data and reference an earlier savepoint whose state
// they share (§4.4.2: a sub-itinerary starting immediately after its parent
// reuses the parent's savepoint data).
type SavepointEntry struct {
	ID   string
	Mode LogMode

	// Sys is the execution state a rollback to this savepoint restores;
	// nil for a special savepoint.
	Sys *SysState

	// Image is the full SRO image (state logging, or the base savepoint
	// under transition logging).
	Image map[string][]byte
	// Delta is the difference against the previous savepoint in the log
	// (transition logging only).
	Delta *SRODelta

	// Special marks a data-less savepoint referencing RefID.
	Special bool
	RefID   string

	// Auto marks savepoints placed automatically by the itinerary layer.
	Auto bool
}

// SysState is an agent's execution state at a savepoint (§2, §4.2): the
// itinerary cursor, the step counter, and the itinerary itself, kept as
// its encoding (itinerary.Itinerary.AppendTo) so that only a restore
// decodes it.
type SysState struct {
	Cursor  itinerary.Cursor
	StepSeq int
	Itin    []byte
}

// SRODelta is the difference between the SRO states of two adjacent
// savepoints: Changed holds the values *at this savepoint* for keys that
// differ from the previous one; Deleted lists keys the previous savepoint
// had but this one does not.
type SRODelta struct {
	Changed map[string][]byte
	Deleted []string
}

// BeginStepEntry logs the start of a step (§4.2).
type BeginStepEntry struct {
	Node string
	Seq  int
}

// OpEntry logs one compensating operation (§4.2, §4.4.1).
type OpEntry struct {
	Kind   OpKind
	Op     string // compensation operation name in the registry
	Params Params
}

// EndStepEntry logs the end of a step. HasMixed is the optimization flag of
// §4.4.1 ("include a flag in the end-of-step entry indicating whether a
// mixed compensation entry is contained in the step"); AltNodes lists nodes
// that can alternatively execute the step's compensation (§4.3 discussion).
type EndStepEntry struct {
	Node     string
	Seq      int
	HasMixed bool
	AltNodes []string
}

func (*SavepointEntry) entryName() string { return "SP" }
func (*BeginStepEntry) entryName() string { return "BOS" }
func (*OpEntry) entryName() string        { return "OE" }
func (*EndStepEntry) entryName() string   { return "EOS" }

// EntryName returns the short display name of e (SP/BOS/OE/EOS).
func EntryName(e Entry) string { return e.entryName() }

// Errors of the log layer.
var (
	ErrEmptyLog         = errors.New("core: rollback log is empty")
	ErrNoSuchSavepoint  = errors.New("core: no such savepoint in log")
	ErrNotCompensatable = errors.New("core: log does not end with a complete step")
)

// Log is the agent rollback log. It is a stack: entries are appended at
// step commit and popped (from the end) during rollback. The zero value is
// an empty log; codec.go gives its encoding inside the agent container.
//
// A log read from a container (ScanLog) keeps the entries it arrived with
// as their bytes plus an index: an entry is decoded when something reads
// it, and encoding copies the bytes of those still in the log. So an
// entry is never modified once it is in a log; an edit inside the log
// (RemoveSavepoint) decodes them all first.
type Log struct {
	// The first len(index) entries are the scanned ones, still the bytes
	// raw[:end] they arrived in; decoded holds those read so far (nil
	// until the first read). tail holds the entries appended since. raw
	// aliases the container it was scanned from and is never written;
	// itin is that container's itinerary, names raw's name table
	// (first-use order) and endNames its length at end.
	index         []span
	decoded       []Entry
	tail          []Entry
	end, endNames int
	raw, itin     []byte
	names         []string
}

// span locates scanned entry i: it starts at raw[off] and was written
// when the name table held names[:names]. A savepoint's ID is names[id]
// (-1: the empty ID).
type span struct {
	off, names int
	id         int32
	kind       byte
	special    bool
}

// Entry returns entry i, 0 <= i < Len, decoding it on its first read.
func (l *Log) Entry(i int) Entry {
	if i >= len(l.index) {
		return l.tail[i-len(l.index)]
	}
	if l.decoded == nil {
		l.decoded = make([]Entry, len(l.index))
	}
	if l.decoded[i] == nil {
		l.decoded[i] = l.decode(i)
	}
	return l.decoded[i]
}

// entries returns every entry in a new slice, decoding the scanned ones.
func (l *Log) entries() []Entry {
	es := make([]Entry, l.Len())
	for i := range es {
		es[i] = l.Entry(i)
	}
	return es
}

// materialise decodes every scanned entry and drops the bytes, so the
// entries can be edited in place.
func (l *Log) materialise() {
	if len(l.index) > 0 {
		*l = Log{tail: l.entries()}
	}
}

// Append adds e at the end of the log.
func (l *Log) Append(e Entry) {
	if l.tail == nil {
		l.tail = make([]Entry, 0, 8) // a step's BOS, OEs and EOS
	}
	l.tail = append(l.tail, e)
}

// Len returns the number of entries.
func (l *Log) Len() int { return len(l.index) + len(l.tail) }

// Last returns the final entry, or nil if the log is empty.
func (l *Log) Last() Entry {
	if l.Len() == 0 {
		return nil
	}
	return l.Entry(l.Len() - 1)
}

// Pop removes and returns the final entry (LOG.pop() in Figure 4b).
func (l *Log) Pop() (Entry, error) {
	e := l.Last()
	if !l.DropLast() {
		return nil, ErrEmptyLog
	}
	return e, nil
}

// DropLast removes the final entry without decoding it; it reports false
// on an empty log. A scanned entry leaves the index; its bytes stay where
// they are.
func (l *Log) DropLast() bool {
	if n := len(l.tail); n > 0 {
		l.tail[n-1] = nil
		l.tail = l.tail[:n-1]
		return true
	}
	n := len(l.index)
	if n == 0 {
		return false
	}
	l.end, l.endNames = l.index[n-1].off, l.index[n-1].names
	l.index = l.index[:n-1]
	if l.decoded != nil {
		l.decoded[n-1] = nil
		l.decoded = l.decoded[:n-1]
	}
	return true
}

// Clear discards all entries (§4.4.2: completion of a sub-itinerary of the
// main itinerary deletes all rollback information).
func (l *Log) Clear() { *l = Log{} }

// SavepointAt returns the ID of entry i if it is a savepoint, decoding
// nothing; an i outside the log is no savepoint.
func (l *Log) SavepointAt(i int) (string, bool) {
	if i < 0 || i >= l.Len() {
		return "", false
	}
	if i < len(l.index) {
		switch sp := l.index[i]; {
		case sp.kind != kindSP:
			return "", false
		case sp.id < 0:
			return "", true
		default:
			return l.names[sp.id], true
		}
	}
	sp, ok := l.tail[i-len(l.index)].(*SavepointEntry)
	if !ok {
		return "", false
	}
	return sp.ID, true
}

// dataSavepoint returns entry i if it is a data-carrying savepoint,
// decoding no other entry.
func (l *Log) dataSavepoint(i int) (*SavepointEntry, bool) {
	if i < len(l.index) && (l.index[i].kind != kindSP || l.index[i].special) {
		return nil, false
	}
	sp, ok := l.Entry(i).(*SavepointEntry)
	return sp, ok && !sp.Special
}

// savepointIndex returns the index of the savepoint with the given ID, or
// -1. Special savepoints match their own ID (not their RefID).
func (l *Log) savepointIndex(id string) int {
	for i := 0; i < l.Len(); i++ {
		if spID, ok := l.SavepointAt(i); ok && spID == id {
			return i
		}
	}
	return -1
}

// HasSavepoint reports whether a savepoint with the given ID exists.
func (l *Log) HasSavepoint(id string) bool { return l.savepointIndex(id) >= 0 }

// LastIsSavepoint reports whether the final log entry is the savepoint with
// the given ID — the "savepoint spID reached" test of Figures 4 and 5.
func (l *Log) LastIsSavepoint(id string) bool {
	spID, ok := l.SavepointAt(l.Len() - 1)
	return ok && spID == id
}

// Savepoints returns the IDs of all savepoints in log order.
func (l *Log) Savepoints() []string {
	var ids []string
	for i := 0; i < l.Len(); i++ {
		if id, ok := l.SavepointAt(i); ok {
			ids = append(ids, id)
		}
	}
	return ids
}

// String renders the log compactly, e.g. "SP(a) BOS(n1/0) OE(res) EOS(n1/0)".
func (l *Log) String() string {
	out := make([]byte, 0, 16*l.Len())
	for i := 0; i < l.Len(); i++ {
		if i > 0 {
			out = append(out, ' ')
		}
		switch v := l.Entry(i).(type) {
		case *SavepointEntry:
			if v.Special {
				out = append(out, ("SP*(" + v.ID + "->" + v.RefID + ")")...)
			} else {
				out = append(out, ("SP(" + v.ID + ")")...)
			}
		case *BeginStepEntry:
			out = append(out, fmt.Sprintf("BOS(%s/%d)", v.Node, v.Seq)...)
		case *OpEntry:
			out = append(out, ("OE(" + v.Kind.String() + ":" + v.Op + ")")...)
		case *EndStepEntry:
			out = append(out, fmt.Sprintf("EOS(%s/%d)", v.Node, v.Seq)...)
		default:
			out = append(out, "?"...)
		}
	}
	return string(out)
}
