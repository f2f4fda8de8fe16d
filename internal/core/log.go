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

// SavepointEntry marks an agent savepoint (§4.2). Exactly one of
// Image/Delta is meaningful for data-carrying savepoints; Special
// savepoints carry no data and reference an earlier savepoint whose state
// they share (§4.4.2: a sub-itinerary starting immediately after its parent
// reuses the parent's savepoint data).
type SavepointEntry struct {
	ID   string
	Mode LogMode

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
type Log struct {
	Entries []Entry
}

// Append adds e at the end of the log.
func (l *Log) Append(e Entry) { l.Entries = append(l.Entries, e) }

// Len returns the number of entries.
func (l *Log) Len() int { return len(l.Entries) }

// Last returns the final entry, or nil if the log is empty.
func (l *Log) Last() Entry {
	if len(l.Entries) == 0 {
		return nil
	}
	return l.Entries[len(l.Entries)-1]
}

// Pop removes and returns the final entry (LOG.pop() in Figure 4b).
func (l *Log) Pop() (Entry, error) {
	if len(l.Entries) == 0 {
		return nil, ErrEmptyLog
	}
	e := l.Entries[len(l.Entries)-1]
	l.Entries = l.Entries[:len(l.Entries)-1]
	return e, nil
}

// Clear discards all entries (§4.4.2: completion of a sub-itinerary of the
// main itinerary deletes all rollback information).
func (l *Log) Clear() { l.Entries = nil }

// savepointIndex returns the index of the savepoint with the given ID, or
// -1. Special savepoints match their own ID (not their RefID).
func (l *Log) savepointIndex(id string) int {
	for i, e := range l.Entries {
		if sp, ok := e.(*SavepointEntry); ok && sp.ID == id {
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
	sp, ok := l.Last().(*SavepointEntry)
	return ok && sp.ID == id
}

// Savepoints returns the IDs of all savepoints in log order.
func (l *Log) Savepoints() []string {
	var ids []string
	for _, e := range l.Entries {
		if sp, ok := e.(*SavepointEntry); ok {
			ids = append(ids, sp.ID)
		}
	}
	return ids
}

// String renders the log compactly, e.g. "SP(a) BOS(n1/0) OE(res) EOS(n1/0)".
func (l *Log) String() string {
	out := make([]byte, 0, 16*len(l.Entries))
	for i, e := range l.Entries {
		if i > 0 {
			out = append(out, ' ')
		}
		switch v := e.(type) {
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
