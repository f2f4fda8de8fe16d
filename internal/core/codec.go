package core

import (
	"bytes"
	"fmt"

	"repro/internal/itinerary"
	"repro/internal/wire"
)

// Binary encoding of the rollback log as it travels inside the agent
// container (wire.Reader's canonical format; DESIGN.md "Wire format"):
//
//	Log    present:bool [ nEntries { kind:byte entry } ]
//	SP     ID:name Mode Sys Image:map hasDelta:bool [ Changed:map nDeleted { name } ] Special:bool RefID:name Auto:bool
//	Sys    0 (none) | 1 Cursor StepSeq Itin
//	Itin   0 (the enclosing container's itinerary) | n+1 followed by n bytes
//	BOS    Node:name Seq
//	OE     Kind Op:name Params:map
//	EOS    Node:name Seq HasMixed:bool nAlt { name }
//
// Integers are signed varints, maps are wire.AppendNamedMap, Cursor is
// itinerary.Cursor.AppendTo. A savepoint's itinerary equal to the one the
// enclosing container carries is written as the one-byte reference 0, and
// only then: inline bytes equal to it, or a reference in a log outside a
// container, are wire.ErrCorrupt. The entries write their names — and
// their maps' keys — through a table of their own (wire.Names), which
// starts where the entries start, so a container's log bytes are those of
// a standalone AppendTo given the same itinerary.
const (
	kindSP  byte = 1
	kindBOS byte = 2
	kindOE  byte = 3
	kindEOS byte = 4
)

// AppendTo appends the log's encoding to buf; a nil log round-trips as
// nil. itin is the encoding of the itinerary the enclosing container
// carries (nil outside one): a savepoint whose itinerary equals it refers
// to it. entriesAt is the offset in out where the entries begin; with a
// nil itin, len(out)-entriesAt is EncodedSize. It fails only on a nil
// entry.
func (l *Log) AppendTo(buf, itin []byte) (out []byte, entriesAt int, err error) {
	if l == nil {
		buf = wire.AppendBool(buf, false)
		return buf, len(buf), nil
	}
	buf = wire.AppendBool(buf, true)
	buf = wire.AppendUvarint(buf, uint64(len(l.Entries)))
	entriesAt = len(buf)
	buf, err = l.appendEntries(buf, itin)
	return buf, entriesAt, err
}

func (l *Log) appendEntries(buf, itin []byte) ([]byte, error) {
	names := wire.NewNames()
	defer names.Release()
	for i, e := range l.Entries {
		switch v := e.(type) {
		case *SavepointEntry:
			buf = append(buf, kindSP)
			buf = names.Append(buf, v.ID)
			buf = wire.AppendVarint(buf, int64(v.Mode))
			buf = appendSys(buf, v.Sys, itin)
			buf = wire.AppendNamedMap(buf, names, v.Image)
			buf = wire.AppendBool(buf, v.Delta != nil)
			if v.Delta != nil {
				buf = wire.AppendNamedMap(buf, names, v.Delta.Changed)
				buf = names.AppendList(buf, v.Delta.Deleted)
			}
			buf = wire.AppendBool(buf, v.Special)
			buf = names.Append(buf, v.RefID)
			buf = wire.AppendBool(buf, v.Auto)
		case *BeginStepEntry:
			buf = append(buf, kindBOS)
			buf = names.Append(buf, v.Node)
			buf = wire.AppendVarint(buf, int64(v.Seq))
		case *OpEntry:
			buf = append(buf, kindOE)
			buf = wire.AppendVarint(buf, int64(v.Kind))
			buf = names.Append(buf, v.Op)
			buf = wire.AppendNamedMap(buf, names, v.Params)
		case *EndStepEntry:
			buf = append(buf, kindEOS)
			buf = names.Append(buf, v.Node)
			buf = wire.AppendVarint(buf, int64(v.Seq))
			buf = wire.AppendBool(buf, v.HasMixed)
			buf = names.AppendList(buf, v.AltNodes)
		default:
			return nil, fmt.Errorf("core: encode: log entry %d is %T", i, e)
		}
	}
	return buf, nil
}

func appendSys(buf []byte, s *SysState, itin []byte) []byte {
	buf = wire.AppendBool(buf, s != nil)
	if s == nil {
		return buf
	}
	buf = s.Cursor.AppendTo(buf)
	buf = wire.AppendVarint(buf, int64(s.StepSeq))
	if itin != nil && bytes.Equal(s.Itin, itin) {
		return wire.AppendUvarint(buf, 0)
	}
	buf = wire.AppendUvarint(buf, uint64(len(s.Itin))+1)
	return append(buf, s.Itin...)
}

// ReadLog consumes a log written by AppendTo with the same itin; failures
// are reported through r. Image, delta, parameter and savepoint itinerary
// values alias r's input (or itin, for a reference to it).
func ReadLog(r *wire.Reader, itin []byte) *Log {
	if !r.Bool() {
		return nil
	}
	l := &Log{}
	// An entry costs at least its kind byte and two fields.
	n := r.Count(3)
	if n == 0 {
		return l
	}
	r.StartNames()
	defer r.EndNames()
	l.Entries = make([]Entry, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		switch kind := r.Byte(); kind {
		case kindSP:
			sp := &SavepointEntry{ID: r.Name(), Mode: LogMode(r.Int())}
			sp.Sys = readSys(r, itin)
			sp.Image = r.NamedMap()
			if r.Bool() {
				sp.Delta = &SRODelta{Changed: r.NamedMap(), Deleted: r.NameList()}
			}
			sp.Special, sp.RefID, sp.Auto = r.Bool(), r.Name(), r.Bool()
			checkSavepoint(r, l.Entries, sp)
			l.Entries = append(l.Entries, sp)
		case kindBOS:
			l.Entries = append(l.Entries, &BeginStepEntry{Node: r.Name(), Seq: r.Int()})
		case kindOE:
			l.Entries = append(l.Entries, &OpEntry{Kind: OpKind(r.Int()), Op: r.Name(), Params: r.NamedMap()})
		case kindEOS:
			l.Entries = append(l.Entries, &EndStepEntry{Node: r.Name(), Seq: r.Int(), HasMixed: r.Bool(), AltNodes: r.NameList()})
		default:
			r.Fail("log entry kind 0x%02x", kind)
		}
	}
	return l
}

// checkSavepoint fails r unless AppendSavepoint or AppendSpecialSavepoint
// could have appended sp after entries: its ID is new, a special
// savepoint's RefID names an earlier savepoint, and a delta follows an
// earlier data-carrying savepoint (so the first of those is a base
// image). Then no RefID chain loops, and every delta has a base.
func checkSavepoint(r *wire.Reader, entries []Entry, sp *SavepointEntry) {
	refFound, baseFound := !sp.Special, sp.Delta == nil
	for _, e := range entries {
		if prev, ok := e.(*SavepointEntry); ok {
			if prev.ID == sp.ID {
				r.Fail("savepoint %q written twice", sp.ID)
				return
			}
			refFound = refFound || prev.ID == sp.RefID
			baseFound = baseFound || !prev.Special
		}
	}
	if !refFound {
		r.Fail("special savepoint %q refers to %q, not an earlier savepoint", sp.ID, sp.RefID)
	}
	if !baseFound {
		r.Fail("savepoint %q is a delta with no earlier base image", sp.ID)
	}
}

func readSys(r *wire.Reader, itin []byte) *SysState {
	if !r.Bool() {
		return nil
	}
	s := &SysState{Cursor: itinerary.ReadCursor(r), StepSeq: r.Int()}
	switch n := r.Uvarint(); {
	case n > 0:
		s.Itin = r.Take(n - 1)
		if itin != nil && bytes.Equal(s.Itin, itin) {
			r.Fail("savepoint itinerary written inline equals the container's")
		}
	case itin == nil:
		r.Fail("savepoint itinerary refers to a container outside one")
	default:
		s.Itin = itin
	}
	return s
}

// EncodedSize returns the serialized size of the log's entries in bytes
// outside a container, every savepoint itinerary inline — for the
// log-size experiments (F2, T-log). It is measured with the container's
// own encoder; inside a container the same log can be smaller, by the
// itineraries that refer to the container's (AppendTo's entriesAt
// measures that without a second pass).
func (l *Log) EncodedSize() (int, error) {
	scratch := wire.GetScratch()
	defer wire.PutScratch(scratch)
	buf, err := l.appendEntries((*scratch)[:0], nil)
	if err != nil {
		return 0, err
	}
	*scratch = buf
	return len(buf), nil
}
