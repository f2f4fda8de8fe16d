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
//
// A log read from a container is scanned, not decoded (ScanLog): it keeps
// the bytes its entries arrived in, each entry's offset and the name
// table's length before it. An entry is decoded (readEntry, the one
// decoder) when something reads it, and AppendTo copies the scanned bytes
// and writes only the entries appended since, through the scanned table.
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
//
// The scanned entries still in the log are copied as they arrived when
// itin is the itinerary they were scanned against: their bytes are what
// encoding them would write, because a savepoint's itinerary is written
// against that one. Otherwise every entry is decoded and written anew.
func (l *Log) AppendTo(buf, itin []byte) (out []byte, entriesAt int, err error) {
	if l == nil {
		buf = wire.AppendBool(buf, false)
		return buf, len(buf), nil
	}
	if len(l.index) > 0 && !bytes.Equal(itin, l.itin) {
		l.materialise()
	}
	buf = wire.AppendBool(buf, true)
	buf = wire.AppendUvarint(buf, uint64(l.Len()))
	entriesAt = len(buf)
	buf = append(buf, l.raw[:l.end]...)
	names := wire.ContinueNames(l.names[:l.endNames])
	defer names.Release()
	buf, err = appendEntries(buf, names, l.tail, itin)
	return buf, entriesAt, err
}

// appendEntries writes es through names.
func appendEntries(buf []byte, names *wire.Names, es []Entry, itin []byte) ([]byte, error) {
	for i, e := range es {
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
			return nil, fmt.Errorf("core: encode: log entry %d is %T", i, v)
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

// ScanLog consumes a log written by AppendTo with the same itin and
// returns it indexed, its entries not decoded; failures are reported
// through r. It refuses what decoding the entries in order would refuse,
// and a savepoint that AppendSavepoint or AppendSpecialSavepoint could not
// have appended after the entries before it (savepointSeen). The log's
// bytes, and the image, delta, parameter and savepoint itinerary values
// of the entries it decodes later, alias r's input (or itin, for a
// reference to it), which must not change.
func ScanLog(r *wire.Reader, itin []byte) *Log {
	if !r.Bool() {
		return nil
	}
	l := &Log{}
	// An entry costs at least its kind byte and two fields.
	n := r.Count(3)
	if n == 0 {
		return l
	}
	start := r.Mark()
	r.StartNames()
	index := make([]span, n)
	// A name written inline costs at least two bytes, so the table can
	// hold no more names than half the bytes left.
	var small [4]uint64
	sps := savepointSeen{ids: small[:]}
	if most := len(start)/2 + 1; most >= 64*len(small) {
		sps.ids = make([]uint64, most/64+1)
	}
	for i := range index {
		if r.Err() != nil {
			break
		}
		e := span{off: len(start) - len(r.Mark()), names: r.NameCount(), id: -1, kind: r.Byte()}
		switch e.kind {
		case kindSP:
			e.id, e.special = sps.scan(r, itin)
		case kindBOS:
			r.NameRef()
			r.Int()
		case kindOE:
			r.Int()
			r.NameRef()
			r.SkipNamedMap()
		case kindEOS:
			r.NameRef()
			r.Int()
			r.Bool()
			r.SkipNameList()
		default:
			r.Fail("log entry kind 0x%02x", e.kind)
		}
		index[i] = e
	}
	names := r.EndNamesTable()
	if r.Err() != nil {
		return l
	}
	l.index, l.raw, l.itin, l.names = index, r.Since(start), itin, names
	l.end, l.endNames = len(l.raw), len(names)
	return l
}

// savepointSeen checks the savepoints of a scan against those before
// them, in constant time each: an ID is new, a special savepoint's RefID
// names an earlier savepoint, and a delta follows an earlier
// data-carrying savepoint (so the first of those is a base image). Then
// no RefID chain loops, and every delta has a base. A name is its index in
// the part's table, so "an earlier savepoint has this ID" is one bit.
type savepointSeen struct {
	ids  []uint64 // bit id+1 set: a savepoint named by table entry id (bit 0: the empty ID)
	base bool     // a data-carrying savepoint came earlier
}

func (s *savepointSeen) has(id int) bool {
	i := id + 1
	return s.ids[i/64]&(1<<(i%64)) != 0
}

// scan consumes one savepoint entry after its kind byte, checks it and
// returns its ID's table index and whether it is special.
func (s *savepointSeen) scan(r *wire.Reader, itin []byte) (int32, bool) {
	id, idAt := r.NameRef()
	r.Int()
	if r.Bool() {
		itinerary.SkipCursor(r)
		r.Int()
		readSysItin(r, itin)
	}
	r.SkipNamedMap()
	delta := r.Bool()
	if delta {
		r.SkipNamedMap()
		r.SkipNameList()
	}
	special := r.Bool()
	ref, refAt := r.NameRef()
	r.Bool()
	switch {
	case s.has(idAt):
		r.Fail("savepoint %q written twice", id)
	case special && !s.has(refAt):
		r.Fail("special savepoint %q refers to %q, not an earlier savepoint", id, ref)
	case delta && !s.base:
		r.Fail("savepoint %q is a delta with no earlier base image", id)
	}
	i := idAt + 1
	s.ids[i/64] |= 1 << (i % 64)
	s.base = s.base || !special
	return int32(idAt), special
}

// decode reads scanned entry i.
func (l *Log) decode(i int) Entry {
	end := l.end
	if i+1 < len(l.index) {
		end = l.index[i+1].off
	}
	r := wire.NewReader(l.raw[l.index[i].off:end])
	r.ResumeNames(l.names, l.index[i].names)
	e := readEntry(r, l.itin)
	if err := r.Done(); err != nil {
		// The scan checked these bytes: only a bug gets here.
		panic(fmt.Sprintf("core: scanned log entry %d does not decode: %v", i, err))
	}
	return e
}

// readEntry reads one entry, kind byte first, through r's name table.
func readEntry(r *wire.Reader, itin []byte) Entry {
	switch kind := r.Byte(); kind {
	case kindSP:
		sp := &SavepointEntry{ID: r.Name(), Mode: LogMode(r.Int())}
		if r.Bool() {
			sp.Sys = &SysState{Cursor: itinerary.ReadCursor(r), StepSeq: r.Int()}
			sp.Sys.Itin = readSysItin(r, itin)
		}
		sp.Image = r.NamedMap()
		if r.Bool() {
			sp.Delta = &SRODelta{Changed: r.NamedMap(), Deleted: r.NameList()}
		}
		sp.Special, sp.RefID, sp.Auto = r.Bool(), r.Name(), r.Bool()
		return sp
	case kindBOS:
		return &BeginStepEntry{Node: r.Name(), Seq: r.Int()}
	case kindOE:
		return &OpEntry{Kind: OpKind(r.Int()), Op: r.Name(), Params: r.NamedMap()}
	case kindEOS:
		return &EndStepEntry{Node: r.Name(), Seq: r.Int(), HasMixed: r.Bool(), AltNodes: r.NameList()}
	default:
		r.Fail("log entry kind 0x%02x", kind)
		return nil
	}
}

// readSysItin reads a savepoint's itinerary: inline bytes, or a reference
// to the container's.
func readSysItin(r *wire.Reader, itin []byte) []byte {
	switch n := r.Uvarint(); {
	case n > 0:
		b := r.Take(n - 1)
		if itin != nil && bytes.Equal(b, itin) {
			r.Fail("savepoint itinerary written inline equals the container's")
		}
		return b
	case itin == nil:
		r.Fail("savepoint itinerary refers to a container outside one")
		return nil
	default:
		return itin
	}
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
	names := wire.NewNames()
	defer names.Release()
	buf, err := appendEntries((*scratch)[:0], names, l.entries(), nil)
	if err != nil {
		return 0, err
	}
	*scratch = buf
	return len(buf), nil
}
