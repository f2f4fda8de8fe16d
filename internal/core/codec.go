package core

import (
	"fmt"

	"repro/internal/wire"
)

// Binary encoding of the rollback log as it travels inside the agent
// container (wire.Reader's canonical format; DESIGN.md "Wire format"):
//
//	Log    present:bool [ nEntries { kind:byte entry } ]
//	SP     ID:name Mode Image:map hasDelta:bool [ Changed:map nDeleted { name } ] Special:bool RefID:name Auto:bool
//	BOS    Node:name Seq
//	OE     Kind Op:name Params:map
//	EOS    Node:name Seq HasMixed:bool nAlt { name }
//
// Integers are signed varints, maps are wire.AppendNamedMap. The entries
// write their names — and their maps' keys — through a table of their
// own (wire.Names), which starts where the entries start, so
// EncodedSize is still the entries' bytes inside a container.
const (
	kindSP  byte = 1
	kindBOS byte = 2
	kindOE  byte = 3
	kindEOS byte = 4
)

// AppendTo appends the log's encoding to buf; a nil log round-trips as
// nil. entriesAt is the offset in out where the entries begin, so
// len(out)-entriesAt is EncodedSize. It fails only on a nil entry.
func (l *Log) AppendTo(buf []byte) (out []byte, entriesAt int, err error) {
	if l == nil {
		buf = wire.AppendBool(buf, false)
		return buf, len(buf), nil
	}
	buf = wire.AppendBool(buf, true)
	buf = wire.AppendUvarint(buf, uint64(len(l.Entries)))
	entriesAt = len(buf)
	buf, err = l.appendEntries(buf)
	return buf, entriesAt, err
}

func (l *Log) appendEntries(buf []byte) ([]byte, error) {
	names := wire.NewNames()
	defer names.Release()
	for i, e := range l.Entries {
		switch v := e.(type) {
		case *SavepointEntry:
			buf = append(buf, kindSP)
			buf = names.Append(buf, v.ID)
			buf = wire.AppendVarint(buf, int64(v.Mode))
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

// ReadLog consumes a log written by AppendTo; failures are reported
// through r. Image, delta and parameter values alias r's input.
func ReadLog(r *wire.Reader) *Log {
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
			sp := &SavepointEntry{ID: r.Name(), Mode: LogMode(r.Int()), Image: r.NamedMap()}
			if r.Bool() {
				sp.Delta = &SRODelta{Changed: r.NamedMap(), Deleted: r.NameList()}
			}
			sp.Special, sp.RefID, sp.Auto = r.Bool(), r.Name(), r.Bool()
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

// EncodedSize returns the serialized size of the log's entries in bytes —
// what the log adds to an agent container — for the log-size experiments
// (F6, T-log). It is measured with the container's own encoder, so the
// two cannot disagree; a container encode reports the same number without
// a second pass (AppendTo's entriesAt).
func (l *Log) EncodedSize() (int, error) {
	scratch := wire.GetScratch()
	defer wire.PutScratch(scratch)
	buf, err := l.appendEntries((*scratch)[:0])
	if err != nil {
		return 0, err
	}
	*scratch = buf
	return len(buf), nil
}
