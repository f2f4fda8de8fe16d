package core

import (
	"fmt"

	"repro/internal/wire"
)

// Binary encoding of the rollback log as it travels inside the agent
// container (wire.Reader's canonical format; DESIGN.md "Wire format"):
//
//	Log    present:bool [ nEntries { kind:byte entry } ]
//	SP     ID Mode Image:map hasDelta:bool [ Changed:map nDeleted { string } ] Special:bool RefID Auto:bool
//	BOS    Node Seq
//	OE     Kind Op Params:map
//	EOS    Node Seq HasMixed:bool nAlt { string }
//
// Integers are signed varints, maps are wire.AppendBytesMap.
const (
	kindSP  byte = 1
	kindBOS byte = 2
	kindOE  byte = 3
	kindEOS byte = 4
)

// AppendTo appends the log's encoding to buf; a nil log round-trips as
// nil. It fails only on a nil entry.
func (l *Log) AppendTo(buf []byte) ([]byte, error) {
	if l == nil {
		return wire.AppendBool(buf, false), nil
	}
	buf = wire.AppendBool(buf, true)
	buf = wire.AppendUvarint(buf, uint64(len(l.Entries)))
	return l.appendEntries(buf)
}

func (l *Log) appendEntries(buf []byte) ([]byte, error) {
	for i, e := range l.Entries {
		switch v := e.(type) {
		case *SavepointEntry:
			buf = append(buf, kindSP)
			buf = wire.AppendString(buf, v.ID)
			buf = wire.AppendVarint(buf, int64(v.Mode))
			buf = wire.AppendBytesMap(buf, v.Image)
			buf = wire.AppendBool(buf, v.Delta != nil)
			if v.Delta != nil {
				buf = wire.AppendBytesMap(buf, v.Delta.Changed)
				buf = wire.AppendStrings(buf, v.Delta.Deleted)
			}
			buf = wire.AppendBool(buf, v.Special)
			buf = wire.AppendString(buf, v.RefID)
			buf = wire.AppendBool(buf, v.Auto)
		case *BeginStepEntry:
			buf = append(buf, kindBOS)
			buf = wire.AppendString(buf, v.Node)
			buf = wire.AppendVarint(buf, int64(v.Seq))
		case *OpEntry:
			buf = append(buf, kindOE)
			buf = wire.AppendVarint(buf, int64(v.Kind))
			buf = wire.AppendString(buf, v.Op)
			buf = wire.AppendBytesMap(buf, v.Params)
		case *EndStepEntry:
			buf = append(buf, kindEOS)
			buf = wire.AppendString(buf, v.Node)
			buf = wire.AppendVarint(buf, int64(v.Seq))
			buf = wire.AppendBool(buf, v.HasMixed)
			buf = wire.AppendStrings(buf, v.AltNodes)
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
	l.Entries = make([]Entry, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		switch kind := r.Byte(); kind {
		case kindSP:
			sp := &SavepointEntry{ID: r.String(), Mode: LogMode(r.Int()), Image: r.BytesMap()}
			if r.Bool() {
				sp.Delta = &SRODelta{Changed: r.BytesMap(), Deleted: r.Strings()}
			}
			sp.Special, sp.RefID, sp.Auto = r.Bool(), r.String(), r.Bool()
			l.Entries = append(l.Entries, sp)
		case kindBOS:
			l.Entries = append(l.Entries, &BeginStepEntry{Node: r.String(), Seq: r.Int()})
		case kindOE:
			l.Entries = append(l.Entries, &OpEntry{Kind: OpKind(r.Int()), Op: r.String(), Params: r.BytesMap()})
		case kindEOS:
			l.Entries = append(l.Entries, &EndStepEntry{Node: r.String(), Seq: r.Int(), HasMixed: r.Bool(), AltNodes: r.Strings()})
		default:
			r.Fail("log entry kind 0x%02x", kind)
		}
	}
	return l
}

// EncodedSize returns the serialized size of the log's entries in bytes —
// what the log adds to an agent container — for the log-size experiments
// (F6, T-log) and the per-step log metrics. It is measured with the
// container's own encoder, so the two cannot disagree; the pooled scratch
// keeps the once-per-step sizing from allocating a log-sized slice.
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
