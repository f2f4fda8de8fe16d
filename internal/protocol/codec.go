package protocol

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/wire"
)

// Hand-rolled binary codec for the high-volume protocol messages. Every
// payload is wire.BinaryVersion, a type byte from the table below, then
// the struct fields in declaration order via the wire varint helpers.
// A message type has exactly one encoding: the types below travel only
// in this format (see DESIGN.md "Wire format").
//
// Type bytes (protocol block 0x01..0x0f; never renumber):
const (
	// TypePrepare carries PrepareMsg (kind q.prepare).
	TypePrepare byte = 0x01
	// TypeAck carries AckMsg (every *.ack kind and agent.done.ack).
	TypeAck byte = 0x02
	// TypeCtl carries CtlMsg (q.commit, q.abort, rce.commit, rce.abort,
	// txn.query).
	TypeCtl byte = 0x03
	// TypeStatus carries StatusMsg (txn.status).
	TypeStatus byte = 0x04
	// TypeRCEExec carries RCEExecMsg (rce.exec).
	TypeRCEExec byte = 0x05
	// TypeCtlBatch carries CtlBatchMsg (ctl.batch).
	TypeCtlBatch byte = 0x06
	// TypeQueryBatch carries QueryBatchMsg (query.batch).
	TypeQueryBatch byte = 0x07
)

// Decode decodes one inbound payload into v, the dispatcher's single
// entry point. Every message type has a binary codec and decodes only
// through it: anything else on the wire, gob included, is wire.ErrCorrupt.
func Decode(data []byte, v any) error {
	bm, ok := v.(wire.BinaryMessage)
	if !ok {
		return fmt.Errorf("protocol: %T has no wire codec", v)
	}
	return bm.DecodeFrom(data)
}

// --- PrepareMsg -------------------------------------------------------

// AppendTo implements wire.BinaryMessage.
func (m *PrepareMsg) AppendTo(buf []byte) []byte {
	buf = slices.Grow(buf, 2+len(m.TxnID)+len(m.EntryID)+len(m.Data)+16)
	buf = append(buf, wire.BinaryVersion, TypePrepare)
	buf = wire.AppendString(buf, m.TxnID)
	buf = wire.AppendString(buf, m.EntryID)
	return wire.AppendBytes(buf, m.Data)
}

// DecodeFrom implements wire.BinaryMessage. Data aliases buf.
func (m *PrepareMsg) DecodeFrom(buf []byte) error {
	b, err := wire.Body(buf, TypePrepare)
	if err != nil {
		return err
	}
	r := wire.NewReader(b)
	m.TxnID, m.EntryID, m.Data = r.String(), r.String(), r.Bytes()
	return r.Done()
}

// --- AckMsg -----------------------------------------------------------

// AppendTo implements wire.BinaryMessage.
func (m *AckMsg) AppendTo(buf []byte) []byte {
	buf = slices.Grow(buf, 2+len(m.TxnID)+len(m.Err)+16)
	buf = append(buf, wire.BinaryVersion, TypeAck)
	buf = wire.AppendString(buf, m.TxnID)
	buf = wire.AppendBool(buf, m.OK)
	return wire.AppendString(buf, m.Err)
}

// DecodeFrom implements wire.BinaryMessage.
func (m *AckMsg) DecodeFrom(buf []byte) error {
	b, err := wire.Body(buf, TypeAck)
	if err != nil {
		return err
	}
	r := wire.NewReader(b)
	m.TxnID, m.OK, m.Err = r.String(), r.Bool(), r.String()
	return r.Done()
}

// --- CtlMsg -----------------------------------------------------------

// AppendTo implements wire.BinaryMessage.
func (m *CtlMsg) AppendTo(buf []byte) []byte {
	buf = slices.Grow(buf, 2+len(m.TxnID)+8)
	buf = append(buf, wire.BinaryVersion, TypeCtl)
	return wire.AppendString(buf, m.TxnID)
}

// DecodeFrom implements wire.BinaryMessage.
func (m *CtlMsg) DecodeFrom(buf []byte) error {
	b, err := wire.Body(buf, TypeCtl)
	if err != nil {
		return err
	}
	r := wire.NewReader(b)
	m.TxnID = r.String()
	return r.Done()
}

// --- StatusMsg --------------------------------------------------------

// AppendTo implements wire.BinaryMessage.
func (m *StatusMsg) AppendTo(buf []byte) []byte {
	buf = slices.Grow(buf, 2+len(m.TxnID)+8)
	buf = append(buf, wire.BinaryVersion, TypeStatus)
	buf = wire.AppendString(buf, m.TxnID)
	return wire.AppendBool(buf, m.Committed)
}

// DecodeFrom implements wire.BinaryMessage.
func (m *StatusMsg) DecodeFrom(buf []byte) error {
	b, err := wire.Body(buf, TypeStatus)
	if err != nil {
		return err
	}
	r := wire.NewReader(b)
	m.TxnID, m.Committed = r.String(), r.Bool()
	return r.Done()
}

// --- RCEExecMsg -------------------------------------------------------

// AppendTo implements wire.BinaryMessage. Params travel as in the agent
// container's log (wire.AppendBytesMap: sorted keys, nil and empty kept
// distinct), so an encoding is deterministic for identical messages.
func (m *RCEExecMsg) AppendTo(buf []byte) []byte {
	buf = slices.Grow(buf, 2+len(m.TxnID)+16+32*len(m.Ops))
	buf = append(buf, wire.BinaryVersion, TypeRCEExec)
	buf = wire.AppendString(buf, m.TxnID)
	buf = wire.AppendUvarint(buf, uint64(len(m.Ops)))
	for _, op := range m.Ops {
		if op == nil {
			// gob flattens a nil pointer to the zero value; match it.
			op = &core.OpEntry{}
		}
		buf = wire.AppendUvarint(buf, uint64(op.Kind))
		buf = wire.AppendString(buf, op.Op)
		buf = wire.AppendBytesMap(buf, op.Params)
	}
	return buf
}

// DecodeFrom implements wire.BinaryMessage. Params values alias buf.
func (m *RCEExecMsg) DecodeFrom(buf []byte) error {
	b, err := wire.Body(buf, TypeRCEExec)
	if err != nil {
		return err
	}
	r := wire.NewReader(b)
	m.TxnID = r.String()
	m.Ops = nil
	// An op costs at least its kind, name length and parameter count.
	if n := r.Count(3); n > 0 {
		m.Ops = make([]*core.OpEntry, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			m.Ops = append(m.Ops, &core.OpEntry{Kind: core.OpKind(r.Uvarint()), Op: r.String(), Params: r.BytesMap()})
		}
	}
	return r.Done()
}

// --- CtlBatchMsg ------------------------------------------------------

// AppendTo implements wire.BinaryMessage.
func (m *CtlBatchMsg) AppendTo(buf []byte) []byte {
	buf = slices.Grow(buf, 2+8+len(m.Items)*24)
	buf = append(buf, wire.BinaryVersion, TypeCtlBatch)
	buf = wire.AppendUvarint(buf, uint64(len(m.Items)))
	for _, it := range m.Items {
		buf = wire.AppendString(buf, it.TxnID)
		buf = wire.AppendBool(buf, it.RCE)
		buf = wire.AppendBool(buf, it.Commit)
	}
	return buf
}

// DecodeFrom implements wire.BinaryMessage.
func (m *CtlBatchMsg) DecodeFrom(buf []byte) error {
	b, err := wire.Body(buf, TypeCtlBatch)
	if err != nil {
		return err
	}
	r := wire.NewReader(b)
	m.Items = nil
	// An item costs at least its ID length and two bools.
	if n := r.Count(3); n > 0 {
		m.Items = make([]CtlBatchItem, n)
		for i := range m.Items {
			m.Items[i] = CtlBatchItem{TxnID: r.String(), RCE: r.Bool(), Commit: r.Bool()}
		}
	}
	return r.Done()
}

// --- QueryBatchMsg ----------------------------------------------------

// AppendTo implements wire.BinaryMessage.
func (m *QueryBatchMsg) AppendTo(buf []byte) []byte {
	buf = slices.Grow(buf, 2+8+len(m.TxnIDs)*20)
	buf = append(buf, wire.BinaryVersion, TypeQueryBatch)
	buf = wire.AppendUvarint(buf, uint64(len(m.TxnIDs)))
	for _, id := range m.TxnIDs {
		buf = wire.AppendString(buf, id)
	}
	return buf
}

// DecodeFrom implements wire.BinaryMessage.
func (m *QueryBatchMsg) DecodeFrom(buf []byte) error {
	b, err := wire.Body(buf, TypeQueryBatch)
	if err != nil {
		return err
	}
	r := wire.NewReader(b)
	m.TxnIDs = r.Strings()
	return r.Done()
}
