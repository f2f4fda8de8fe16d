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
// entry point. The codec follows from v's type: a type with a binary
// codec decodes only through it (anything else, gob included, is
// wire.ErrCorrupt); the remaining types are gob.
func Decode(data []byte, v any) error {
	if bm, ok := v.(wire.BinaryMessage); ok {
		return bm.DecodeFrom(data)
	}
	return wire.Decode(data, v)
}

// body validates the payload header against the expected type byte.
func body(data []byte, want byte) ([]byte, error) {
	typ, b, err := wire.SplitBinary(data)
	if err != nil {
		return nil, err
	}
	if typ != want {
		return nil, fmt.Errorf("%w: payload type 0x%02x, want 0x%02x", wire.ErrCorrupt, typ, want)
	}
	return b, nil
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
	b, err := body(buf, TypePrepare)
	if err != nil {
		return err
	}
	if m.TxnID, b, err = wire.ReadString(b); err != nil {
		return err
	}
	if m.EntryID, b, err = wire.ReadString(b); err != nil {
		return err
	}
	if m.Data, b, err = wire.ReadBytes(b); err != nil {
		return err
	}
	return wire.Done(b)
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
	b, err := body(buf, TypeAck)
	if err != nil {
		return err
	}
	if m.TxnID, b, err = wire.ReadString(b); err != nil {
		return err
	}
	if m.OK, b, err = wire.ReadBool(b); err != nil {
		return err
	}
	if m.Err, b, err = wire.ReadString(b); err != nil {
		return err
	}
	return wire.Done(b)
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
	b, err := body(buf, TypeCtl)
	if err != nil {
		return err
	}
	if m.TxnID, b, err = wire.ReadString(b); err != nil {
		return err
	}
	return wire.Done(b)
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
	b, err := body(buf, TypeStatus)
	if err != nil {
		return err
	}
	if m.TxnID, b, err = wire.ReadString(b); err != nil {
		return err
	}
	if m.Committed, b, err = wire.ReadBool(b); err != nil {
		return err
	}
	return wire.Done(b)
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

// maxInlineOps bounds the declared op count honoured before the decoder
// checks it against the remaining bytes, so a corrupt header cannot
// force a giant pre-allocation.
const maxInlineOps = 1 << 20

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

// DecodeFrom implements wire.BinaryMessage. TxnIDs alias buf.
func (m *CtlBatchMsg) DecodeFrom(buf []byte) error {
	b, err := body(buf, TypeCtlBatch)
	if err != nil {
		return err
	}
	n, b, err := wire.ReadUvarint(b)
	if err != nil {
		return err
	}
	// Every item costs at least 3 bytes (length prefix + two bools);
	// reject counts the remaining buffer cannot possibly hold.
	if n > maxInlineOps || n > uint64(len(b)) {
		return fmt.Errorf("%w: %d ctl-batch items exceed buffer", wire.ErrCorrupt, n)
	}
	m.Items = nil
	if n > 0 {
		m.Items = make([]CtlBatchItem, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		var it CtlBatchItem
		if it.TxnID, b, err = wire.ReadString(b); err != nil {
			return err
		}
		if it.RCE, b, err = wire.ReadBool(b); err != nil {
			return err
		}
		if it.Commit, b, err = wire.ReadBool(b); err != nil {
			return err
		}
		m.Items = append(m.Items, it)
	}
	return wire.Done(b)
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

// DecodeFrom implements wire.BinaryMessage. TxnIDs alias buf.
func (m *QueryBatchMsg) DecodeFrom(buf []byte) error {
	b, err := body(buf, TypeQueryBatch)
	if err != nil {
		return err
	}
	n, b, err := wire.ReadUvarint(b)
	if err != nil {
		return err
	}
	if n > maxInlineOps || n > uint64(len(b)) {
		return fmt.Errorf("%w: %d query-batch entries exceed buffer", wire.ErrCorrupt, n)
	}
	m.TxnIDs = nil
	if n > 0 {
		m.TxnIDs = make([]string, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		var id string
		if id, b, err = wire.ReadString(b); err != nil {
			return err
		}
		m.TxnIDs = append(m.TxnIDs, id)
	}
	return wire.Done(b)
}

// DecodeFrom implements wire.BinaryMessage. Params values alias buf.
func (m *RCEExecMsg) DecodeFrom(buf []byte) error {
	b, err := body(buf, TypeRCEExec)
	if err != nil {
		return err
	}
	if m.TxnID, b, err = wire.ReadString(b); err != nil {
		return err
	}
	nOps, b, err := wire.ReadUvarint(b)
	if err != nil {
		return err
	}
	// Every op costs at least 3 bytes on the wire; reject counts the
	// remaining buffer cannot possibly hold.
	if nOps > maxInlineOps || nOps > uint64(len(b)) {
		return fmt.Errorf("%w: %d ops exceed buffer", wire.ErrCorrupt, nOps)
	}
	m.Ops = nil
	if nOps > 0 {
		m.Ops = make([]*core.OpEntry, 0, nOps)
	}
	for i := uint64(0); i < nOps; i++ {
		op := &core.OpEntry{}
		kind, rest, err := wire.ReadUvarint(b)
		if err != nil {
			return err
		}
		b = rest
		op.Kind = core.OpKind(kind)
		if op.Op, b, err = wire.ReadString(b); err != nil {
			return err
		}
		nParams, rest, err := wire.ReadUvarint(b)
		if err != nil {
			return err
		}
		b = rest
		if nParams > 0 {
			nParams-- // shifted count: 0 is nil, n+1 is n entries
			if nParams > uint64(len(b)) {
				return fmt.Errorf("%w: %d params exceed buffer", wire.ErrCorrupt, nParams)
			}
			op.Params = make(core.Params, nParams)
			for j := uint64(0); j < nParams; j++ {
				var k string
				var v []byte
				if k, b, err = wire.ReadString(b); err != nil {
					return err
				}
				if v, b, err = wire.ReadBytes(b); err != nil {
					return err
				}
				op.Params[k] = v
			}
		}
		m.Ops = append(m.Ops, op)
	}
	return wire.Done(b)
}
