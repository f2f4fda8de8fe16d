package txn

import (
	"fmt"

	"repro/internal/stable"
	"repro/internal/wire"
)

// The durable record of a prepared branch (txn/branch/<id>) is its redo
// batch in wire.Reader's canonical format (DESIGN.md "Wire format"):
//
//	0x90 0x38 | nOps { Key put:bool [Value] }
//	0x90 0x39 | Decider | nOps { Key put:bool [Value] }
//
// 0x39 is a delegated branch (Tx.PrepareDelegated): the source of a
// queue hand-off, whose outcome the named decider holds. A put's value
// may be empty; a delete has none. The gob record this replaced was last
// read by commit 60b3006 (node.New refuses it).
//
// Binary type bytes of the txn block 0x38..0x3f (registry in
// wire/binary.go); never reuse a value.
const (
	typeBranch          = 0x38
	typeDelegatedBranch = 0x39
)

// appendBranch appends the record of a branch whose redo batch is ops,
// decided by decider ("" for its coordinator).
func appendBranch(buf []byte, decider string, ops []stable.Op) []byte {
	if decider == "" {
		buf = append(buf, wire.BinaryVersion, typeBranch)
	} else {
		buf = wire.AppendString(append(buf, wire.BinaryVersion, typeDelegatedBranch), decider)
	}
	buf = wire.AppendUvarint(buf, uint64(len(ops)))
	for _, op := range ops {
		buf = wire.AppendString(buf, op.Key)
		buf = wire.AppendBool(buf, op.Value != nil)
		if op.Value != nil {
			buf = wire.AppendBytes(buf, op.Value)
		}
	}
	return buf
}

// parseBranch reads a branch record's decider and redo batch; anything
// but exactly one well-formed record is wire.ErrCorrupt. Values alias
// raw.
func parseBranch(raw []byte) (decider string, ops []stable.Op, err error) {
	typ, b, err := wire.SplitBinary(raw)
	if err != nil {
		return "", nil, err
	}
	if typ != typeBranch && typ != typeDelegatedBranch {
		return "", nil, fmt.Errorf("%w: payload type 0x%02x, want a branch record", wire.ErrCorrupt, typ)
	}
	r := wire.NewReader(b)
	if typ == typeDelegatedBranch {
		if decider = r.String(); decider == "" && r.Err() == nil {
			r.Fail("delegated branch without a decider")
		}
	}
	ops = make([]stable.Op, r.Count(2)) // a key length byte and the put flag
	for i := 0; i < len(ops) && r.Err() == nil; i++ {
		ops[i].Key = r.String()
		if r.Bool() {
			if ops[i].Value = r.Bytes(); ops[i].Value == nil {
				ops[i].Value = []byte{} // a put of nothing stays a put
			}
		}
	}
	return decider, ops, r.Done()
}
