package txn

import (
	"repro/internal/stable"
	"repro/internal/wire"
)

// The durable record of a prepared branch (txn/branch/<id>) is its redo
// batch in wire.Reader's canonical format (DESIGN.md "Wire format"):
//
//	0x90 0x38 | nOps { Key put:bool [Value] }
//
// A put's value may be empty; a delete has none. The gob record this
// replaced was last read by commit 60b3006 (node.New refuses it).
//
// Binary type bytes of the txn block 0x38..0x3f (registry in
// wire/binary.go); never reuse a value.
const typeBranch = 0x38

// appendBranch appends the record of a branch whose redo batch is ops.
func appendBranch(buf []byte, ops []stable.Op) []byte {
	buf = append(buf, wire.BinaryVersion, typeBranch)
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

// parseBranch reads a branch record's redo batch; anything but exactly
// one well-formed record is wire.ErrCorrupt. Values alias raw.
func parseBranch(raw []byte) ([]stable.Op, error) {
	b, err := wire.Body(raw, typeBranch)
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(b)
	ops := make([]stable.Op, r.Count(2)) // a key length byte and the put flag
	for i := 0; i < len(ops) && r.Err() == nil; i++ {
		ops[i].Key = r.String()
		if r.Bool() {
			if ops[i].Value = r.Bytes(); ops[i].Value == nil {
				ops[i].Value = []byte{} // a put of nothing stays a put
			}
		}
	}
	return ops, r.Done()
}
