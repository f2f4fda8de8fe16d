package txn

import (
	"repro/internal/stable"
	"repro/internal/wire"
)

// The durable record of a prepared branch (txn/branch/<id>) is its redo
// batch in wire.Reader's canonical format (DESIGN.md "Wire format"),
// with the node that decides the branch:
//
//	0x90 0x39 | Decider | nOps { Key put:bool [Value] }
//
// Every branch is delegated (Tx.PrepareDelegated): the source of a
// hand-off, or an RCE party of a compensation, and the named decider
// holds its outcome. A put's value may be empty; a delete has none. The
// gob record this replaced was last read by commit 60b3006, and the
// coordinator-decided record 0x38 by commit a03745a; both are
// wire.ErrCorrupt.
//
// Binary type bytes of the txn block 0x38..0x3f (registry in
// wire/binary.go); never reuse a value. 0x38 is retired.
const (
	typeRetiredBranch   = 0x38
	typeDelegatedBranch = 0x39
)

// appendBranch appends the record of a branch whose redo batch is ops,
// decided by decider.
func appendBranch(buf []byte, decider string, ops []stable.Op) []byte {
	buf = wire.AppendString(append(buf, wire.BinaryVersion, typeDelegatedBranch), decider)
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
	b, err := wire.Body(raw, typeDelegatedBranch)
	if err != nil {
		return "", nil, err
	}
	r := wire.NewReader(b)
	if decider = r.String(); decider == "" && r.Err() == nil {
		r.Fail("branch without a decider")
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
