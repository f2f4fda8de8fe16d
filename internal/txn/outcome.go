package txn

import (
	"fmt"
	"strings"

	"repro/internal/stable"
	"repro/internal/wire"
)

// OutcomePrefix keys a decider's records (DESIGN.md §5): one per
// delegated hand-off it has decided, txn/outcome/<txn>, where <txn> is
// the source's transaction ID. The record is
//
//	0x90 0x3a | Commit:bool | Mark:uvarint
//
// Commit=false is a fence: the decider answered abort, and a prepare
// arriving later for the same ID gets that answer back. Mark is the
// highest watermark the decider had seen from the source when it wrote
// the record; recovery rebuilds the per-source mark from it.
const OutcomePrefix = "txn/outcome/"

// typeOutcome is the outcome record's type byte (txn block 0x38..0x3f).
const typeOutcome = 0x3a

// Outcome is one decider record.
type Outcome struct {
	TxnID  string
	Commit bool
	Mark   uint64
}

// OutcomeOp returns the op writing the decider's record for id.
func OutcomeOp(id string, commit bool, mark uint64) stable.Op {
	return stable.Put(OutcomePrefix+id, appendOutcome(nil, commit, mark))
}

// DropOutcomeOp returns the op collecting the decider's record for id.
func DropOutcomeOp(id string) stable.Op { return stable.Del(OutcomePrefix + id) }

func appendOutcome(buf []byte, commit bool, mark uint64) []byte {
	buf = wire.AppendBool(append(buf, wire.BinaryVersion, typeOutcome), commit)
	return wire.AppendUvarint(buf, mark)
}

// parseOutcome reads one record; anything else is wire.ErrCorrupt.
func parseOutcome(raw []byte) (commit bool, mark uint64, err error) {
	b, err := wire.Body(raw, typeOutcome)
	if err != nil {
		return false, 0, err
	}
	r := wire.NewReader(b)
	commit, mark = r.Bool(), r.Uvarint()
	return commit, mark, r.Done()
}

// Outcomes lists the decider records in the store, for recovery. A
// record that does not parse is an error naming its key: a decider that
// cannot read its verdicts must not answer in-doubt sources.
func (m *Manager) Outcomes() ([]Outcome, error) {
	keys, err := m.store.Keys(OutcomePrefix)
	if err != nil {
		return nil, err
	}
	out := make([]Outcome, 0, len(keys))
	for _, k := range keys {
		raw, ok, err := m.store.Get(k)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		commit, mark, err := parseOutcome(raw)
		if err != nil {
			return nil, fmt.Errorf("txn: corrupt record %q: %w", k, err)
		}
		out = append(out, Outcome{TxnID: strings.TrimPrefix(k, OutcomePrefix), Commit: commit, Mark: mark})
	}
	return out, nil
}
