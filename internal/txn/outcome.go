package txn

import (
	"fmt"
	"strings"

	"repro/internal/stable"
	"repro/internal/wire"
)

// OutcomePrefix keys a decider's records (DESIGN.md §5): one per
// distributed transaction it has decided, txn/outcome/<txn>, where <txn>
// is the source's transaction ID. The record is
//
//	0x90 0x3a | Commit:bool | Mark:uvarint [ | nParties { Party } ]
//
// Commit=false is a fence: the decider answered abort, and a prepare
// arriving later for the same ID gets that answer back. Mark is the
// highest watermark the decider had seen from the source when it wrote
// the record; recovery rebuilds the per-source mark from it. Parties are
// the RCE parties a commit was sent to and that had not acknowledged it
// when the record was written; the list is left out when there are none,
// so a record without parties reads as it did before parties existed.
const OutcomePrefix = "txn/outcome/"

// typeOutcome is the outcome record's type byte (txn block 0x38..0x3f).
const typeOutcome = 0x3a

// Outcome is one decider record.
type Outcome struct {
	TxnID   string
	Commit  bool
	Mark    uint64
	Parties []string
}

// OutcomeOp returns the op writing the decider's record for id.
func OutcomeOp(id string, commit bool, mark uint64, parties []string) stable.Op {
	return stable.Put(OutcomePrefix+id, appendOutcome(nil, commit, mark, parties))
}

// DropOutcomeOp returns the op collecting the decider's record for id.
func DropOutcomeOp(id string) stable.Op { return stable.Del(OutcomePrefix + id) }

func appendOutcome(buf []byte, commit bool, mark uint64, parties []string) []byte {
	buf = wire.AppendBool(append(buf, wire.BinaryVersion, typeOutcome), commit)
	buf = wire.AppendUvarint(buf, mark)
	if len(parties) == 0 {
		return buf
	}
	return wire.AppendStrings(buf, parties)
}

// parseOutcome reads one record; anything else is wire.ErrCorrupt,
// including an empty party list, which the writer leaves out.
func parseOutcome(raw []byte) (o Outcome, err error) {
	b, err := wire.Body(raw, typeOutcome)
	if err != nil {
		return o, err
	}
	r := wire.NewReader(b)
	o.Commit, o.Mark = r.Bool(), r.Uvarint()
	if r.Err() != nil {
		return o, r.Done()
	}
	if rest := r.Rest(); len(rest) > 0 {
		r = wire.NewReader(rest)
		if o.Parties = r.Strings(); o.Parties == nil && r.Err() == nil {
			r.Fail("empty party list")
		}
	}
	return o, r.Done()
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
		o, err := parseOutcome(raw)
		if err != nil {
			return nil, fmt.Errorf("txn: corrupt record %q: %w", k, err)
		}
		o.TxnID = strings.TrimPrefix(k, OutcomePrefix)
		out = append(out, o)
	}
	return out, nil
}
