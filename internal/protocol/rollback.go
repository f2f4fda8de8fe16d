package protocol

import (
	"fmt"

	"repro/internal/core"
)

// Rollback routing: the pure decision half of the basic (Figure 4) and
// optimized (Figure 5) rollback mechanisms. The node driver owns the
// transactional execution — popping the log inside a compensation
// transaction, running compensating operations, shipping containers —
// but every *decision* (where the next compensation transaction runs,
// whether the agent travels, which entries ship as an RCE list, when
// the rollback is finished) is computed here, free of I/O, so the
// permutation and fuzz suites can exercise it directly.

// PopToTarget pops trailing savepoint entries that are not the
// rollback target; it reports whether the target savepoint is (now)
// the final log entry, and how many entries were popped. Non-target
// savepoints above the target belong to execution that is being rolled
// back and are discarded, generalizing Figure 4b's single "if (last
// log entry is savepoint) LOG.pop()" to stacked savepoints. It decodes
// no entry.
func PopToTarget(l *core.Log, spID string) (reached bool, popped int) {
	for {
		id, ok := l.SavepointAt(l.Len() - 1)
		if !ok {
			return false, popped
		}
		if id == spID {
			return true, popped
		}
		l.DropLast()
		popped++
	}
}

// PeekEOS returns the most recent end-of-step entry, skipping trailing
// savepoints; it decodes that entry alone.
func PeekEOS(l *core.Log) (*core.EndStepEntry, bool) {
	for i := l.Len() - 1; i >= 0; i-- {
		if _, ok := l.SavepointAt(i); !ok {
			eos, ok := l.Entry(i).(*core.EndStepEntry)
			return eos, ok
		}
	}
	return nil, false
}

// CompensationDest picks the node that runs the next compensation
// transaction for the step behind eos. Basic algorithm (Figure 4b):
// always the node where the step executed. Optimized (Figure 5a): the
// agent only travels when the step logged a mixed compensation entry —
// otherwise it stays at self and the resource compensation entries are
// shipped instead.
func CompensationDest(eos *core.EndStepEntry, optimized bool, self string) string {
	if optimized && !eos.HasMixed {
		return self
	}
	return eos.Node
}

// CompensateLocally reports whether the step's compensating operations
// run entirely inside the local transaction: the basic algorithm, a
// step with mixed entries (the agent was brought to the resource
// node), or a step that executed on this very node.
func CompensateLocally(eos *core.EndStepEntry, optimized bool, self string) bool {
	return !optimized || eos.HasMixed || eos.Node == self
}

// SplitCompOps groups a step's compensation entries for the Figure-5b
// split: agent compensation entries run locally, resource compensation
// entries ship to the resource node. A mixed entry in a step flagged
// non-mixed is a protocol violation.
func SplitCompOps(ops []*core.OpEntry) (aces, rces []*core.OpEntry, err error) {
	for _, op := range ops {
		switch op.Kind {
		case core.OpAgent:
			aces = append(aces, op)
		case core.OpResource:
			rces = append(rces, op)
		default:
			return nil, nil, fmt.Errorf("protocol: mixed entry in step flagged non-mixed")
		}
	}
	return aces, rces, nil
}

// PopLastStep pops one executed step off the log tail — the EOS entry,
// then the operation entries until (and including) the BOS — and
// returns the end-of-step entry plus the operation entries in reverse
// execution order, the order compensations must run in (§4.2).
func PopLastStep(l *core.Log) (*core.EndStepEntry, []*core.OpEntry, error) {
	last, err := l.Pop()
	if err != nil {
		return nil, nil, fmt.Errorf("protocol: compensate: %w", err)
	}
	eos, ok := last.(*core.EndStepEntry)
	if !ok {
		return nil, nil, fmt.Errorf("protocol: compensate: expected end-of-step entry, got %s", core.EntryName(last))
	}
	var ops []*core.OpEntry
	for {
		e, err := l.Pop()
		if err != nil {
			return nil, nil, fmt.Errorf("protocol: compensate: truncated step in log: %w", err)
		}
		if _, ok := e.(*core.BeginStepEntry); ok {
			return eos, ops, nil
		}
		op, ok := e.(*core.OpEntry)
		if !ok {
			return nil, nil, fmt.Errorf("protocol: compensate: unexpected %s inside step", core.EntryName(e))
		}
		ops = append(ops, op)
	}
}

// PickDestination returns the node to send an agent to, falling back
// to alternative nodes after repeated failed attempts (the
// fault-tolerant variant of [11] referenced in §4.3's discussion).
func PickDestination(primary string, alts []string, attempt int) string {
	if attempt <= 3 || len(alts) == 0 {
		return primary
	}
	return alts[(attempt-4)%len(alts)]
}
