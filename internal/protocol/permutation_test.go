package protocol_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/protocol"
)

// TestRCEAbortPermutations is the pure re-expression of the PR-4 chaos
// catch (TestRCEAbortOvertakesPrepare): for every interleaving of
// abort verdicts, exec requests and execution completions — no cluster,
// no store, no clock — an abort that lands during the branch lifetime
// must never leave a prepared, lock-holding branch behind, and a
// prepared branch that escapes (abort delivered before the execution
// even started) must carry the stale-branch query timer that resolves
// it. The driver contract is modeled explicitly: an execution
// completion can only be delivered after the machine emitted the
// matching ExecBranch effect, and parked transactions are tracked
// through the Commit/AbortBranch effects.
func TestRCEAbortPermutations(t *testing.T) {
	// Event alphabets: e = exec request, p = execution completes
	// (prepared OK), a = abort verdict (coordinator's presumed abort).
	alphabets := [][]byte{
		{'e', 'p', 'a'},
		{'e', 'p', 'a', 'a'},      // duplicated abort (retry pressure)
		{'e', 'e', 'p', 'a'},      // duplicated exec request
		{'e', 'p', 'e', 'p', 'a'}, // re-execution after settle
	}
	for _, alphabet := range alphabets {
		for _, seq := range permutations(alphabet) {
			runRCEPermutation(t, seq)
		}
	}
}

// permutations returns all distinct orderings of the symbol multiset.
func permutations(sym []byte) [][]byte {
	if len(sym) <= 1 {
		return [][]byte{append([]byte(nil), sym...)}
	}
	var out [][]byte
	seen := map[byte]bool{}
	for i, s := range sym {
		if seen[s] {
			continue
		}
		seen[s] = true
		rest := make([]byte, 0, len(sym)-1)
		rest = append(rest, sym[:i]...)
		rest = append(rest, sym[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]byte{s}, p...))
		}
	}
	return out
}

func runRCEPermutation(t *testing.T, seq []byte) {
	t.Helper()
	name := string(seq)
	m := newReady("p")
	const txn = "co#1"
	ops := []*core.OpEntry{{Kind: core.OpResource, Op: "c"}}

	outstanding := 0         // ExecBranch effects not yet completed
	parked := false          // a prepared branch transaction is parked (driver side)
	timerArmed := false      // pstale|co armed (nothing fires it here, so it stays armed)
	abortSeen := false       // an abort verdict was delivered...
	abortDuringLife := false // ...while the machine held branch state

	apply := func(effs []protocol.Effect) {
		for _, eff := range effs {
			switch e := eff.(type) {
			case protocol.ExecBranch:
				outstanding++
			case protocol.CommitBranch:
				t.Fatalf("%s: CommitBranch emitted without any commit verdict", name)
			case protocol.AbortBranch:
				parked = false
			case protocol.ArmTimer:
				if e.ID == "pstale|co" {
					timerArmed = true
				}
			}
		}
	}

	for _, s := range seq {
		switch s {
		case 'e':
			apply(m.Step(protocol.RCEExecReceived{TxnID: txn, From: "co", Ops: ops}))
		case 'p':
			if outstanding == 0 {
				continue // driver contract: no completion without an execution
			}
			outstanding--
			// The driver parks the prepared transaction before feeding
			// the completion; the machine then decides its fate.
			parked = true
			apply(m.Step(protocol.BranchPrepared{TxnID: txn, OK: true}))
		case 'a':
			st := m.Stats()
			if st.BranchesExec+st.BranchesPrepared > 0 {
				abortDuringLife = true
			}
			abortSeen = true
			apply(m.Step(protocol.StatusReceived{TxnID: txn, Committed: false}))
		}
	}
	// Drain outstanding executions (they always complete eventually).
	for outstanding > 0 {
		outstanding--
		parked = true
		apply(m.Step(protocol.BranchPrepared{TxnID: txn, OK: true}))
	}

	st := m.Stats()
	if st.BranchesExec != 0 {
		t.Fatalf("%s: execution state lingers: %+v", name, st)
	}
	if abortDuringLife {
		// The heart of the PR-4 fix: an abort that overlapped the branch
		// lifetime must leave nothing prepared and nothing parked...
		if parked && !timerArmed {
			t.Fatalf("%s: zombie branch parked without a query timer", name)
		}
		if st.BranchesPrepared > 0 && !timerArmed {
			t.Fatalf("%s: prepared branch survives abort without a query timer", name)
		}
		// ...unless a *later* execution re-prepared it, in which case the
		// stale-branch query cycle must be armed to resolve it.
	}
	if abortSeen && !abortDuringLife && parked {
		// Abort arrived before the execution started: the zombie is
		// unavoidable at this layer and must be covered by the query
		// cycle.
		if !timerArmed {
			t.Fatalf("%s: pre-execution abort left a parked branch without a query timer", name)
		}
	}
	if parked && st.BranchesPrepared == 0 {
		t.Fatalf("%s: parked transaction with no machine state to settle it", name)
	}
}

// TestRCEAbortOvertakesPrepareEdge pins the exact seed-2 interleaving:
// exec starts, abort lands while executing, execution completes. The
// machine must abort the parked branch and refuse the coordinator —
// the executing→executingAborted edge.
func TestRCEAbortOvertakesPrepareEdge(t *testing.T) {
	m := newReady("p")
	const txn = "co#2"
	m.Step(protocol.RCEExecReceived{TxnID: txn, From: "co", Ops: nil})
	m.Step(protocol.StatusReceived{TxnID: txn, Committed: false})
	effs := m.Step(protocol.BranchPrepared{TxnID: txn, OK: true})

	if got := pick[protocol.AbortBranch](effs); len(got) != 1 {
		t.Fatalf("no AbortBranch on the poison edge: %+v", effs)
	}
	acks := pick[protocol.SendMsg](effs)
	if len(acks) != 1 {
		t.Fatalf("acks = %+v", effs)
	}
	ack := acks[0].Payload.(*protocol.AckMsg)
	if ack.OK {
		t.Fatal("zombie branch acknowledged")
	}
	if want := "aborted by coordinator during execution"; ack.Err != want {
		t.Errorf("refusal = %q, want %q", ack.Err, want)
	}
	if s := m.Stats(); s.BranchesExec+s.BranchesPrepared != 0 {
		t.Fatalf("branch state lingers: %+v", s)
	}
	// The tombstone must not outlive the execution: a fresh abort for an
	// unknown transaction resolves via the branch record only.
	effs = m.Step(protocol.StatusReceived{TxnID: txn, Committed: false})
	if got := pick[protocol.ResolveBranchRecord](effs); len(got) != 1 {
		t.Fatalf("post-settle abort = %+v", effs)
	}
	if s := m.Stats(); s.BranchesExec != 0 {
		t.Fatalf("tombstone recorded without an in-flight execution: %+v", s)
	}
}
