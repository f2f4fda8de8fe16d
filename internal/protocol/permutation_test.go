package protocol_test

import (
	"testing"
	"time"

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

// TestDelegatedHandoffPermutations checks the one-hop hand-off (the node
// that receives the container decides) over every interleaving of the
// events around one hand-off from source "s" to decider "d": the source
// sending (N), the prepare delivered (P), duplicated in flight (X) or
// lost (L), the source's worker giving up waiting and querying (T), a
// query delivered (Q), the decider's verdict write completing (W), the
// outcome delivered (O), the source settling its branch (C), either node
// crashing and recovering at any of those points (S, D), and the
// source's mark delivered (R). Then the world quiesces. It asserts the
// decider and the source never disagree — the container is in the
// decider's queue exactly when the source's branch committed, and at
// most once — and that every branch, commit record and fence resolves.
//
// The world is modelled the way the driver works: durable state is the
// source's branch record and the decider's records and queue; volatile
// state (the machines, the worker, pending writes) dies with a crash,
// and so do messages in flight to the crashed node (a restarted endpoint
// receives no frame sent to its previous incarnation).
func TestDelegatedHandoffPermutations(t *testing.T) {
	alphabets := []string{
		"NPWOCR",   // the one-hop path in every order
		"NPXWOCR",  // a duplicated prepare
		"NLTQWOCR", // a lost prepare: the query fences it
		"NPTQWOCR", // the prepare racing the source's query
		"NPWOCRS",  // a source crash at each point
		"NPWOCRD",  // a decider crash at each point
		"NSPWDOCR", // both
		"NPXWOCRD", // a duplicate around a decider crash and the mark
	}
	runs := 0
	for _, alphabet := range alphabets {
		for _, seq := range permutations([]byte(alphabet)) {
			runHandoffPermutation(t, string(seq))
			runs++
		}
	}
	t.Logf("%d interleavings", runs)
}

const hoTxn = "s#5"

type hoMsg struct {
	kind string
	mark uint64
}

// handoffWorld is one source, one decider, the network between them and
// the durable state each keeps.
type handoffWorld struct {
	t    *testing.T
	name string

	s, d *protocol.Machine

	// Source: the branch record, the live worker's delegation and the
	// verdict it was handed but has not applied yet.
	sent, branch, live bool
	settled            string // "", "commit", "abort"
	verdict            *bool

	// Decider: its records, its queue, verdict writes in flight.
	records  map[string]bool
	enqueued int
	writes   []protocol.Decide

	toD, toS []hoMsg
}

func newHandoffWorld(t *testing.T, name string) *handoffWorld {
	w := &handoffWorld{t: t, name: name, branch: true, records: map[string]bool{}}
	w.s = newReady("s")
	w.d = newReady("d")
	return w
}

func (w *handoffWorld) mark() uint64 {
	if w.branch {
		return 5
	}
	return 6
}

// sApply applies the source machine's effects.
func (w *handoffWorld) sApply(effs []protocol.Effect) {
	for _, eff := range effs {
		switch e := eff.(type) {
		case protocol.SendHandoff:
			w.toD = append(w.toD, hoMsg{kind: protocol.KindEnqueuePrepare, mark: e.Msg.Mark})
		case protocol.SendMsg:
			if e.Kind == protocol.KindTxnQuery {
				w.toD = append(w.toD, hoMsg{kind: protocol.KindTxnQuery})
			}
		case protocol.DeliverAck:
			if !w.live || e.Kind != protocol.KindOutcome {
				w.t.Fatalf("%s: %+v delivered with no worker waiting on an outcome", w.name, e)
			}
			v := e.OK
			w.verdict = &v
		case protocol.ResolveBranchRecord:
			w.settle(e.Commit)
		case protocol.SendResolved:
			w.toD = append(w.toD, hoMsg{kind: protocol.KindResolved, mark: w.mark()})
		}
	}
}

// settle applies a verdict to the source's branch record.
func (w *handoffWorld) settle(commit bool) {
	if !w.branch {
		return
	}
	w.branch = false
	w.settled = "abort"
	if commit {
		w.settled = "commit"
	}
}

// dApply applies the decider machine's effects.
func (w *handoffWorld) dApply(effs []protocol.Effect) {
	for _, eff := range effs {
		switch e := eff.(type) {
		case protocol.Decide:
			w.writes = append(w.writes, e)
		case protocol.SendMsg:
			if e.Kind == protocol.KindOutcome {
				w.toS = append(w.toS, hoMsg{kind: protocol.KindOutcome, mark: b2u(e.Payload.(*protocol.StatusMsg).Committed)})
			}
		case protocol.DropOutcomes:
			for _, id := range e.TxnIDs {
				delete(w.records, id)
			}
		}
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// step runs one event; it reports whether anything happened.
func (w *handoffWorld) step(ev byte) bool {
	take := func(q *[]hoMsg, kind string) (hoMsg, bool) {
		for i, m := range *q {
			if m.kind == kind {
				*q = append((*q)[:i], (*q)[i+1:]...)
				return m, true
			}
		}
		return hoMsg{}, false
	}
	switch ev {
	case 'N':
		if w.sent || !w.branch {
			return false
		}
		w.sent, w.live = true, true
		w.sApply(w.s.Step(protocol.Delegate{TxnID: hoTxn, Decider: "d", EntryID: "a", Mark: 5}))
	case 'P':
		m, ok := take(&w.toD, protocol.KindEnqueuePrepare)
		if !ok {
			return false
		}
		w.dApply(w.d.Step(protocol.HandoffReceived{TxnID: hoTxn, From: "s", EntryID: "a", Mark: m.mark}))
	case 'X':
		for _, m := range w.toD {
			if m.kind == protocol.KindEnqueuePrepare {
				w.toD = append(w.toD, m)
				return true
			}
		}
		return false
	case 'L':
		if _, ok := take(&w.toD, protocol.KindEnqueuePrepare); !ok {
			return false
		}
	case 'T':
		if !w.live || w.verdict != nil {
			return false
		}
		w.sApply(w.s.Step(protocol.DelegationStale{TxnID: hoTxn}))
	case 'Q':
		if _, ok := take(&w.toD, protocol.KindTxnQuery); !ok {
			return false
		}
		w.dApply(w.d.Step(protocol.QueryReceived{TxnID: hoTxn, From: "s"}))
	case 'W':
		if len(w.writes) == 0 {
			return false
		}
		e := w.writes[0]
		w.writes = w.writes[1:]
		if _, exists := w.records[e.TxnID]; exists {
			w.t.Fatalf("%s: a verdict write over an existing record", w.name)
		}
		w.records[e.TxnID] = e.Commit
		if e.Commit {
			w.enqueued++
		}
		w.dApply(w.d.Step(protocol.HandoffDecided{TxnID: e.TxnID, Commit: e.Commit, OK: true}))
	case 'O':
		m, ok := take(&w.toS, protocol.KindOutcome)
		if !ok {
			return false
		}
		w.sApply(w.s.Step(protocol.OutcomeReceived{TxnID: hoTxn, Committed: m.mark == 1}))
	case 'C':
		if w.verdict == nil {
			return false
		}
		w.settle(*w.verdict)
		w.verdict, w.live = nil, false
		w.toD = append(w.toD, hoMsg{kind: protocol.KindResolved, mark: w.mark()})
	case 'R':
		m, ok := take(&w.toD, protocol.KindResolved)
		if !ok {
			return false
		}
		w.dApply(w.d.Step(protocol.ResolvedReceived{From: "s", Mark: m.mark}))
	case 'S':
		// The source dies: worker, machine and messages to it are gone;
		// the branch record stays, and recovery asks the decider.
		w.s, w.live, w.verdict, w.toS = newReady("s"), false, nil, nil
		if w.branch {
			w.sent = true // a branch that outlives the crash is in doubt either way
			w.sApply(w.s.Step(protocol.RecoveredDelegation{TxnID: hoTxn, Decider: "d"}))
		}
	case 'D':
		// The decider dies: machine, unfinished writes and messages to
		// it are gone; records and queue stay and are replayed.
		w.d, w.writes, w.toD = protocol.NewMachine(protocol.Config{Node: "d", RetryInterval: 50 * time.Millisecond}), nil, nil
		for id, commit := range w.records {
			w.dApply(w.d.Step(protocol.RecoveredOutcome{TxnID: id, Commit: commit, Mark: 5}))
		}
		w.d.Step(protocol.ReadyReached{})
	default:
		w.t.Fatalf("unknown event %q", ev)
	}
	return true
}

// quiesce drives the world to rest: writes complete, messages arrive,
// the source settles, and a source still in doubt re-asks (its query
// timer) until it has a verdict.
func (w *handoffWorld) quiesce() {
	for round := 0; round < 50; round++ {
		progress := false
		for _, ev := range []byte("WPQORC") {
			for w.step(ev) {
				progress = true
			}
		}
		if !progress && w.branch {
			if !w.sent {
				w.step('N')
				continue
			}
			if w.live && w.verdict == nil {
				w.sApply(w.s.Step(protocol.DelegationStale{TxnID: hoTxn}))
			} else {
				w.sApply(w.s.Step(protocol.TimerFired{ID: "pquery|d"}))
			}
			progress = len(w.toD) > 0
		}
		if !progress {
			return
		}
	}
	w.t.Fatalf("%s: the world never came to rest", w.name)
}

func runHandoffPermutation(t *testing.T, seq string) {
	t.Helper()
	w := newHandoffWorld(t, seq)
	for i := 0; i < len(seq); i++ {
		w.step(seq[i])
	}
	w.quiesce()
	// The source's last mark reaches the decider (a lost q.resolved is
	// repaired by the next message from the source).
	w.dApply(w.d.Step(protocol.ResolvedReceived{From: "s", Mark: w.mark()}))

	if w.branch || w.settled == "" {
		t.Fatalf("%s: the source's branch never settled", seq)
	}
	if w.enqueued > 1 {
		t.Fatalf("%s: the container was enqueued %d times", seq, w.enqueued)
	}
	if committed := w.settled == "commit"; committed != (w.enqueued == 1) {
		t.Fatalf("%s: source %s, decider enqueued %d — they disagree", seq, w.settled, w.enqueued)
	}
	if len(w.records) != 0 {
		t.Fatalf("%s: records survive the mark: %v", seq, w.records)
	}
	if s := w.s.Stats(); s.Delegations != 0 {
		t.Fatalf("%s: source state lingers: %+v", seq, s)
	}
	if s := w.d.Stats(); s.Outcomes != 0 || s.Deciding != 0 {
		t.Fatalf("%s: decider state lingers: %+v", seq, s)
	}
}
