package protocol_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/protocol"
)

// TestRCEAbortPermutations is the pure re-expression of the chaos
// harness's first catch (TestRCEAbortOvertakesPrepare): for every
// interleaving of the decider's abort verdicts (its fence), exec
// requests and execution completions — no cluster,
// no store, no clock — an abort that lands during the branch lifetime
// must never leave a prepared, lock-holding branch behind, and a
// prepared branch that escapes (abort delivered before the execution
// even started) must carry the stale-branch query timer that resolves
// it. The driver contract is modeled explicitly: an execution
// completion can only be delivered after the machine emitted the
// matching ExecBranch effect, and parked transactions are tracked
// through the SettleBranch effect.
func TestRCEAbortPermutations(t *testing.T) {
	// Event alphabets: e = exec request, p = execution completes
	// (prepared OK), a = abort verdict (the decider's fence).
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
	timerArmed := false      // pstale|co#1 armed (nothing fires it here, so it stays armed)
	abortSeen := false       // an abort verdict was delivered...
	abortDuringLife := false // ...while the machine held branch state

	apply := func(effs []protocol.Effect) {
		for _, eff := range effs {
			switch e := eff.(type) {
			case protocol.ExecBranch:
				outstanding++
			case protocol.SettleBranch:
				if e.Commit {
					t.Fatalf("%s: a commit settled without any commit verdict", name)
				}
				parked = false
			case protocol.ArmTimer:
				if e.ID == "pquery|"+txn {
					timerArmed = true
				}
			case protocol.CancelTimer:
				if e.ID == "pquery|"+txn {
					timerArmed = false
				}
			}
		}
	}

	for _, s := range seq {
		switch s {
		case 'e':
			apply(m.Step(protocol.RCEExecReceived{TxnID: txn, From: "co", Decider: "d", Ops: ops}))
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
			apply(m.Step(protocol.OutcomeReceived{TxnID: txn, From: "d", Committed: false}))
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
// machine must abort the parked branch and refuse the compensating node
// — the executing→executingAborted edge.
func TestRCEAbortOvertakesPrepareEdge(t *testing.T) {
	m := newReady("p")
	const txn = "co#2"
	m.Step(protocol.RCEExecReceived{TxnID: txn, From: "co", Decider: "d", Ops: nil})
	m.Step(protocol.OutcomeReceived{TxnID: txn, From: "d", Committed: false})
	effs := m.Step(protocol.BranchPrepared{TxnID: txn, OK: true})

	if got := pick[protocol.SettleBranch](effs); len(got) != 1 || got[0].Commit {
		t.Fatalf("no abort on the poison edge: %+v", effs)
	}
	acks := pick[protocol.SendMsg](effs)
	if len(acks) != 1 {
		t.Fatalf("acks = %+v", effs)
	}
	ack := acks[0].Payload.(*protocol.AckMsg)
	if ack.OK {
		t.Fatal("zombie branch acknowledged")
	}
	if want := "aborted during execution"; ack.Err != want {
		t.Errorf("refusal = %q, want %q", ack.Err, want)
	}
	if s := m.Stats(); s.BranchesExec+s.BranchesPrepared != 0 {
		t.Fatalf("branch state lingers: %+v", s)
	}
	// The tombstone must not outlive the execution: a fresh abort for an
	// unknown transaction settles the branch record and nothing else.
	effs = m.Step(protocol.OutcomeReceived{TxnID: txn, From: "d", Committed: false})
	if got := pick[protocol.SettleBranch](effs); len(got) != 1 || len(effs) != 1 {
		t.Fatalf("post-settle abort = %+v", effs)
	}
	if s := m.Stats(); s.BranchesExec != 0 {
		t.Fatalf("tombstone recorded without an in-flight execution: %+v", s)
	}
}

// TestDelegatedHandoffPermutations checks the one-decider commit
// protocol over every interleaving of the events around one transaction
// "s#5": source s hands its container to decider d, and — in the
// alphabets that begin with an RCE list (E) — party p holds an RCE
// branch of it (Figure 5b). Events:
//
//	E the RCE list reaches p           B p's execution prepares its branch and acks s
//	A p's exec ack reaches s           M / G it is lost / s's pexec timer fires: s aborts
//	N s prepares its branch and sends q.prepare (after A)
//	P the prepare reaches d            X / L the prepare is duplicated / lost
//	T s's stale timer fires: s queries d
//	F p's stale timer fires: p queries d
//	J d's resend timer fires: d re-sends its commit to p
//	Q a query reaches d                W d's verdict write completes
//	O the outcome reaches s            C s's driver settles its branch and sends its mark
//	V a verdict reaches p              Y / U a verdict to p is duplicated / lost
//	K p's acknowledgement reaches d    R the source's mark reaches d
//	S, D, Z s, d or p crashes and recovers
//
// Then the world quiesces: messages arrive, writes complete and timers
// fire until nothing moves — except, in the quiet alphabets, the party's
// own query timer, so only the decider's commit resend can bring it a
// lost verdict. s ships its RCE list as a machine event, and the exec ack
// or the pexec fire ends its wait exactly once. It asserts the parties
// never disagree — the container is in d's queue exactly when s's branch
// committed, exactly when p's branch committed, and at most once — and
// that every branch, commit record and fence resolves: no record
// outlives the party's last acknowledgement and the source's mark.
//
// The world is modelled the way the driver works: durable state is each
// node's branch record and the decider's records and queue; volatile
// state (the machines, the workers, parked transactions, executions and
// writes in flight) dies with a crash, and so do messages in flight to
// the crashed node (a restarted endpoint receives no frame sent to its
// previous incarnation).
func TestDelegatedHandoffPermutations(t *testing.T) {
	alphabets := []struct {
		prefix, perm string
		quiet        bool // p's query timer never fires
	}{
		{"", "NPWOCR", false},   // the one-hop path in every order
		{"", "NPXWOCR", false},  // a duplicated prepare
		{"", "NLTQWOCR", false}, // a lost prepare: the query fences it
		{"", "NPTQWOCR", false}, // the prepare racing the source's query
		{"", "NPWOCRS", false},  // a source crash at each point
		{"", "NPWOCRD", false},  // a decider crash at each point
		{"", "NSPWDOCR", false}, // both
		{"", "NPXWOCRD", false}, // a duplicate around a decider crash and the mark

		{"", "EBANPWVK", false},     // with an RCE party: the verdict and its ack
		{"", "EBANFQPW", false},     // the party's stale query racing the prepare: a fence
		{"", "EBANPWVZ", false},     // a party crash at each point
		{"", "EBANPWKD", false},     // a decider crash around its record with parties
		{"", "EBANPWOS", false},     // a source crash at each point
		{"", "EGBAV", false},        // the source gives up: its abort overtakes the execution
		{"", "EBMGV", false},        // the exec ack lost: the pexec fire aborts, the party hears it
		{"", "EBAGNPW", false},      // the ack racing the pexec fire
		{"EBA", "NPWYUVK", false},   // the verdict to the party duplicated and lost
		{"EBA", "NPWOCRZ", false},   // a party crash around the source's mark
		{"EBANP", "WUOCRJU", false}, // the verdict and a resend lost: the resend must outlive the mark
		{"EBA", "NLTQFQWV", false},  // a lost prepare fenced by both queries
		{"EBANP", "WUOCRJU", true},  // as above, and only the decider's resends reach the party
	}
	runs := 0
	for _, a := range alphabets {
		for _, seq := range permutations([]byte(a.perm)) {
			runHandoffPermutation(t, a.prefix+string(seq), a.quiet)
			runs++
		}
	}
	t.Logf("%d interleavings", runs)
}

const hoTxn = "s#5"

// hoMsg is one message in flight.
type hoMsg struct {
	kind, from string
	ok         bool // a verdict's commit, an ack's OK
	mark       uint64
}

// handoffWorld is the source, the decider, the party, the network
// between them and the durable state each keeps.
type handoffWorld struct {
	t    *testing.T
	name string

	s, d, p *protocol.Machine
	parties []string // the transaction's RCE parties: none, or p

	// Source: its transaction (open until settled, or until the worker
	// dies before preparing), whether the exec ack ended its wait (and
	// with it ok), its branch record, the transaction the worker parked,
	// and the effects from the verdict's SettleBranch on that the driver
	// has not applied yet.
	open, ended, acked, sent, branch, live bool
	settled                                string // "", "commit", "abort"
	pending                                []protocol.Effect

	quiet bool // the party's query timer never fires

	// Party: its branch record, the parked transaction, executions in
	// flight, and how its branch settled.
	pBranch, parked bool
	execs           int
	pSettled        string

	// Decider: its records, its queue, verdict writes in flight.
	records  map[string]protocol.RecoveredOutcome
	enqueued int
	writes   []protocol.Decide

	toS, toD, toP []hoMsg
}

func newHandoffWorld(t *testing.T, name string, quiet bool) *handoffWorld {
	w := &handoffWorld{t: t, name: name, open: true, acked: true, quiet: quiet, records: map[string]protocol.RecoveredOutcome{}}
	w.s, w.d, w.p = newReady("s"), newReady("d"), newReady("p")
	if strings.HasPrefix(name, "E") {
		w.parties, w.acked = []string{"p"}, false
		w.sApply(w.s.Step(protocol.RCEShipped{TxnID: hoTxn, To: "p", Decider: "d"}))
	}
	return w
}

// mark is the source's watermark: its transaction counts while the
// worker holds it or its branch is in doubt.
func (w *handoffWorld) mark() uint64 {
	if w.open || w.branch {
		return 5
	}
	return 6
}

// sApply applies the source machine's effects, up to a SettleBranch:
// that one and the rest wait for the driver (C).
func (w *handoffWorld) sApply(effs []protocol.Effect) {
	for i, eff := range effs {
		switch e := eff.(type) {
		case protocol.SendHandoff:
			w.toD = append(w.toD, hoMsg{kind: protocol.KindEnqueuePrepare, from: "s", mark: e.Msg.Mark})
		case protocol.SendMsg:
			w.send(e, "s")
		case protocol.SettleBranch:
			if w.pending != nil {
				w.t.Fatalf("%s: a second verdict settles the source's branch", w.name)
			}
			w.pending = effs[i:]
			return
		case protocol.SendResolved:
			w.toD = append(w.toD, hoMsg{kind: protocol.KindResolved, from: "s", mark: w.mark()})
		case protocol.ExecAcked:
			// The parked worker's continuation: go on to the hand-off, or
			// abort before any prepare left and tell the party.
			if w.ended || !w.open || w.sent {
				w.t.Fatalf("%s: the exec wait ended again (%+v)", w.name, e)
			}
			w.ended, w.acked = true, e.OK
			if !e.OK {
				w.open = false
				w.sApply(w.s.Step(protocol.LocalDecided{TxnID: hoTxn, Parties: w.parties}))
			}
		case protocol.Decide, protocol.ExecBranch:
			w.t.Fatalf("%s: the source emitted %+v", w.name, e)
		}
	}
}

// send routes a machine's message by its destination.
func (w *handoffWorld) send(e protocol.SendMsg, from string) {
	m := hoMsg{kind: e.Kind, from: from}
	switch p := e.Payload.(type) {
	case *protocol.StatusMsg:
		m.ok = p.Committed
	case *protocol.AckMsg:
		m.ok = p.OK
	}
	switch e.To {
	case "s":
		w.toS = append(w.toS, m)
	case "d":
		w.toD = append(w.toD, m)
	case "p":
		w.toP = append(w.toP, m)
	default:
		w.t.Fatalf("%s: %s sent %s to %q", w.name, from, e.Kind, e.To)
	}
}

// settle applies a verdict to the source's branch record.
func (w *handoffWorld) settle(commit bool) {
	if !w.branch {
		return
	}
	w.branch = false
	w.settled = verdictName(commit)
}

func verdictName(commit bool) string {
	if commit {
		return "commit"
	}
	return "abort"
}

// pApply applies the party machine's effects.
func (w *handoffWorld) pApply(effs []protocol.Effect) {
	for _, eff := range effs {
		switch e := eff.(type) {
		case protocol.ExecBranch:
			if e.Decider != "d" {
				w.t.Fatalf("%s: branch prepared for decider %q", w.name, e.Decider)
			}
			w.execs++
		case protocol.SendMsg:
			w.send(e, "p")
		case protocol.SettleBranch:
			// The parked transaction, or else the durable record.
			if w.parked || w.pBranch {
				w.parked = false
				w.pSettle(e.Commit)
			}
		}
	}
}

// pSettle settles the party's branch record.
func (w *handoffWorld) pSettle(commit bool) {
	if w.pSettled != "" {
		w.t.Fatalf("%s: the party's branch settled twice (%s, then %s)", w.name, w.pSettled, verdictName(commit))
	}
	w.pBranch = false
	w.pSettled = verdictName(commit)
}

// dApply applies the decider machine's effects.
func (w *handoffWorld) dApply(effs []protocol.Effect) {
	for _, eff := range effs {
		switch e := eff.(type) {
		case protocol.Decide:
			w.writes = append(w.writes, e)
		case protocol.SendMsg:
			w.send(e, "d")
		case protocol.DropOutcomes:
			for _, id := range e.TxnIDs {
				delete(w.records, id)
			}
		case protocol.SettleBranch, protocol.ExecBranch:
			w.t.Fatalf("%s: the decider, no party here, emitted %+v", w.name, e)
		}
	}
}

// take removes the oldest message of kind from q (any kind if "").
func take(q *[]hoMsg, kind string) (hoMsg, bool) {
	for i, m := range *q {
		if kind == "" || m.kind == kind {
			*q = append((*q)[:i], (*q)[i+1:]...)
			return m, true
		}
	}
	return hoMsg{}, false
}

// dup duplicates the oldest message of kind in q.
func dup(q *[]hoMsg, kind string) bool {
	for _, m := range *q {
		if m.kind == kind {
			*q = append(*q, m)
			return true
		}
	}
	return false
}

// step runs one event; it reports whether anything happened.
func (w *handoffWorld) step(ev byte) bool {
	switch ev {
	case 'E':
		m, ok := take(&w.toP, protocol.KindRCEExec)
		if !ok {
			return false
		}
		w.pApply(w.p.Step(protocol.RCEExecReceived{TxnID: hoTxn, From: m.from, Decider: "d"}))
	case 'B':
		if w.execs == 0 {
			return false
		}
		w.execs--
		w.pBranch, w.parked = true, true
		w.pApply(w.p.Step(protocol.BranchPrepared{TxnID: hoTxn, OK: true}))
	case 'A':
		m, ok := take(&w.toS, protocol.KindRCEExecAck)
		if !ok {
			return false
		}
		w.sApply(w.s.Step(protocol.AckReceived{Kind: m.kind, TxnID: hoTxn, From: m.from, OK: m.ok}))
	case 'M':
		_, ok := take(&w.toS, protocol.KindRCEExecAck)
		return ok
	case 'G':
		if w.parties == nil {
			return false
		}
		// The compensating node's exec-ack timeout: a list still awaited
		// ends refused, and the continuation aborts before any prepare
		// left, telling its parties.
		w.sApply(w.s.Step(protocol.TimerFired{ID: "pexec|" + hoTxn}))
	case 'N':
		if !w.open || !w.acked || w.sent {
			return false
		}
		w.sent, w.live, w.branch = true, true, true
		w.sApply(w.s.Step(protocol.Delegate{TxnID: hoTxn, Decider: "d", EntryID: "a", Mark: 5, Parties: w.parties}))
	case 'P':
		m, ok := take(&w.toD, protocol.KindEnqueuePrepare)
		if !ok {
			return false
		}
		w.dApply(w.d.Step(protocol.HandoffReceived{TxnID: hoTxn, From: "s", EntryID: "a", Mark: m.mark, Parties: w.parties}))
	case 'X':
		return dup(&w.toD, protocol.KindEnqueuePrepare)
	case 'L':
		_, ok := take(&w.toD, protocol.KindEnqueuePrepare)
		return ok
	case 'T':
		if !w.live {
			return false
		}
		w.sApply(w.s.Step(protocol.TimerFired{ID: "pquery|" + hoTxn}))
	case 'F':
		if w.parties == nil || w.quiet {
			return false
		}
		w.pApply(w.p.Step(protocol.TimerFired{ID: "pquery|" + hoTxn}))
	case 'J':
		if w.parties == nil {
			return false
		}
		w.dApply(w.d.Step(protocol.TimerFired{ID: "pctl|" + hoTxn}))
	case 'Q':
		m, ok := take(&w.toD, protocol.KindTxnQuery)
		if !ok {
			return false
		}
		w.dApply(w.d.Step(protocol.QueryReceived{TxnID: hoTxn, From: m.from}))
	case 'W':
		if len(w.writes) == 0 {
			return false
		}
		e := w.writes[0]
		w.writes = w.writes[1:]
		if _, exists := w.records[e.TxnID]; exists {
			w.t.Fatalf("%s: a verdict write over an existing record", w.name)
		}
		w.records[e.TxnID] = protocol.RecoveredOutcome{TxnID: e.TxnID, Commit: e.Commit, Mark: e.Mark, Parties: e.Parties}
		if e.Commit {
			w.enqueued++
		}
		w.dApply(w.d.Step(protocol.HandoffDecided{TxnID: e.TxnID, Commit: e.Commit, OK: true}))
	case 'O':
		m, ok := take(&w.toS, protocol.KindOutcome)
		if !ok {
			return false
		}
		w.sApply(w.s.Step(protocol.OutcomeReceived{TxnID: hoTxn, From: m.from, Committed: m.ok}))
	case 'V':
		m, ok := take(&w.toP, protocol.KindOutcome)
		if !ok {
			return false
		}
		w.pApply(w.p.Step(protocol.OutcomeReceived{TxnID: hoTxn, From: m.from, Committed: m.ok}))
	case 'Y':
		return dup(&w.toP, protocol.KindOutcome)
	case 'U':
		_, ok := take(&w.toP, protocol.KindOutcome)
		return ok
	case 'K':
		m, ok := take(&w.toD, protocol.KindOutcomeAck)
		if !ok {
			return false
		}
		w.dApply(w.d.Step(protocol.AckReceived{Kind: m.kind, TxnID: hoTxn, From: m.from, OK: m.ok}))
	case 'C':
		if w.pending == nil {
			return false
		}
		rest := w.pending[1:]
		w.settle(w.pending[0].(protocol.SettleBranch).Commit)
		w.pending, w.live, w.open = nil, false, false
		w.sApply(rest)
	case 'R':
		m, ok := take(&w.toD, protocol.KindResolved)
		if !ok {
			return false
		}
		w.dApply(w.d.Step(protocol.ResolvedReceived{From: "s", Mark: m.mark}))
	case 'S':
		// The source dies: worker, machine and messages to it are gone;
		// a transaction that never prepared dies with the worker, and a
		// branch record stays, in doubt, and recovery asks the decider.
		w.s, w.live, w.pending, w.toS = newReady("s"), false, nil, nil
		w.open, w.acked = false, false
		if w.branch {
			w.sent = true // a branch that outlives the crash is in doubt either way
			w.sApply(w.s.Step(protocol.RecoveredBranch{TxnID: hoTxn, Decider: "d"}))
		}
	case 'D':
		// The decider dies: machine, unfinished writes and messages to
		// it are gone; records and queue stay and are replayed.
		w.d, w.writes, w.toD = protocol.NewMachine(protocol.Config{Node: "d", RetryInterval: 50 * time.Millisecond}), nil, nil
		for _, r := range w.records {
			w.dApply(w.d.Step(r))
		}
		w.d.Step(protocol.ReadyReached{})
	case 'Z':
		// The party dies: machine, parked transaction, executions and
		// messages to it are gone; its branch record stays, in doubt.
		w.p, w.parked, w.execs, w.toP = protocol.NewMachine(protocol.Config{Node: "p", RetryInterval: 50 * time.Millisecond}), false, 0, nil
		if w.pBranch {
			w.pApply(w.p.Step(protocol.RecoveredBranch{TxnID: hoTxn, Decider: "d"}))
		}
		w.p.Step(protocol.ReadyReached{})
	default:
		w.t.Fatalf("unknown event %q", ev)
	}
	return true
}

// quiesce drives the world to rest: messages arrive and writes complete;
// then, with nothing in flight, the source's waits expire and every
// node's timers fire, until nothing moves.
func (w *handoffWorld) quiesce() {
	for round := 0; round < 50; round++ {
		progress := false
		for _, ev := range []byte("EBAWPQOVKRC") {
			for w.step(ev) {
				progress = true
			}
		}
		if progress {
			continue
		}
		switch {
		case w.open && !w.sent && w.acked:
			w.step('N')
		case w.open && !w.sent:
			w.step('G')
		case w.branch:
			w.sApply(w.s.Step(protocol.TimerFired{ID: "pquery|" + hoTxn}))
		}
		if !w.quiet {
			w.pApply(w.p.Step(protocol.TimerFired{ID: "pquery|" + hoTxn}))
		}
		w.dApply(w.d.Step(protocol.TimerFired{ID: "pctl|" + hoTxn}))
		if len(w.toS)+len(w.toD)+len(w.toP)+len(w.writes) == 0 && !(w.open && !w.sent) {
			return
		}
	}
	w.t.Fatalf("%s: the world never came to rest", w.name)
}

func runHandoffPermutation(t *testing.T, seq string, quiet bool) {
	t.Helper()
	w := newHandoffWorld(t, seq, quiet)
	for i := 0; i < len(seq); i++ {
		w.step(seq[i])
	}
	w.quiesce()
	// The source's last mark reaches the decider (a lost q.resolved is
	// repaired by the next message from the source).
	w.dApply(w.d.Step(protocol.ResolvedReceived{From: "s", Mark: w.mark()}))

	if w.branch || (w.sent && w.settled == "") {
		t.Fatalf("%s: the source's branch never settled", seq)
	}
	if w.enqueued > 1 {
		t.Fatalf("%s: the container was enqueued %d times", seq, w.enqueued)
	}
	if committed := w.settled == "commit"; committed != (w.enqueued == 1) {
		t.Fatalf("%s: source %q, decider enqueued %d — they disagree", seq, w.settled, w.enqueued)
	}
	if w.parties != nil {
		if w.pBranch || w.parked || w.execs != 0 {
			t.Fatalf("%s: the party's branch never settled (record %v, parked %v, executing %d)", seq, w.pBranch, w.parked, w.execs)
		}
		if committed := w.pSettled == "commit"; committed != (w.enqueued == 1) {
			t.Fatalf("%s: party %q, decider enqueued %d — they disagree", seq, w.pSettled, w.enqueued)
		}
		if s := w.p.Stats(); s.BranchesExec+s.BranchesPrepared+s.BranchesInDoubt != 0 {
			t.Fatalf("%s: party state lingers: %+v", seq, s)
		}
	}
	if len(w.records) != 0 {
		t.Fatalf("%s: records survive the last acknowledgement and the mark: %v", seq, w.records)
	}
	if s := w.s.Stats(); s.BranchesPrepared+s.BranchesInDoubt != 0 {
		t.Fatalf("%s: source state lingers: %+v", seq, s)
	}
	if s := w.d.Stats(); s.Outcomes != 0 || s.Deciding != 0 || s.PendingParties != 0 {
		t.Fatalf("%s: decider state lingers: %+v", seq, s)
	}
}
