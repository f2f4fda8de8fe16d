// Package txn provides the transactional substrate the paper assumes
// ("transactional resource managers", §1-2): local ACID transactions over
// node resources, plus the building blocks of distributed two-phase commit
// used by step and compensation transactions (durable prepared branches on
// participants, durable commit decisions on the coordinator; presumed
// abort).
//
// Model. A local transaction (Tx) accumulates three things while resources
// execute operations under it:
//
//   - volatile undo closures restoring in-memory resource state on abort;
//   - a batch of stable-store mutations applied atomically at commit
//     (redo); this makes commit crash-consistent: either the whole batch
//     (queue removal, resource states, enqueue bookkeeping, decision
//     record) is applied or none of it;
//   - resource locks (strict two-phase locking, coarse per-resource
//     granularity) held until commit or abort.
//
// For distributed transactions, a participant turns its Tx into a durable
// *prepared branch* (Tx.Prepare): the redo batch is persisted under the
// transaction ID, locks remain held, and the branch survives a crash. The
// coordinator persists its commit decision atomically with its own local
// effects (DecisionOp) and then drives participants; a participant that
// recovers with an in-doubt branch asks the coordinator and aborts if no
// decision record exists (presumed abort).
package txn

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/stable"
	"repro/internal/wire"
)

// Status is the life-cycle state of a transaction.
type Status int

// Transaction states.
const (
	StatusActive Status = iota + 1
	StatusPrepared
	StatusCommitted
	StatusAborted
)

// String returns the human-readable status name.
func (s Status) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusPrepared:
		return "prepared"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	default:
		return "unknown(" + strconv.Itoa(int(s)) + ")"
	}
}

// Errors reported by the transaction manager.
var (
	ErrLockTimeout = errors.New("txn: lock acquisition timed out")
	ErrNotActive   = errors.New("txn: transaction is not active")
	ErrNotPrepared = errors.New("txn: transaction is not prepared")
)

// Lock is a transaction-scoped resource lock. The zero value is unlocked.
// Locks are volatile: they are lost on a crash, which is safe because a
// recovering node resolves in-doubt branches before admitting new work.
type Lock struct {
	mu     sync.Mutex
	holder *Tx
	wait   chan struct{} // closed & replaced on release
}

func (l *Lock) acquire(tx *Tx, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		l.mu.Lock()
		if l.holder == nil || l.holder == tx {
			l.holder = tx
			if l.wait == nil {
				l.wait = make(chan struct{})
			}
			l.mu.Unlock()
			return nil
		}
		wait := l.wait
		l.mu.Unlock()
		remain := time.Until(deadline)
		if remain <= 0 {
			return ErrLockTimeout
		}
		timer := time.NewTimer(remain)
		select {
		case <-wait:
			timer.Stop()
		case <-timer.C:
			return ErrLockTimeout
		}
	}
}

// Busy reports whether the lock is currently held by some transaction. It
// is a racy snapshot intended as a *scheduling hint* (conflict-aware
// dispatch avoids co-scheduling work that would contend on a busy lock);
// correctness never depends on it — strict 2PL does the real arbitration.
func (l *Lock) Busy() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.holder != nil
}

func (l *Lock) release(tx *Tx) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.holder != tx {
		return
	}
	l.holder = nil
	if l.wait != nil {
		close(l.wait)
		l.wait = make(chan struct{})
	}
}

// Manager creates and recovers transactions for one node.
type Manager struct {
	node  string
	store stable.Store

	mu       sync.Mutex
	seq      uint64 // last ID handed out
	reserved uint64 // persisted high-water mark: IDs up to it need no write

	// LockTimeout bounds lock waits; expiry aborts the acquiring
	// transaction (the paper lists deadlocks among the abort causes of
	// compensation transactions, §4.3).
	LockTimeout time.Duration

	// trace, when set, observes transaction outcomes ("commit", "abort",
	// "prepare", "commit-prepared"). Set before the manager is shared.
	trace func(op, id string)
}

// SetTraceHook installs an observer of durable transaction outcomes. It
// keeps this package free of any tracer dependency: the node runtime
// wires the hook into its trace ring. Call before the manager is used
// concurrently; a nil hook disables observation.
func (m *Manager) SetTraceHook(hook func(op, id string)) { m.trace = hook }

func (m *Manager) traceOp(op, id string) {
	if m.trace != nil {
		m.trace(op, id)
	}
}

// NewManager returns a Manager persisting into store. The transaction-ID
// counter restarts from the persisted high-water mark, so IDs stay unique
// across restarts (the unused rest of the last block is skipped).
func NewManager(node string, store stable.Store) (*Manager, error) {
	m := &Manager{node: node, store: store, LockTimeout: 2 * time.Second}
	raw, ok, err := store.Get(m.seqKey())
	if err != nil {
		return nil, err
	}
	if ok {
		n, err := strconv.ParseUint(string(raw), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("txn: corrupt txn seq: %w", err)
		}
		m.seq, m.reserved = n, n
	}
	return m, nil
}

func (m *Manager) seqKey() string               { return "txnseq" }
func (m *Manager) decisionKey(id string) string { return "txn/decision/" + id }
func (m *Manager) branchKey(id string) string   { return "txn/branch/" + id }

// Node returns the owning node name.
func (m *Manager) Node() string { return m.node }

// Store returns the manager's stable store.
func (m *Manager) Store() stable.Store { return m.store }

// idBlock is how many transaction IDs one write of the counter reserves.
const idBlock = 64

// NewID allocates a globally unique transaction ID. IDs are reserved in
// blocks of idBlock: the counter is persisted when a block is exhausted,
// not per ID, so IDs skip after a restart but never repeat.
func (m *Manager) NewID() (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.seq == m.reserved {
		mark := m.reserved + idBlock
		if err := m.store.Apply(stable.Put(m.seqKey(), []byte(strconv.FormatUint(mark, 10)))); err != nil {
			return "", err
		}
		m.reserved = mark
	}
	m.seq++
	return m.node + "#" + strconv.FormatUint(m.seq, 10), nil
}

// Begin starts a local transaction with a fresh ID.
func (m *Manager) Begin() (*Tx, error) {
	id, err := m.NewID()
	if err != nil {
		return nil, err
	}
	return m.BeginWithID(id), nil
}

// BeginWithID starts a local transaction under an externally supplied ID
// (participants join the coordinator's distributed transaction this way).
func (m *Manager) BeginWithID(id string) *Tx {
	return &Tx{id: id, mgr: m, status: StatusActive}
}

// Tx is a local transaction. It is not safe for concurrent use; the node
// runtime drives each transaction from a single goroutine.
type Tx struct {
	id     string
	mgr    *Manager
	status Status

	undo    []func()
	pending []pendingOp
	locks   []*Lock
}

// pendingOp is one scheduled commit mutation: either an eager op with its
// value in hand, or a lazy op whose value is produced only if the
// transaction actually commits or prepares (and only if the op survives
// last-writer-wins dedup) — resources use this to encode their state once
// per transaction instead of once per operation.
type pendingOp struct {
	op   stable.Op
	lazy func() ([]byte, error)
}

// ID returns the transaction ID.
func (tx *Tx) ID() string { return tx.id }

// Status returns the current life-cycle state.
func (tx *Tx) Status() Status { return tx.status }

// Lock acquires l for the duration of the transaction. Re-acquiring a held
// lock is a no-op. Lock waits are bounded by the manager's LockTimeout.
func (tx *Tx) Lock(l *Lock) error {
	if tx.status != StatusActive {
		return ErrNotActive
	}
	if err := l.acquire(tx, tx.mgr.LockTimeout); err != nil {
		return err
	}
	for _, held := range tx.locks {
		if held == l {
			return nil
		}
	}
	tx.locks = append(tx.locks, l)
	return nil
}

// RecordUndo registers a closure restoring in-memory state if the
// transaction aborts. Undos run in reverse registration order.
func (tx *Tx) RecordUndo(f func()) {
	tx.undo = append(tx.undo, f)
}

// AddCommitOps appends stable-store mutations applied atomically at commit.
// Later ops for the same key supersede earlier ones (last-writer-wins
// within the batch), so resources may simply re-persist their full state.
func (tx *Tx) AddCommitOps(ops ...stable.Op) {
	for _, op := range ops {
		tx.pending = append(tx.pending, pendingOp{op: op})
	}
}

// AddLazyOp schedules a commit-time put under key whose value is produced
// by enc at commit (or prepare) time, after last-writer-wins dedup — so a
// resource persisting its full state after every operation pays one encode
// per transaction, not one per operation. enc runs while the transaction
// still holds its locks; it must not error for state the transaction
// itself constructed.
func (tx *Tx) AddLazyOp(key string, enc func() ([]byte, error)) {
	tx.pending = append(tx.pending, pendingOp{op: stable.Op{Key: key}, lazy: enc})
}

// materialize resolves the pending mutations into the final redo batch:
// only the last op per key survives, and only surviving lazy ops are
// encoded.
func (tx *Tx) materialize() ([]stable.Op, error) {
	last := make(map[string]int, len(tx.pending))
	for i := range tx.pending {
		last[tx.pending[i].op.Key] = i
	}
	out := make([]stable.Op, 0, len(last))
	for i := range tx.pending {
		p := tx.pending[i]
		if last[p.op.Key] != i {
			continue
		}
		if p.lazy != nil {
			val, err := p.lazy()
			if err != nil {
				return nil, err
			}
			p.op.Value = val
		}
		out = append(out, p.op)
	}
	return out, nil
}

// Commit atomically applies the accumulated redo batch and releases locks.
func (tx *Tx) Commit() error {
	if tx.status != StatusActive {
		return fmt.Errorf("%w: %s", ErrNotActive, tx.status)
	}
	ops, err := tx.materialize()
	if err != nil {
		// The transaction stays active; the caller aborts it.
		return fmt.Errorf("txn %s: commit: %w", tx.id, err)
	}
	if err := tx.mgr.store.Apply(ops...); err != nil {
		return fmt.Errorf("txn %s: commit: %w", tx.id, err)
	}
	tx.status = StatusCommitted
	tx.mgr.traceOp("commit", tx.id)
	tx.releaseLocks()
	return nil
}

// Abort rolls back in-memory state and releases locks. If the transaction
// was prepared, the durable branch record is removed. Abort is idempotent.
func (tx *Tx) Abort() error {
	switch tx.status {
	case StatusAborted, StatusCommitted:
		return nil
	case StatusPrepared:
		if err := tx.mgr.store.Apply(stable.Del(tx.mgr.branchKey(tx.id))); err != nil {
			return fmt.Errorf("txn %s: abort prepared: %w", tx.id, err)
		}
	}
	for i := len(tx.undo) - 1; i >= 0; i-- {
		tx.undo[i]()
	}
	tx.status = StatusAborted
	tx.mgr.traceOp("abort", tx.id)
	tx.releaseLocks()
	return nil
}

// Prepare turns the transaction into a durable prepared branch: the redo
// batch is persisted under the transaction ID while locks stay held. After
// Prepare, the branch survives crashes and must be resolved by
// CommitPrepared, Abort, or (post-crash) Manager.ResolveBranch.
func (tx *Tx) Prepare() error {
	if tx.status != StatusActive {
		return fmt.Errorf("%w: %s", ErrNotActive, tx.status)
	}
	ops, err := tx.materialize()
	if err != nil {
		return fmt.Errorf("txn %s: prepare: %w", tx.id, err)
	}
	rec, err := wire.Encode(ops)
	if err != nil {
		return err
	}
	if err := tx.mgr.store.Apply(stable.Put(tx.mgr.branchKey(tx.id), rec)); err != nil {
		return fmt.Errorf("txn %s: prepare: %w", tx.id, err)
	}
	// Pin the materialized batch so CommitPrepared applies exactly what
	// was persisted in the branch record.
	tx.pending = tx.pending[:0]
	for _, op := range ops {
		tx.pending = append(tx.pending, pendingOp{op: op})
	}
	tx.status = StatusPrepared
	tx.mgr.traceOp("prepare", tx.id)
	return nil
}

// CommitPrepared commits a prepared branch: the redo batch is applied and
// the branch record removed in one atomic batch, then locks are released.
func (tx *Tx) CommitPrepared() error {
	if tx.status != StatusPrepared {
		return fmt.Errorf("%w: %s", ErrNotPrepared, tx.status)
	}
	ops, err := tx.materialize() // pinned eager ops after Prepare
	if err != nil {
		return fmt.Errorf("txn %s: commit prepared: %w", tx.id, err)
	}
	batch := append(ops, stable.Del(tx.mgr.branchKey(tx.id)))
	if err := tx.mgr.store.Apply(batch...); err != nil {
		return fmt.Errorf("txn %s: commit prepared: %w", tx.id, err)
	}
	tx.status = StatusCommitted
	tx.mgr.traceOp("commit-prepared", tx.id)
	tx.releaseLocks()
	return nil
}

func (tx *Tx) releaseLocks() {
	for i := len(tx.locks) - 1; i >= 0; i-- {
		tx.locks[i].release(tx)
	}
	tx.locks = nil
}

// DecisionOp returns the stable-store op recording a commit decision for
// the distributed transaction id. The coordinator includes it in the same
// commit batch as its local effects, making "decide commit" atomic with
// committing the local branch.
func (m *Manager) DecisionOp(id string) stable.Op {
	return stable.Put(m.decisionKey(id), []byte("c"))
}

// ClearDecisionOp returns the op removing a decision record once every
// participant has acknowledged the outcome.
func (m *Manager) ClearDecisionOp(id string) stable.Op {
	return stable.Del(m.decisionKey(id))
}

// Decided reports whether a commit decision was recorded for id. Absence
// means abort (presumed abort).
func (m *Manager) Decided(id string) (bool, error) {
	_, ok, err := m.store.Get(m.decisionKey(id))
	return ok, err
}

// InDoubtBranches lists prepared branches surviving a crash.
func (m *Manager) InDoubtBranches() ([]string, error) {
	keys, err := m.store.Keys("txn/branch/")
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(keys))
	for i, k := range keys {
		ids[i] = k[len("txn/branch/"):]
	}
	return ids, nil
}

// ResolveBranch resolves an in-doubt prepared branch after a crash: if
// commit, the persisted redo batch is applied; either way the branch record
// is removed. Callers must resolve branches before re-loading resource
// state into memory.
func (m *Manager) ResolveBranch(id string, commit bool) error {
	raw, ok, err := m.store.Get(m.branchKey(id))
	if err != nil {
		return err
	}
	if !ok {
		return nil // already resolved
	}
	if !commit {
		return m.store.Apply(stable.Del(m.branchKey(id)))
	}
	var ops []stable.Op
	if err := wire.Decode(raw, &ops); err != nil {
		return fmt.Errorf("txn: corrupt branch %q: %w", id, err)
	}
	return m.store.Apply(append(ops, stable.Del(m.branchKey(id)))...)
}
