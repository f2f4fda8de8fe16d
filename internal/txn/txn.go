// Package txn provides the transactional substrate the paper assumes
// ("transactional resource managers", §1-2): local ACID transactions over
// node resources, plus the building blocks of the distributed commit used
// by step and compensation transactions (durable prepared branches naming
// their decider, the decider's durable outcome records; presumed abort).
//
// Model. A local transaction (Tx) accumulates three things while resources
// execute operations under it:
//
//   - volatile undo closures restoring in-memory resource state on abort;
//   - a batch of stable-store mutations applied atomically at commit
//     (redo); this makes commit crash-consistent: either the whole batch
//     (queue removal, resource states, enqueue bookkeeping, outcome
//     record) is applied or none of it;
//   - resource locks (strict two-phase locking, coarse per-resource
//     granularity) held until commit or abort.
//
// Every distributed transaction has one decider (DESIGN.md §5): the node
// that receives the container, or the compensating node when its agent
// stays. Every other party — the source of a hand-off, the RCE parties
// of a compensation — turns its Tx into a durable *prepared branch*
// naming the decider (Tx.PrepareDelegated): the redo batch is persisted
// under the transaction ID, locks remain held, and the branch survives a
// crash. The decider writes its verdict as an outcome record (OutcomeOp)
// atomically with its own effects; a party that recovers with an
// in-doubt branch asks the decider. The source's Mark bounds which of
// those records the decider may collect.
package txn

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/stable"
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
	seq      uint64              // last ID handed out
	reserved uint64              // persisted high-water mark: IDs up to it need no write
	open     map[uint64]struct{} // own transactions not yet settled (see Mark)

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
// across restarts (the unused rest of the last block is skipped). Its own
// prepared branches that survived a crash stay open until resolved.
func NewManager(node string, store stable.Store) (*Manager, error) {
	m := &Manager{node: node, store: store, LockTimeout: 2 * time.Second, open: make(map[uint64]struct{})}
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
	ids, err := m.InDoubtBranches()
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		if seq, ok := m.ownSeq(id); ok {
			m.open[seq] = struct{}{}
		}
	}
	return m, nil
}

// ownSeq returns the sequence number of one of this manager's IDs
// ("<node>#<seq>"); ok is false for any other ID.
func (m *Manager) ownSeq(id string) (uint64, bool) {
	rest, ok := strings.CutPrefix(id, m.node+"#")
	if !ok {
		return 0, false
	}
	seq, err := strconv.ParseUint(rest, 10, 64)
	return seq, err == nil
}

// Mark is the watermark a source sends its deciders (DESIGN.md §5): the
// lowest sequence number among this manager's transactions not yet
// settled — begun and not yet committed or aborted, prepared, or
// recovered in doubt — or the next sequence number if there are none.
// Every transaction below the mark has settled, so it will never ask a
// decider again. Active transactions count because one begun earlier
// may still hand off later.
func (m *Manager) Mark() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	mark := m.seq + 1
	for seq := range m.open {
		mark = min(mark, seq)
	}
	return mark
}

// settle takes an own transaction out of the open set.
func (m *Manager) settle(seq uint64) {
	if seq == 0 {
		return // a foreign ID (BeginWithID): never counted
	}
	m.mu.Lock()
	delete(m.open, seq)
	m.mu.Unlock()
}

// BranchPrefix prefixes the durable record of every prepared branch.
const BranchPrefix = "txn/branch/"

func (m *Manager) seqKey() string             { return "txnseq" }
func (m *Manager) branchKey(id string) string { return BranchPrefix + id }

// Node returns the owning node name.
func (m *Manager) Node() string { return m.node }

// Store returns the manager's stable store.
func (m *Manager) Store() stable.Store { return m.store }

// idBlock is how many transaction IDs one write of the counter reserves.
const idBlock = 64

// Begin starts a local transaction with a fresh ID. IDs are reserved in
// blocks of idBlock: the counter is persisted when a block is exhausted,
// not per ID, so IDs skip after a restart but never repeat. The
// transaction holds Mark at or below its sequence number until it
// settles.
func (m *Manager) Begin() (*Tx, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.seq == m.reserved {
		mark := m.reserved + idBlock
		if err := m.store.Apply(stable.Put(m.seqKey(), []byte(strconv.FormatUint(mark, 10)))); err != nil {
			return nil, err
		}
		m.reserved = mark
	}
	m.seq++
	m.open[m.seq] = struct{}{}
	return &Tx{id: m.node + "#" + strconv.FormatUint(m.seq, 10), seq: m.seq, mgr: m, status: StatusActive}, nil
}

// BeginWithID starts a local transaction under an externally supplied ID
// (RCE parties join the compensation transaction they run for this way).
func (m *Manager) BeginWithID(id string) *Tx {
	return &Tx{id: id, mgr: m, status: StatusActive}
}

// Tx is a local transaction. It is not safe for concurrent use; the node
// runtime drives each transaction from a single goroutine.
type Tx struct {
	id     string
	seq    uint64 // own sequence number (Begin); 0 under a foreign ID
	mgr    *Manager
	status Status

	undo     []func()
	pending  []pendingOp
	locks    []*Lock
	onCommit []func()
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

var _ stable.Tx = (*Tx)(nil)

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

// OnCommit registers fn to run once the commit batch is applied (by
// Commit or CommitPrepared), in registration order, before the locks are
// released. An abort, or a commit whose batch fails to apply, drops it. It
// is how the input queue keeps its in-memory order in step with entries
// that land in this transaction's batch (stable.Tx).
func (tx *Tx) OnCommit(fn func()) {
	tx.onCommit = append(tx.onCommit, fn)
}

// committed settles a transaction whose batch has been applied: hooks,
// trace, locks.
func (tx *Tx) committed(op string) {
	tx.status = StatusCommitted
	for _, fn := range tx.onCommit {
		fn()
	}
	tx.mgr.settle(tx.seq)
	tx.mgr.traceOp(op, tx.id)
	tx.releaseLocks()
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
	tx.committed("commit")
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
	tx.mgr.settle(tx.seq)
	tx.mgr.traceOp("abort", tx.id)
	tx.releaseLocks()
	return nil
}

// PrepareDelegated turns the transaction into a durable prepared branch
// of a transaction decider decides: the redo batch is persisted under the
// transaction ID, with the decider's name, while locks stay held. The
// branch survives crashes and must be resolved by CommitPrepared,
// CommitPreparedWith, Abort, or (post-crash) Manager.ResolveBranch; a
// recovered branch knows whom to ask (Manager.Decider).
func (tx *Tx) PrepareDelegated(decider string) error {
	if tx.status != StatusActive {
		return fmt.Errorf("%w: %s", ErrNotActive, tx.status)
	}
	ops, err := tx.materialize()
	if err != nil {
		return fmt.Errorf("txn %s: prepare: %w", tx.id, err)
	}
	if err := tx.mgr.store.Apply(stable.Put(tx.mgr.branchKey(tx.id), appendBranch(nil, decider, ops))); err != nil {
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
func (tx *Tx) CommitPrepared() error { return tx.CommitPreparedWith(tx.mgr.store.Apply) }

// CommitPreparedWith is CommitPrepared through apply, which must apply
// the branch's batch — with whatever ops of its own it adds — in one
// atomic write: a decider that holds a branch of the transaction it
// decides commits the branch inside its own write. If apply fails, the
// branch stays prepared.
func (tx *Tx) CommitPreparedWith(apply func(batch ...stable.Op) error) error {
	if tx.status != StatusPrepared {
		return fmt.Errorf("%w: %s", ErrNotPrepared, tx.status)
	}
	ops, err := tx.materialize() // pinned eager ops after the prepare
	if err != nil {
		return fmt.Errorf("txn %s: commit prepared: %w", tx.id, err)
	}
	if err := apply(append(ops, stable.Del(tx.mgr.branchKey(tx.id)))...); err != nil {
		return fmt.Errorf("txn %s: commit prepared: %w", tx.id, err)
	}
	tx.committed("commit-prepared")
	return nil
}

func (tx *Tx) releaseLocks() {
	for i := len(tx.locks) - 1; i >= 0; i-- {
		tx.locks[i].release(tx)
	}
	tx.locks = nil
}

// Decider returns the node that decides the prepared branch id, or ""
// when there is no such branch.
func (m *Manager) Decider(id string) (string, error) {
	raw, ok, err := m.store.Get(m.branchKey(id))
	if err != nil || !ok {
		return "", err
	}
	decider, _, err := parseBranch(raw)
	if err != nil {
		return "", fmt.Errorf("txn: corrupt branch %q: %w", id, err)
	}
	return decider, nil
}

// InDoubtBranches lists prepared branches surviving a crash.
func (m *Manager) InDoubtBranches() ([]string, error) {
	keys, err := m.store.Keys(BranchPrefix)
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(keys))
	for i, k := range keys {
		ids[i] = k[len(BranchPrefix):]
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
	var ops []stable.Op
	if commit {
		if _, ops, err = parseBranch(raw); err != nil {
			return fmt.Errorf("txn: corrupt branch %q: %w", id, err)
		}
	}
	if err := m.store.Apply(append(ops, stable.Del(m.branchKey(id)))...); err != nil {
		return err
	}
	if seq, own := m.ownSeq(id); own {
		m.settle(seq)
	}
	return nil
}
