// Package resource implements the node-local transactional resource
// managers the paper's agents operate on. Every running example of the
// paper is reproduced:
//
//   - Bank: deposit/withdraw/transfer with an overdraft policy; the
//     commuting-operation soundness example and the compensation-failure
//     example of §3.2 (CT must withdraw what T deposited, failing if the
//     balance dropped meanwhile).
//   - Shop: goods with stock; the out-of-stock example of §3.2 and the
//     refund-fee / credit-note compensation policies. Payments land in a
//     till kept as a balance, and refunds are freshly minted coins, so
//     the shop's record does not grow with the trips it serves.
//   - Exchange: currency exchange of digital cash, the paper's example of
//     a *mixed* compensation entry (§4.4.1) needing both the agent's
//     weakly reversible wallet and the resource.
//   - Directory: an information directory, the paper's example of a step
//     whose results live only in strongly reversible objects (§4.3 end).
//
// Resources keep their authoritative state in memory, guarded by a single
// txn.Lock (coarse strict two-phase locking), and persist their full state
// as one binary record (codec.go) into the node's stable store as part of
// each transaction's atomic commit batch. On node recovery the state is
// re-loaded from the store, i.e. it reflects exactly the committed
// transactions.
package resource

import (
	"errors"
	"fmt"

	"repro/internal/stable"
	"repro/internal/txn"
)

// Resource is implemented by every resource manager on a node.
type Resource interface {
	// Name returns the node-unique resource name agents address it by.
	Name() string
	// Kind returns the resource type ("bank", "shop", ...).
	Kind() string
	// ConflictLock exposes the resource's transaction lock for scheduler
	// conflict hints (txn.Lock.Busy); operations still acquire it through
	// the transaction, never directly.
	ConflictLock() *txn.Lock
}

// Common errors surfaced to agents and compensation operations.
var (
	ErrInsufficientFunds = errors.New("resource: insufficient funds")
	ErrOutOfStock        = errors.New("resource: out of stock")
	ErrNoSuchAccount     = errors.New("resource: no such account")
	ErrNoSuchItem        = errors.New("resource: no such item")
	ErrNotCompensable    = errors.New("resource: operation cannot be compensated")
	ErrPermission        = errors.New("resource: permission denied")
)

// base carries the persistence plumbing shared by all resource managers.
type base struct {
	name  string
	kind  string
	typ   byte // the record's type byte (codec.go)
	store stable.Store
	lock  txn.Lock
}

func (b *base) Name() string { return b.name }
func (b *base) Kind() string { return b.kind }

func (b *base) ConflictLock() *txn.Lock { return &b.lock }

// KeyPrefix prefixes every resource's record in a node's stable store.
const KeyPrefix = "res/"

func (b *base) storeKey() string { return KeyPrefix + b.kind + "/" + b.name }

// load decodes persisted state into st; reports whether it existed.
func (b *base) load(st state) (bool, error) {
	raw, ok, err := b.store.Get(b.storeKey())
	if err != nil || !ok {
		return ok, err
	}
	if err := decodeState(raw, b.typ, st); err != nil {
		return false, fmt.Errorf("resource %s: load: %w", b.name, err)
	}
	return true, nil
}

// lockTx acquires the resource lock under tx. Every operation, including
// reads, goes through it (serializability via strict two-phase locking).
func (b *base) lockTx(tx *txn.Tx) error { return tx.Lock(&b.lock) }

// persist schedules st, the (already mutated) state, for atomic
// persistence at commit. The encode is lazy: the transaction materializes
// the op at commit/prepare time, after last-writer-wins dedup, so a
// transaction touching this resource N times pays one state encode
// instead of N. The closure runs while the resource lock is still held,
// so it captures the transaction's final state.
func (b *base) persist(tx *txn.Tx, st state) {
	tx.AddLazyOp(b.storeKey(), func() ([]byte, error) {
		return encodeState(b.typ, st), nil
	})
}
