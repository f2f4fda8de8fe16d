// Package stable provides the stable storage required by the exactly-once
// execution protocol and the rollback mechanism.
//
// The paper keeps agents in per-node *agent input queues* residing on
// stable storage (§2) and requires that the agent, its rollback log and the
// rollback target survive node crashes between transactions (§4.3). This
// package provides:
//
//   - Store: a key-value store whose mutations are applied in atomic
//     batches, so a transaction commit (queue removal + remote hand-off
//     bookkeeping + decision record) is a single crash-consistent action.
//   - Spec/Open: the single configuration value and constructor through
//     which every engine (and the replication wrapper around it) is built.
//   - MemStore: in-memory store that survives *simulated* node crashes
//     (the cluster keeps it while the node's volatile state is discarded).
//   - Queue: a FIFO agent input queue with staged (prepared) entries for
//     two-phase commit.
//   - GroupCommit: the leader-election loop that coalesces concurrent
//     Apply callers into one commit, shared by wal.Store and repl.Store.
//
// The one durable engine, the log-structured WAL that survives real
// process death (cmd/agentnode's default), lives in the stable/wal
// subpackage and the primary/backup replication layer in stable/repl;
// both register with or wrap the engines opened here.
package stable

import "errors"

// Op is one mutation in an atomic batch. A nil Value deletes the key.
type Op struct {
	Key   string
	Value []byte
}

// Put returns an Op writing value under key.
func Put(key string, value []byte) Op { return Op{Key: key, Value: value} }

// Del returns an Op deleting key.
func Del(key string) Op { return Op{Key: key} }

// ErrClosed is returned by stores after Close.
var ErrClosed = errors.New("stable: store closed")

// Reader is the read half of a store.
type Reader interface {
	// Get returns the value stored under key, and whether it exists.
	Get(key string) ([]byte, bool, error)
	// Keys returns all keys with the given prefix in lexicographic order.
	Keys(prefix string) ([]string, error)
}

// Applier is the write half of a store. Apply executes the whole batch
// atomically with respect to crashes and concurrent readers.
type Applier interface {
	// Apply executes the batch atomically.
	Apply(batch ...Op) error
}

// Store is a crash-consistent key-value store: the composition of the
// Reader and Applier halves. Optional behaviours are expressed as
// capability interfaces (Reopener, Replicated) rather than widening this
// one.
type Store interface {
	Reader
	Applier
}

// Reopener is the capability of durable engines that hold an open handle
// (files, segment writers) on their directory. Crash simulation must
// Close the handle before the directory can be reopened through Open,
// and process shutdown must Close it to release resources. In-memory
// stores do not implement it.
type Reopener interface {
	Store
	Close() error
}

// ReplStatus describes the replication state of a Replicated store.
type ReplStatus struct {
	// Epoch counts promotions: it bumps each time a different physical
	// copy becomes the authoritative one.
	Epoch uint64
	// LSN is the sequence number of the last locally committed record.
	LSN uint64
	// Acked maps each follower to the highest LSN it has durably
	// acknowledged in the current epoch.
	Acked map[string]uint64
}

// Replicated is the capability of stores that ship committed batches to
// follower replicas (stable/repl). Callers use it to observe replication
// lag and to wait for quiescence in tests.
type Replicated interface {
	Store
	ReplStatus() ReplStatus
}

// Close releases s if it is a durable engine holding a handle (a
// Reopener); volatile stores are left untouched. It replaces the
// io.Closer type-assertions previously scattered over crash/shutdown
// paths: closing is an engine capability, not an accident of
// implementation.
func Close(s Store) error {
	if r, ok := s.(Reopener); ok {
		return r.Close()
	}
	return nil
}
