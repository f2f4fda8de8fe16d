package stable_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stable"
	"repro/internal/stable/repl"
	"repro/internal/stable/storetest"
	"repro/internal/stable/wal"
)

// TestStoreConformance runs the shared conformance battery against every
// engine. CI's storage matrix selects one engine per job via
// -run 'TestStoreConformance/<engine>'.
func TestStoreConformance(t *testing.T) {
	t.Run("mem", func(t *testing.T) {
		storetest.Conformance(t, func(t *testing.T) stable.Store {
			return stable.NewMemStore(nil)
		})
	})
	t.Run("wal", func(t *testing.T) {
		storetest.Conformance(t, func(t *testing.T) stable.Store {
			s, err := wal.Open(t.TempDir(), wal.Options{NoBackground: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = s.Close() })
			return s
		})
	})
	// The WAL engine must also conform with aggressive rotation,
	// checkpointing and compaction churning underneath the interface.
	t.Run("wal-tiny-segments", func(t *testing.T) {
		storetest.Conformance(t, func(t *testing.T) stable.Store {
			s, err := wal.Open(t.TempDir(), wal.Options{
				SegmentSize:     128,
				CheckpointEvery: 256,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = s.Close() })
			return s
		})
	})
	// The replication wrapper is itself a stable.Store and must preserve
	// the engine semantics exactly — including hiding its own meta record
	// from readers. Unbound, so commits retain locally (nothing to ack).
	t.Run("repl", func(t *testing.T) {
		storetest.Conformance(t, func(t *testing.T) stable.Store {
			inner, err := wal.Open(t.TempDir(), wal.Options{NoBackground: true})
			if err != nil {
				t.Fatal(err)
			}
			s, err := repl.Wrap(inner, repl.Options{
				Shard: "n0", Followers: []string{"n1"}, Acks: 1,
				ResendEvery: time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = s.Close() })
			return s
		})
	})
}

// TestStoreCrashMatrix crashes each durable engine at every fsync
// boundary of randomized histories and verifies recovery (MemStore is
// volatile by design and exempt).
func TestStoreCrashMatrix(t *testing.T) {
	t.Run("wal", func(t *testing.T) {
		storetest.CrashMatrix(t, func(t *testing.T, dir string) stable.Store {
			s, err := wal.Open(dir, wal.Options{NoBackground: true})
			if err != nil {
				t.Fatal(err)
			}
			return s
		})
	})
	// Small segments + eager checkpoints and compaction: recovery must
	// compose with rotation and checkpoint-bounded replay at every crash
	// point. Maintenance runs synchronously through the wrapper (an
	// abandoned instance's background goroutine would keep mutating the
	// directory after the "crash", which a dead process cannot).
	t.Run("wal-tiny-segments", func(t *testing.T) {
		storetest.CrashMatrix(t, func(t *testing.T, dir string) stable.Store {
			s, err := wal.Open(dir, wal.Options{
				SegmentSize:  96,
				NoBackground: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			return &ckptEveryN{Store: s, every: 3}
		})
	})
	// A replicated store's crash durability is its inner engine's: every
	// crash point must recover identically through the wrapper, with the
	// replication position resuming alongside. (Abandoned incarnations
	// keep an inert resend goroutine until test exit, like their leaked
	// file handles.)
	t.Run("repl", func(t *testing.T) {
		storetest.CrashMatrix(t, func(t *testing.T, dir string) stable.Store {
			inner, err := wal.Open(dir, wal.Options{NoBackground: true})
			if err != nil {
				t.Fatal(err)
			}
			s, err := repl.Wrap(inner, repl.Options{
				Shard: "n0", Followers: []string{"n1"}, Acks: 1,
				ResendEvery: time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			return s
		})
	})
}

// ckptEveryN checkpoints and compacts after every N applies,
// synchronously, so crash points land on both sides of checkpoints. The
// count is atomic: the concurrent_apply case calls Apply from many
// goroutines.
type ckptEveryN struct {
	*wal.Store
	n     atomic.Int64
	every int64
}

func (c *ckptEveryN) Apply(ops ...stable.Op) error {
	if err := c.Store.Apply(ops...); err != nil {
		return err
	}
	if c.n.Add(1)%c.every == 0 {
		if err := c.Store.Checkpoint(); err != nil {
			return err
		}
		if err := c.Store.Compact(); err != nil {
			return err
		}
	}
	return nil
}
