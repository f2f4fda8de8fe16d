package stable

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wire"
)

// Store interface conformance (basics, value isolation, batch atomicity,
// queue linearization) lives in the shared suite: see storetest and
// conformance_test.go, which run it against every engine.

func TestFileStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenFileStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Apply(Put("key", []byte("persisted"))); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFileStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, ok, err := s2.Get("key")
	if err != nil || !ok || string(v) != "persisted" {
		t.Errorf("reopen: %q %v %v", v, ok, err)
	}
}

func TestFileStoreJournalReplay(t *testing.T) {
	// Simulate a crash between journal write and batch apply: a valid
	// journal exists, the kv files do not. Opening must replay it.
	dir := t.TempDir()
	batch := []Op{Put("a", []byte("1")), Del("b")}
	data, err := wire.Encode(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "kv"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFileStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get("a")
	if err != nil || !ok || string(v) != "1" {
		t.Errorf("journal not replayed: %q %v %v", v, ok, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "journal")); !os.IsNotExist(err) {
		t.Error("journal not cleared after replay")
	}
}

func TestFileStoreTornJournalDiscarded(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "kv"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFileStore(dir, nil)
	if err != nil {
		t.Fatalf("torn journal should be discarded, got %v", err)
	}
	if _, ok, _ := s.Get("a"); ok {
		t.Error("torn journal applied")
	}
}

func TestQueueAbortStaged(t *testing.T) {
	s := NewMemStore(nil)
	q := NewQueue(s, "q/")
	if err := q.Prepare("tx1", "a", []byte("d")); err != nil {
		t.Fatal(err)
	}
	if err := q.AbortStaged("tx1"); err != nil {
		t.Fatal(err)
	}
	if staged, _ := q.StagedTxns(); len(staged) != 0 {
		t.Errorf("staged after abort = %v", staged)
	}
	// Commit after abort is a no-op (no resurrection).
	if err := q.CommitStaged("tx1"); err != nil {
		t.Fatal(err)
	}
	if e, _ := q.Peek(); e != nil {
		t.Error("aborted entry resurrected by commit")
	}
}

func TestQueueStagedKeepsReservedPosition(t *testing.T) {
	s := NewMemStore(nil)
	q := NewQueue(s, "q/")
	if err := q.Prepare("tx1", "early", nil); err != nil {
		t.Fatal(err)
	}
	if err := q.Enqueue("late", nil); err != nil {
		t.Fatal(err)
	}
	if err := q.CommitStaged("tx1"); err != nil {
		t.Fatal(err)
	}
	e, err := q.Peek()
	if err != nil || e == nil || e.ID != "early" {
		t.Errorf("head = %v, want early (reserved position)", e)
	}
}

func TestQueueEnqueueOps(t *testing.T) {
	s := NewMemStore(nil)
	q := NewQueue(s, "q/")
	ops, err := q.EnqueueOps("a1", []byte("d"))
	if err != nil {
		t.Fatal(err)
	}
	// Not visible until the ops are applied.
	if e, _ := q.Peek(); e != nil {
		t.Error("entry visible before ops applied")
	}
	if err := s.Apply(ops...); err != nil {
		t.Fatal(err)
	}
	e, err := q.Peek()
	if err != nil || e == nil || e.ID != "a1" {
		t.Errorf("after apply: %v %v", e, err)
	}
}

func TestQueueNotify(t *testing.T) {
	s := NewMemStore(nil)
	q := NewQueue(s, "q/")
	// Broadcast contract: grab the channel first; a later enqueue closes
	// it, waking every holder.
	ch := q.Notify()
	if err := q.Enqueue("a", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	default:
		t.Error("no notification after enqueue")
	}
	// A channel grabbed after the signal only reports future arrivals.
	select {
	case <-q.Notify():
		t.Error("stale notification on fresh channel")
	default:
	}
}

func TestQueueSeparatePrefixes(t *testing.T) {
	s := NewMemStore(nil)
	q1 := NewQueue(s, "q1/")
	q2 := NewQueue(s, "q2/")
	if err := q1.Enqueue("a", nil); err != nil {
		t.Fatal(err)
	}
	if e, _ := q2.Peek(); e != nil {
		t.Error("queues share entries across prefixes")
	}
}
