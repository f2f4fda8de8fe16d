package txn

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/stable"
)

func newMgr(t *testing.T) (*Manager, *stable.MemStore) {
	t.Helper()
	store := stable.NewMemStore(nil)
	m, err := NewManager("n1", store)
	if err != nil {
		t.Fatal(err)
	}
	return m, store
}

func TestCommitAppliesOps(t *testing.T) {
	m, store := newMgr(t)
	tx, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tx.AddCommitOps(stable.Put("k1", []byte("v1")), stable.Put("k2", []byte("v2")))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := store.Get("k1"); !ok || string(v) != "v1" {
		t.Errorf("k1 = %q %v", v, ok)
	}
	if tx.Status() != StatusCommitted {
		t.Errorf("status = %v", tx.Status())
	}
}

func TestAbortRunsUndoReverse(t *testing.T) {
	m, store := newMgr(t)
	tx, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	tx.RecordUndo(func() { order = append(order, 1) })
	tx.RecordUndo(func() { order = append(order, 2) })
	tx.AddCommitOps(stable.Put("k", []byte("v")))
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Errorf("undo order = %v, want [2 1]", order)
	}
	if _, ok, _ := store.Get("k"); ok {
		t.Error("aborted tx applied ops")
	}
	// Idempotent.
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 {
		t.Error("second abort re-ran undos")
	}
}

func TestCommitOpsDeduplicatedLastWins(t *testing.T) {
	m, store := newMgr(t)
	tx, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tx.AddCommitOps(stable.Put("k", []byte("old")))
	tx.AddCommitOps(stable.Put("k", []byte("new")))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := store.Get("k"); string(v) != "new" {
		t.Errorf("k = %q, want new", v)
	}
}

func TestLockConflictTimesOut(t *testing.T) {
	m, _ := newMgr(t)
	m.LockTimeout = 20 * time.Millisecond
	var l Lock
	tx1, _ := m.Begin()
	tx2, _ := m.Begin()
	if err := tx1.Lock(&l); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Lock(&l); !errors.Is(err, ErrLockTimeout) {
		t.Errorf("err = %v, want ErrLockTimeout", err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	tx3, _ := m.Begin()
	if err := tx3.Lock(&l); err != nil {
		t.Errorf("lock after release: %v", err)
	}
	_ = tx3.Abort()
}

func TestLockReentrant(t *testing.T) {
	m, _ := newMgr(t)
	var l Lock
	tx, _ := m.Begin()
	if err := tx.Lock(&l); err != nil {
		t.Fatal(err)
	}
	if err := tx.Lock(&l); err != nil {
		t.Errorf("re-lock by holder: %v", err)
	}
	_ = tx.Abort()
}

func TestLockHandoffWakesWaiter(t *testing.T) {
	m, _ := newMgr(t)
	m.LockTimeout = time.Second
	var l Lock
	tx1, _ := m.Begin()
	if err := tx1.Lock(&l); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() {
		tx2, _ := m.Begin()
		acquired <- tx2.Lock(&l)
	}()
	time.Sleep(10 * time.Millisecond)
	if err := tx1.Abort(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-acquired:
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter never woken")
	}
}

func TestPrepareCommitPrepared(t *testing.T) {
	m, store := newMgr(t)
	tx := m.BeginWithID("co#1")
	tx.AddCommitOps(stable.Put("k", []byte("v")))
	if err := tx.Prepare(); err != nil {
		t.Fatal(err)
	}
	// Branch record durable, ops not yet applied.
	ids, err := m.InDoubtBranches()
	if err != nil || len(ids) != 1 || ids[0] != "co#1" {
		t.Fatalf("in-doubt = %v, %v", ids, err)
	}
	if _, ok, _ := store.Get("k"); ok {
		t.Error("ops applied at prepare")
	}
	if err := tx.CommitPrepared(); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := store.Get("k"); string(v) != "v" {
		t.Errorf("k = %q", v)
	}
	if ids, _ := m.InDoubtBranches(); len(ids) != 0 {
		t.Errorf("branch record survives commit: %v", ids)
	}
}

func TestAbortPreparedClearsBranch(t *testing.T) {
	m, store := newMgr(t)
	tx := m.BeginWithID("co#2")
	tx.AddCommitOps(stable.Put("k", []byte("v")))
	restored := false
	tx.RecordUndo(func() { restored = true })
	if err := tx.Prepare(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if !restored {
		t.Error("undo not run on prepared abort")
	}
	if ids, _ := m.InDoubtBranches(); len(ids) != 0 {
		t.Errorf("branch record survives abort: %v", ids)
	}
	if _, ok, _ := store.Get("k"); ok {
		t.Error("aborted branch applied ops")
	}
}

func TestResolveBranchAfterCrash(t *testing.T) {
	// Simulate: participant prepared, crashed (volatile Tx lost), then
	// the coordinator's verdict arrives.
	for _, commit := range []bool{true, false} {
		m, store := newMgr(t)
		tx := m.BeginWithID("co#9")
		tx.AddCommitOps(stable.Put("k", []byte("v")))
		if err := tx.Prepare(); err != nil {
			t.Fatal(err)
		}
		// "Crash": drop tx. Recovery resolves from the durable record.
		m2, err := NewManager("n1", store)
		if err != nil {
			t.Fatal(err)
		}
		if err := m2.ResolveBranch("co#9", commit); err != nil {
			t.Fatal(err)
		}
		_, ok, _ := store.Get("k")
		if ok != commit {
			t.Errorf("commit=%v: key present=%v", commit, ok)
		}
		if ids, _ := m2.InDoubtBranches(); len(ids) != 0 {
			t.Errorf("commit=%v: branch record not cleared", commit)
		}
		// Resolving twice is harmless.
		if err := m2.ResolveBranch("co#9", commit); err != nil {
			t.Errorf("re-resolve: %v", err)
		}
	}
}

func TestDecisionRecords(t *testing.T) {
	m, store := newMgr(t)
	if ok, err := m.Decided("tx9"); err != nil || ok {
		t.Errorf("Decided on unknown = %v, %v", ok, err)
	}
	if err := store.Apply(m.DecisionOp("tx9")); err != nil {
		t.Fatal(err)
	}
	if ok, _ := m.Decided("tx9"); !ok {
		t.Error("decision record not found")
	}
	if err := store.Apply(m.ClearDecisionOp("tx9")); err != nil {
		t.Fatal(err)
	}
	if ok, _ := m.Decided("tx9"); ok {
		t.Error("decision record not cleared")
	}
}

func TestIDsUniqueAcrossRestart(t *testing.T) {
	store := stable.NewMemStore(nil)
	m1, err := NewManager("n1", store)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for i := 0; i < 5; i++ {
		id, err := m1.NewID()
		if err != nil {
			t.Fatal(err)
		}
		if seen[id] {
			t.Fatalf("duplicate id %s", id)
		}
		seen[id] = true
	}
	m2, err := NewManager("n1", store) // restart on same store
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		id, err := m2.NewID()
		if err != nil {
			t.Fatal(err)
		}
		if seen[id] {
			t.Fatalf("id %s repeated after restart", id)
		}
		seen[id] = true
	}
}

// TestIDsReservedInBlocks: the counter is written once per block of IDs,
// not once per ID, and a restart resumes past the block the last manager
// had reserved — IDs skip, they do not repeat.
func TestIDsReservedInBlocks(t *testing.T) {
	c := &metrics.Counters{}
	store := stable.NewMemStore(c)
	m1, err := NewManager("n1", store)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= idBlock+1; i++ {
		id, err := m1.NewID()
		if want := fmt.Sprintf("n1#%d", i); err != nil || id != want {
			t.Fatalf("id %d = %q, %v; want %q", i, id, err, want)
		}
		if writes, want := c.Snapshot().StableWrites, int64((i+idBlock-1)/idBlock); writes != want {
			t.Fatalf("%d IDs cost %d counter writes, want %d", i, writes, want)
		}
	}
	m2, err := NewManager("n1", store)
	if err != nil {
		t.Fatal(err)
	}
	if id, err := m2.NewID(); err != nil || id != fmt.Sprintf("n1#%d", 2*idBlock+1) {
		t.Errorf("first id after restart = %q, %v; want the one past the reserved blocks", id, err)
	}
}

func TestCommitOnAbortedFails(t *testing.T) {
	m, _ := newMgr(t)
	tx, _ := m.Begin()
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrNotActive) {
		t.Errorf("err = %v, want ErrNotActive", err)
	}
}

func TestCommitPreparedRequiresPrepare(t *testing.T) {
	m, _ := newMgr(t)
	tx, _ := m.Begin()
	if err := tx.CommitPrepared(); !errors.Is(err, ErrNotPrepared) {
		t.Errorf("err = %v, want ErrNotPrepared", err)
	}
	_ = tx.Abort()
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		StatusActive:    "active",
		StatusPrepared:  "prepared",
		StatusCommitted: "committed",
		StatusAborted:   "aborted",
		Status(42):      "unknown(42)",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestLockBusyHint(t *testing.T) {
	m, _ := newMgr(t)
	var l Lock
	if l.Busy() {
		t.Error("fresh lock reported busy")
	}
	tx, _ := m.Begin()
	if err := tx.Lock(&l); err != nil {
		t.Fatal(err)
	}
	if !l.Busy() {
		t.Error("held lock reported idle")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if l.Busy() {
		t.Error("released lock reported busy")
	}
}
