package txn

import (
	"testing"

	"repro/internal/stable"
)

// TestLazyOpEncodedOncePerTxn: N persist calls for the same key must
// resolve to one encode of the final state at commit.
func TestLazyOpEncodedOncePerTxn(t *testing.T) {
	store := stable.NewMemStore(nil)
	m, err := NewManager("n1", store)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	state := 0
	encodes := 0
	for i := 1; i <= 5; i++ {
		state = i
		tx.AddLazyOp("res/x", func() ([]byte, error) {
			encodes++
			return []byte{byte(state)}, nil
		})
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if encodes != 1 {
		t.Errorf("encodes = %d, want 1 (last-writer-wins before encoding)", encodes)
	}
	v, ok, err := store.Get("res/x")
	if err != nil || !ok || v[0] != 5 {
		t.Errorf("persisted %v %v %v, want final state 5", v, ok, err)
	}
}

// TestLazyOpNotRunOnAbort: an aborted transaction must never encode.
func TestLazyOpNotRunOnAbort(t *testing.T) {
	store := stable.NewMemStore(nil)
	m, err := NewManager("n1", store)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	tx.AddLazyOp("res/x", func() ([]byte, error) {
		ran = true
		return nil, nil
	})
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("lazy op ran on abort")
	}
	if _, ok, _ := store.Get("res/x"); ok {
		t.Error("aborted lazy op persisted")
	}
}

// TestLazyOpPreparedBranch: the branch record persisted at Prepare must
// hold the materialized value, and CommitPrepared must not re-encode.
func TestLazyOpPreparedBranch(t *testing.T) {
	store := stable.NewMemStore(nil)
	m, err := NewManager("n1", store)
	if err != nil {
		t.Fatal(err)
	}
	tx := m.BeginWithID("co#1")
	encodes := 0
	tx.AddLazyOp("res/x", func() ([]byte, error) {
		encodes++
		return []byte("v"), nil
	})
	if err := tx.PrepareDelegated("d"); err != nil {
		t.Fatal(err)
	}
	if encodes != 1 {
		t.Fatalf("encodes after prepare = %d, want 1", encodes)
	}
	if err := tx.CommitPrepared(); err != nil {
		t.Fatal(err)
	}
	if encodes != 1 {
		t.Errorf("encodes after commit = %d, want 1 (pinned at prepare)", encodes)
	}
	v, ok, _ := store.Get("res/x")
	if !ok || string(v) != "v" {
		t.Errorf("persisted %q %v", v, ok)
	}
}

// TestLazyOpInterleavedWithEager: last-writer-wins must hold across eager
// and lazy ops on the same key.
func TestLazyOpInterleavedWithEager(t *testing.T) {
	store := stable.NewMemStore(nil)
	m, err := NewManager("n1", store)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tx.AddLazyOp("k", func() ([]byte, error) { return []byte("lazy"), nil })
	tx.AddCommitOps(stable.Put("k", []byte("eager")))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	v, _, _ := store.Get("k")
	if string(v) != "eager" {
		t.Errorf("k = %q, want eager (registered last)", v)
	}
}
