// Package storetest is the shared conformance and crash-matrix suite for
// stable.Store implementations. Every engine (MemStore, FileStore, the
// WAL engine, and any future backend) runs the same battery:
//
//   - Conformance: interface semantics — get/keys/apply, batch atomicity
//     (property-based), value isolation, queue linearization over the
//     store (property-based).
//   - CrashMatrix: for durable engines, random batch histories crashed at
//     every fsync boundary (i.e. after every committed Apply — the
//     engine's contract is that an acknowledged batch is durable), then
//     reopened and verified against a model, including double-reopens and
//     reopen-then-write-then-crash chains.
//
// The suite lives outside the _test files so the stable package, the wal
// package and engine packages added later can all invoke it without
// import cycles.
package storetest

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/stable"
)

// Factory builds a fresh, empty store for one subtest.
type Factory func(t *testing.T) stable.Store

// ReopenFactory opens (or re-opens) a durable store rooted at dir. The
// suite calls it multiple times on the same dir to model process
// restarts; the returned store is closed (via the stable.Reopener
// capability) when the suite is done with that incarnation.
type ReopenFactory func(t *testing.T, dir string) stable.Store

// Conformance runs the interface-semantics battery against one engine.
func Conformance(t *testing.T, f Factory) {
	t.Run("Basics", func(t *testing.T) { testBasics(t, f(t)) })
	t.Run("ValueIsolation", func(t *testing.T) { testValueIsolation(t, f(t)) })
	t.Run("PrefixKeys", func(t *testing.T) { testPrefixKeys(t, f(t)) })
	t.Run("EmptyValue", func(t *testing.T) {
		s := f(t)
		putEmptyValue(t, s)
		checkEmptyValue(t, s)
	})
	t.Run("BatchAtomicity", func(t *testing.T) { testBatchAtomicity(t, f) })
	t.Run("QueueLinearization", func(t *testing.T) { testQueueLinearization(t, f) })
}

func testBasics(t *testing.T, s stable.Store) {
	if _, ok, err := s.Get("missing"); err != nil || ok {
		t.Errorf("missing key: %v %v", ok, err)
	}
	if err := s.Apply(stable.Put("a/1", []byte("x")), stable.Put("a/2", []byte("y")), stable.Put("b/1", []byte("z"))); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get("a/1")
	if err != nil || !ok || string(v) != "x" {
		t.Errorf("get a/1 = %q %v %v", v, ok, err)
	}
	keys, err := s.Keys("a/")
	if err != nil || !reflect.DeepEqual(keys, []string{"a/1", "a/2"}) {
		t.Errorf("keys = %v, %v", keys, err)
	}
	if err := s.Apply(stable.Del("a/1"), stable.Put("a/2", []byte("y2"))); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get("a/1"); ok {
		t.Error("a/1 survived delete")
	}
	v, _, _ = s.Get("a/2")
	if string(v) != "y2" {
		t.Errorf("a/2 = %q, want y2", v)
	}
	// Deleting a key that never existed is a no-op, not an error.
	if err := s.Apply(stable.Del("ghost")); err != nil {
		t.Errorf("delete of missing key: %v", err)
	}
	// Empty batch commits trivially.
	if err := s.Apply(); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

func testValueIsolation(t *testing.T, s stable.Store) {
	orig := []byte("hello")
	if err := s.Apply(stable.Put("k", orig)); err != nil {
		t.Fatal(err)
	}
	orig[0] = 'X' // mutate caller's buffer after commit
	v, _, _ := s.Get("k")
	if string(v) != "hello" {
		t.Errorf("stored value shares caller's buffer: %q", v)
	}
	v[0] = 'Y' // mutate returned buffer
	v2, _, _ := s.Get("k")
	if string(v2) != "hello" {
		t.Errorf("returned value aliases store: %q", v2)
	}
}

// putEmptyValue writes an empty value beside a deleted key, the two things
// an Op without bytes can mean: the queue stores an entry without data as
// an empty value and relies on it staying an entry.
func putEmptyValue(t *testing.T, s stable.Store) {
	t.Helper()
	if err := s.Apply(stable.Put("gone", []byte("x")), stable.Put("empty", []byte("x"))); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(stable.Del("gone"), stable.Put("empty", []byte{})); err != nil {
		t.Fatal(err)
	}
}

// checkEmptyValue: Put(k, []byte{}) is present, Del(k) is not.
func checkEmptyValue(t *testing.T, s stable.Store) {
	t.Helper()
	if v, ok, err := s.Get("empty"); err != nil || !ok || len(v) != 0 {
		t.Errorf("empty value = %q present=%v err=%v, want present and empty", v, ok, err)
	}
	if _, ok, err := s.Get("gone"); err != nil || ok {
		t.Errorf("deleted key present=%v err=%v", ok, err)
	}
	if keys, err := s.Keys(""); err != nil || !reflect.DeepEqual(keys, []string{"empty"}) {
		t.Errorf("keys = %v %v, want only the empty-valued one", keys, err)
	}
}

func testPrefixKeys(t *testing.T, s stable.Store) {
	for _, k := range []string{"q/e/3", "q/e/1", "q/s/t9", "other", "q/e/2"} {
		if err := s.Apply(stable.Put(k, []byte{1})); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := s.Keys("q/e/")
	if err != nil || !reflect.DeepEqual(keys, []string{"q/e/1", "q/e/2", "q/e/3"}) {
		t.Errorf("prefix keys = %v %v", keys, err)
	}
	all, err := s.Keys("")
	if err != nil || len(all) != 5 {
		t.Errorf("all keys = %v %v", all, err)
	}
}

// testBatchAtomicity: applying a batch is equivalent to applying its
// deduplicated last-writer-wins projection key by key.
func testBatchAtomicity(t *testing.T, f Factory) {
	err := quick.Check(func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%16) + 1
		batch := make([]stable.Op, n)
		model := map[string]string{}
		for i := range batch {
			key := fmt.Sprintf("k%d", r.Intn(5))
			if r.Intn(3) == 0 {
				batch[i] = stable.Del(key)
				model[key] = ""
			} else {
				val := fmt.Sprintf("v%d", i)
				batch[i] = stable.Put(key, []byte(val))
				model[key] = val
			}
		}
		s := f(t)
		defer closeStore(s)
		if err := s.Apply(batch...); err != nil {
			return false
		}
		for key, want := range model {
			v, ok, err := s.Get(key)
			if err != nil {
				return false
			}
			if want == "" {
				if ok {
					return false
				}
				continue
			}
			if !ok || string(v) != want {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
}

// testQueueLinearization: any random interleaving of direct enqueues and
// prepare/commit/abort staged insertions over the store yields exactly
// the committed entries, in reservation order, with no duplicates or
// resurrections.
func testQueueLinearization(t *testing.T, f Factory) {
	err := quick.Check(func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%24) + 1
		s := f(t)
		defer closeStore(s)
		q := stable.NewQueue(s, "q/")

		type staged struct {
			txn string
			id  string
		}
		var open []staged     // prepared, undecided
		var expected []string // ids in reservation order, "" = never visible

		for i := 0; i < n; i++ {
			switch r.Intn(4) {
			case 0: // direct enqueue
				id := fmt.Sprintf("direct%d", i)
				if err := q.Enqueue(id, []byte(id)); err != nil {
					return false
				}
				expected = append(expected, id)
			case 1: // prepare
				st := staged{txn: fmt.Sprintf("t%d", i), id: fmt.Sprintf("staged%d", i)}
				if err := q.Prepare(st.txn, st.id, []byte(st.id)); err != nil {
					return false
				}
				open = append(open, st)
				expected = append(expected, "pending:"+st.txn)
			case 2: // commit one open staging
				if len(open) == 0 {
					continue
				}
				k := r.Intn(len(open))
				st := open[k]
				open = append(open[:k], open[k+1:]...)
				if err := q.CommitStaged(st.txn); err != nil {
					return false
				}
				for j, e := range expected {
					if e == "pending:"+st.txn {
						expected[j] = st.id
					}
				}
			default: // abort one open staging
				if len(open) == 0 {
					continue
				}
				k := r.Intn(len(open))
				st := open[k]
				open = append(open[:k], open[k+1:]...)
				if err := q.AbortStaged(st.txn); err != nil {
					return false
				}
				for j, e := range expected {
					if e == "pending:"+st.txn {
						expected[j] = ""
					}
				}
			}
		}
		// Abort everything still open so visibility is final.
		for _, st := range open {
			if err := q.AbortStaged(st.txn); err != nil {
				return false
			}
			for j, e := range expected {
				if e == "pending:"+st.txn {
					expected[j] = ""
				}
			}
		}
		// Drain and compare.
		var got []string
		for {
			e, err := q.Peek()
			if err != nil {
				return false
			}
			if e == nil {
				break
			}
			got = append(got, e.ID)
			if err := s.Apply(q.RemoveOp(e)); err != nil {
				return false
			}
		}
		var want []string
		for _, e := range expected {
			if e != "" {
				want = append(want, e)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Error(err)
	}
}

// CrashMatrix runs randomized batch histories against a durable engine,
// crashing at every fsync boundary. The engines under test acknowledge a
// batch only once it is durable, so "crash after the i-th Apply returned"
// — abandoning the running instance without any shutdown — is exactly the
// fsync-boundary crash; reopening must recover the first i batches and
// nothing else. Mid-write (torn) crashes below the batch boundary are
// engine-specific and covered by the engines' own torn-write tests.
func CrashMatrix(t *testing.T, open ReopenFactory) {
	t.Run("empty_value", func(t *testing.T) {
		dir := t.TempDir()
		s := open(t, dir)
		putEmptyValue(t, s)
		r := open(t, dir) // crash: s is abandoned, as below
		checkEmptyValue(t, r)
		closeStore(r)
		closeStore(s)
	})
	const nBatches = 12
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			history, models := buildHistory(seed, nBatches)
			for i := 0; i <= nBatches; i++ {
				i := i
				t.Run(fmt.Sprintf("crash_after=%d", i), func(t *testing.T) {
					dir := t.TempDir()
					s := open(t, dir)
					for _, batch := range history[:i] {
						if err := s.Apply(batch...); err != nil {
							t.Fatal(err)
						}
					}
					// Crash: abandon s without shutdown; a second
					// incarnation on the same dir must see exactly the
					// acknowledged batches. (The file handles of the
					// abandoned instance leak until test exit, like a
					// kill -9's would until process exit.)
					r := open(t, dir)
					verifyModel(t, r, models[i])
					closeStore(r)
					closeStore(s)

					// Reopen once more, write one batch, crash, verify
					// the recovery-then-write-then-crash chain.
					r2 := open(t, dir)
					if err := r2.Apply(stable.Put("post/crash", []byte{byte(i)})); err != nil {
						t.Fatal(err)
					}
					r3 := open(t, dir)
					want := copyModel(models[i])
					want["post/crash"] = string([]byte{byte(i)})
					verifyModel(t, r3, want)
					closeStore(r3)
					closeStore(r2)
				})
			}
		})
	}
}

// buildHistory generates nBatches random batches over a small key space
// and the expected model after each prefix.
func buildHistory(seed int64, nBatches int) ([][]stable.Op, []map[string]string) {
	r := rand.New(rand.NewSource(seed))
	model := map[string]string{}
	history := make([][]stable.Op, nBatches)
	models := make([]map[string]string, nBatches+1)
	models[0] = copyModel(model)
	for i := 0; i < nBatches; i++ {
		n := r.Intn(4) + 1
		batch := make([]stable.Op, n)
		for j := 0; j < n; j++ {
			key := fmt.Sprintf("k/%d", r.Intn(8))
			if r.Intn(4) == 0 {
				batch[j] = stable.Del(key)
				delete(model, key)
			} else {
				val := fmt.Sprintf("s%d-b%d-o%d-%d", seed, i, j, r.Int())
				batch[j] = stable.Put(key, []byte(val))
				model[key] = val
			}
		}
		history[i] = batch
		models[i+1] = copyModel(model)
	}
	return history, models
}

func copyModel(m map[string]string) map[string]string {
	c := make(map[string]string, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func verifyModel(t *testing.T, s stable.Store, model map[string]string) {
	t.Helper()
	keys, err := s.Keys("")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(model) {
		t.Errorf("recovered %d keys, want %d (%v)", len(keys), len(model), keys)
	}
	for k, want := range model {
		v, ok, err := s.Get(k)
		if err != nil || !ok || string(v) != want {
			t.Errorf("recovered %q = %q %v %v, want %q", k, v, ok, err, want)
		}
	}
}

func closeStore(s stable.Store) {
	_ = stable.Close(s)
}
