package stable_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/stable"
	"repro/internal/stable/wal"
	"repro/internal/txn"
)

// storeImpls runs a queue subtest over the volatile store and the durable
// engine.
func storeImpls(t *testing.T, fn func(t *testing.T, s stable.Store)) {
	t.Helper()
	t.Run("mem", func(t *testing.T) { fn(t, stable.NewMemStore(nil)) })
	t.Run("wal", func(t *testing.T) {
		s, err := wal.Open(t.TempDir(), wal.Options{NoBackground: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		fn(t, s)
	})
}

// beginTx starts a transaction over s, the way a step transaction joins
// queue writes to its commit batch.
func beginTx(t *testing.T, s stable.Store) *txn.Tx {
	t.Helper()
	m, err := txn.NewManager("n", s)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

// TestQueueEnqueueIn: an entry enqueued in a transaction is invisible
// until the transaction commits, and never appears if it aborts.
func TestQueueEnqueueIn(t *testing.T) {
	storeImpls(t, func(t *testing.T, s stable.Store) {
		q := stable.NewQueue(s, "q/")
		tx := beginTx(t, s)
		if err := q.EnqueueIn(tx, "a1", []byte("d")); err != nil {
			t.Fatal(err)
		}
		if e, _ := q.Peek(); e != nil {
			t.Error("entry visible before the transaction committed")
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		e, err := q.Peek()
		if err != nil || e == nil || e.ID != "a1" {
			t.Errorf("after commit: %v %v", e, err)
		}
		tx = beginTx(t, s)
		if err := q.EnqueueIn(tx, "a2", []byte("d")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		if n, _ := q.Len(); n != 1 {
			t.Errorf("Len after an aborted enqueue = %d, want 1", n)
		}
	})
}

func TestQueueFIFO(t *testing.T) {
	storeImpls(t, func(t *testing.T, s stable.Store) {
		q := stable.NewQueue(s, "q/")
		for _, id := range []string{"first", "second", "third"} {
			if err := q.Enqueue(id, []byte(id+"-data")); err != nil {
				t.Fatal(err)
			}
		}
		if n, _ := q.Len(); n != 3 {
			t.Fatalf("Len = %d, want 3", n)
		}
		for _, want := range []string{"first", "second", "third"} {
			e, err := q.Peek()
			if err != nil || e == nil {
				t.Fatalf("peek: %v %v", e, err)
			}
			if e.ID != want || string(e.Data) != want+"-data" {
				t.Errorf("peeked %q, want %q", e.ID, want)
			}
			if err := q.Remove(e); err != nil {
				t.Fatal(err)
			}
		}
		e, err := q.Peek()
		if err != nil || e != nil {
			t.Errorf("empty queue peek = %v, %v", e, err)
		}
	})
}

// TestQueueAbortLeavesNoOrphan: an insertion whose transaction aborts
// leaves no entry behind — neither in this queue nor for the next Queue
// over the store — only the burnt sequence number. An entry key left
// behind would surface after a restart: an agent executed twice.
func TestQueueAbortLeavesNoOrphan(t *testing.T) {
	storeImpls(t, func(t *testing.T, s stable.Store) {
		q := stable.NewQueue(s, "q/")
		tx := beginTx(t, s)
		if err := q.EnqueueIn(tx, "agent1", []byte("d1")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		for _, q := range []*stable.Queue{q, stable.NewQueue(s, "q/")} {
			if n, err := q.Len(); err != nil || n != 0 {
				t.Errorf("Len after abort = %d, %v; want 0", n, err)
			}
		}
		if keys, err := s.Keys("q/"); err != nil || !reflect.DeepEqual(keys, []string{"q/seq"}) {
			t.Errorf("keys after abort = %q, %v; want q/seq alone", keys, err)
		}
	})
}

// TestQueueEnqueueWritesContainerOnce pins the write volume of the
// decider's side of a hand-off: one Enqueue batch carries the container
// once, the counter and the caller's commit record (a few bytes), and
// reads nothing; the entry is visible at once.
func TestQueueEnqueueWritesContainerOnce(t *testing.T) {
	c := &metrics.Counters{}
	s := &getCounter{Store: stable.NewMemStore(c)}
	q := stable.NewQueue(s, "q/")
	if _, err := q.Len(); err != nil { // load before counting reads
		t.Fatal(err)
	}
	const n = 8 << 10
	s.gets = 0
	if err := q.Enqueue("agent1", make([]byte, n), stable.Put("txn/outcome/co#1", []byte{0x90, 0x3a, 1, 1})); err != nil {
		t.Fatal(err)
	}
	if written := c.Snapshot().StableBytes; written < n || written > n+64 || s.gets != 0 {
		t.Errorf("Enqueue of %d bytes with a record wrote %d and made %d reads, want the container once, at most 64 beside it and 0 reads", n, written, s.gets)
	}
	if e, err := q.Peek(); err != nil || e == nil || len(e.Data) != n {
		t.Errorf("entry = %v, %v", e, err)
	}
	if v, ok, err := s.Get("txn/outcome/co#1"); err != nil || !ok || len(v) != 4 {
		t.Errorf("extra op = %q, %v, %v; want it in the same batch", v, ok, err)
	}
}

func TestQueueClaimLease(t *testing.T) {
	storeImpls(t, func(t *testing.T, s stable.Store) {
		q := stable.NewQueue(s, "q/")
		for _, id := range []string{"a", "b", "c"} {
			if err := q.Enqueue(id, []byte(id)); err != nil {
				t.Fatal(err)
			}
		}
		// Claims hand out distinct entries oldest-first.
		e1, depth, err := q.Claim(nil)
		if err != nil || e1 == nil || e1.ID != "a" {
			t.Fatalf("claim 1: %v %v", e1, err)
		}
		if depth != 3 {
			t.Errorf("observed depth = %d, want 3", depth)
		}
		e2, _, err := q.Claim(nil)
		if err != nil || e2 == nil || e2.ID != "b" {
			t.Fatalf("claim 2: %v %v", e2, err)
		}
		if q.Claimed() != 2 {
			t.Errorf("Claimed = %d, want 2", q.Claimed())
		}
		// Peek still sees the oldest entry: claims do not remove.
		if e, _ := q.Peek(); e == nil || e.ID != "a" {
			t.Errorf("peek under claim = %v", e)
		}
		// Releasing makes the entry claimable again, in order.
		q.Release(e1)
		e3, _, err := q.Claim(nil)
		if err != nil || e3 == nil || e3.ID != "a" {
			t.Fatalf("re-claim: %v %v", e3, err)
		}
		// Consuming an entry durably, then releasing the claim.
		if err := q.Remove(e3); err != nil {
			t.Fatal(err)
		}
		q.Release(e3)
		e4, _, err := q.Claim(nil)
		if err != nil || e4 == nil || e4.ID != "c" {
			t.Fatalf("claim after remove: %v %v", e4, err)
		}
		if e, _, err := q.Claim(nil); err != nil || e != nil {
			t.Fatalf("claim on drained queue: %v %v", e, err)
		}
	})
}

func TestQueueClaimPerAgentFIFO(t *testing.T) {
	storeImpls(t, func(t *testing.T, s stable.Store) {
		q := stable.NewQueue(s, "q/")
		// Two entries for agent x, one for agent y, in age order x1 y x2.
		if err := q.Enqueue("x", []byte("x1")); err != nil {
			t.Fatal(err)
		}
		if err := q.Enqueue("y", []byte("y1")); err != nil {
			t.Fatal(err)
		}
		if err := q.Enqueue("x", []byte("x2")); err != nil {
			t.Fatal(err)
		}
		e1, _, _ := q.Claim(nil)
		if e1 == nil || string(e1.Data) != "x1" {
			t.Fatalf("claim 1 = %v", e1)
		}
		// x's younger entry is withheld while x1 is claimed; y is free.
		e2, _, _ := q.Claim(nil)
		if e2 == nil || e2.ID != "y" {
			t.Fatalf("claim 2 = %v", e2)
		}
		if e, _, _ := q.Claim(nil); e != nil {
			t.Fatalf("x2 handed out while x1 in flight: %v", e)
		}
		// Consume x1 (the normal step-commit path), then release: x's
		// younger entry becomes claimable.
		if err := q.Remove(e1); err != nil {
			t.Fatal(err)
		}
		q.Release(e1)
		e3, _, _ := q.Claim(nil)
		if e3 == nil || string(e3.Data) != "x2" {
			t.Fatalf("claim after release = %v", e3)
		}
	})
}

func TestQueueClaimSkip(t *testing.T) {
	storeImpls(t, func(t *testing.T, s stable.Store) {
		q := stable.NewQueue(s, "q/")
		for _, id := range []string{"cooling", "ready"} {
			if err := q.Enqueue(id, nil); err != nil {
				t.Fatal(err)
			}
		}
		e, _, err := q.Claim(func(id string) bool { return id == "cooling" })
		if err != nil || e == nil || e.ID != "ready" {
			t.Fatalf("claim with skip = %v %v", e, err)
		}
		// The vetoed agent stays claimable once the veto lifts.
		e2, _, err := q.Claim(nil)
		if err != nil || e2 == nil || e2.ID != "cooling" {
			t.Fatalf("claim after veto = %v %v", e2, err)
		}
	})
}

// TestQueueClaimVolatile models a crash: a fresh Queue over the same store
// sees claimed-but-unremoved entries again (§4.3: the agent still resides
// in the input queue).
func TestQueueClaimVolatile(t *testing.T) {
	storeImpls(t, func(t *testing.T, s stable.Store) {
		q := stable.NewQueue(s, "q/")
		for i := 0; i < 3; i++ {
			if err := q.Enqueue(fmt.Sprintf("a%d", i), nil); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			if e, _, _ := q.Claim(nil); e == nil {
				t.Fatal("claim came up empty")
			}
		}
		q2 := stable.NewQueue(s, "q/")
		for i := 0; i < 3; i++ {
			e, _, err := q2.Claim(nil)
			if err != nil || e == nil {
				t.Fatalf("post-crash claim %d: %v %v", i, e, err)
			}
		}
	})
}

// TestQueueClaimCachedIDsStayCorrect drives the cached key view through
// enqueue / claim / remove / release / re-enqueue churn and checks the
// hand-out order never deviates from a cache-less queue.
func TestQueueClaimCachedIDsStayCorrect(t *testing.T) {
	storeImpls(t, func(t *testing.T, s stable.Store) {
		q := stable.NewQueue(s, "q/")
		// Interleave two agents, claim through twice so the second pass
		// starts from a view the first one left behind.
		for round := 0; round < 2; round++ {
			for i := 0; i < 4; i++ {
				if err := q.Enqueue(fmt.Sprintf("ag%d", i%2), []byte(fmt.Sprintf("r%d-%d", round, i))); err != nil {
					t.Fatal(err)
				}
			}
			var claimed []*stable.Entry
			for i := 0; i < 2; i++ {
				e, _, err := q.Claim(nil)
				if err != nil || e == nil {
					t.Fatalf("round %d claim %d: %v %v", round, i, e, err)
				}
				if want := fmt.Sprintf("r%d-%d", round, i); string(e.Data) != want {
					t.Fatalf("round %d claim %d = %q, want %q", round, i, e.Data, want)
				}
				claimed = append(claimed, e)
			}
			// Younger entries of both agents are withheld.
			if e, _, _ := q.Claim(nil); e != nil {
				t.Fatalf("round %d: withheld entry handed out: %v", round, e)
			}
			for _, e := range claimed {
				if err := q.Remove(e); err != nil {
					t.Fatal(err)
				}
				q.Release(e)
			}
			for i := 2; i < 4; i++ {
				e, _, err := q.Claim(nil)
				if err != nil || e == nil {
					t.Fatalf("round %d tail claim: %v %v", round, e, err)
				}
				if want := fmt.Sprintf("r%d-%d", round, i); string(e.Data) != want {
					t.Fatalf("round %d tail = %q, want %q", round, e.Data, want)
				}
				if err := q.Remove(e); err != nil {
					t.Fatal(err)
				}
				q.Release(e)
			}
		}
	})
}

// TestQueueKeyNamesAgent: the entry key carries the agent ID and the value
// the bare data, whichever of the write paths made the entry — an ID
// with slashes in it and an entry without data included — and FIFO order
// follows the reserved sequence numbers across all of them. Each walks
// those entries only: another key under the prefix is none of them.
func TestQueueKeyNamesAgent(t *testing.T) {
	storeImpls(t, func(t *testing.T, s stable.Store) {
		q := stable.NewQueue(s, "q/")
		// Reservation order: decided, direct, ops, direct without data.
		if err := q.Enqueue("tenant/a/decided", []byte("decided-data"), stable.Put("q/s/rec", []byte{1})); err != nil {
			t.Fatal(err)
		}
		if err := q.Enqueue("tenant/a/direct", []byte("direct-data")); err != nil {
			t.Fatal(err)
		}
		tx := beginTx(t, s)
		if err := q.EnqueueIn(tx, "tenant/b//ops", []byte("ops-data")); err != nil {
			t.Fatal(err)
		}
		if err := q.Enqueue("bare", nil); err != nil {
			t.Fatal(err)
		}
		// Visibility in the opposite order must not matter.
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		want := [][2]string{
			{"tenant/a/decided", "decided-data"}, {"tenant/a/direct", "direct-data"},
			{"tenant/b//ops", "ops-data"}, {"bare", ""},
		}
		keys, err := s.Keys("q/e/")
		if err != nil || len(keys) != len(want) {
			t.Fatalf("entry keys = %q, %v", keys, err)
		}
		for i, k := range keys {
			if wantKey := fmt.Sprintf("q/e/%016d/%s", i, want[i][0]); k != wantKey {
				t.Errorf("key %d = %q, want %q", i, k, wantKey)
			}
			if v, ok, err := s.Get(k); err != nil || !ok || string(v) != want[i][1] {
				t.Errorf("value of %q = %q present=%v err=%v, want the bare data %q", k, v, ok, err, want[i][1])
			}
		}
		var each [][2]string
		if err := q.Each(func(id string, data []byte) error {
			each = append(each, [2]string{id, string(data)})
			return nil
		}); err != nil || !reflect.DeepEqual(each, want) {
			t.Errorf("Each = %q, %v; want %q", each, err, want)
		}
		for i, w := range want {
			e, _, err := q.Claim(nil)
			if err != nil || e == nil || e.ID != w[0] || string(e.Data) != w[1] {
				t.Fatalf("claim %d = %+v, %v; want %q", i, e, err, w)
			}
			if err := q.Remove(e); err != nil {
				t.Fatal(err)
			}
			q.Release(e)
		}
		if n, _ := q.Len(); n != 0 {
			t.Errorf("%d entries left", n)
		}
	})
}

// getCounter counts the reads and the key listings a queue makes of its
// store.
type getCounter struct {
	stable.Store
	gets, keys int
}

func (c *getCounter) Get(key string) ([]byte, bool, error) {
	c.gets++
	return c.Store.Get(key)
}

func (c *getCounter) Keys(prefix string) ([]string, error) {
	c.keys++
	return c.Store.Keys(prefix)
}

// TestQueueClaimReadsOnlyTheWinner: entries a claim passes over — claimed,
// withheld behind an in-flight agent, vetoed — are judged from
// their keys; the one store read of a claim fetches the entry it hands out.
func TestQueueClaimReadsOnlyTheWinner(t *testing.T) {
	s := &getCounter{Store: stable.NewMemStore(nil)}
	q := stable.NewQueue(s, "q/")
	const agents = 16
	for round := 0; round < 2; round++ { // two entries each: an oldest and a withheld one
		for i := 0; i < agents; i++ {
			if err := q.Enqueue(fmt.Sprintf("ag%02d", i), []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, id := range []string{"vetoed", "winner"} {
		if err := q.Enqueue(id, []byte(id)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < agents; i++ {
		if e, _, err := q.Claim(nil); err != nil || e == nil {
			t.Fatalf("setup claim %d: %v %v", i, e, err)
		}
	}
	s.gets = 0
	e, depth, err := q.Claim(func(id string) bool { return id == "vetoed" })
	if err != nil || e == nil || e.ID != "winner" || string(e.Data) != "winner" {
		t.Fatalf("claim = %+v, %v; want the winner", e, err)
	}
	if depth != 2*agents+2 || s.gets != 1 {
		t.Errorf("claim over %d entries (%d withheld) made %d store reads, want 1", depth, depth-1, s.gets)
	}
	s.gets = 0
	if e, _, err := q.Claim(nil); err != nil || e == nil || e.ID != "vetoed" {
		t.Fatalf("second claim = %+v, %v; want the formerly vetoed entry", e, err)
	}
	if e, _, err := q.Claim(nil); err != nil || e != nil {
		t.Fatalf("third claim = %+v, %v; want nothing claimable", e, err)
	}
	if s.gets != 1 {
		t.Errorf("a claim that hands out one entry and one that finds none made %d store reads, want 1", s.gets)
	}
}
