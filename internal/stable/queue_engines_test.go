package stable_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/stable"
	"repro/internal/stable/wal"
)

// storeImpls runs a queue subtest over the volatile store and each
// durable engine.
func storeImpls(t *testing.T, fn func(t *testing.T, s stable.Store)) {
	t.Helper()
	t.Run("mem", func(t *testing.T) { fn(t, stable.NewMemStore(nil)) })
	t.Run("file", func(t *testing.T) {
		s, err := stable.OpenFileStore(t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		fn(t, s)
	})
	t.Run("wal", func(t *testing.T) {
		s, err := wal.Open(t.TempDir(), wal.Options{NoBackground: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		fn(t, s)
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
			if err := s.Apply(q.RemoveOp(e)); err != nil {
				t.Fatal(err)
			}
		}
		e, err := q.Peek()
		if err != nil || e != nil {
			t.Errorf("empty queue peek = %v, %v", e, err)
		}
	})
}

func TestQueueStagedLifecycle(t *testing.T) {
	storeImpls(t, func(t *testing.T, s stable.Store) {
		q := stable.NewQueue(s, "q/")
		if err := q.Prepare("tx1", "agent1", []byte("d1")); err != nil {
			t.Fatal(err)
		}
		// Invisible while staged.
		if e, _ := q.Peek(); e != nil {
			t.Error("staged entry visible")
		}
		staged, err := q.StagedTxns()
		if err != nil || !reflect.DeepEqual(staged, []string{"tx1"}) {
			t.Errorf("staged = %v, %v", staged, err)
		}
		// Prepare is idempotent.
		if err := q.Prepare("tx1", "agent1", []byte("d1")); err != nil {
			t.Fatal(err)
		}
		if err := q.CommitStaged("tx1"); err != nil {
			t.Fatal(err)
		}
		e, err := q.Peek()
		if err != nil || e == nil || e.ID != "agent1" {
			t.Fatalf("after commit: %v %v", e, err)
		}
		// Commit is idempotent.
		if err := q.CommitStaged("tx1"); err != nil {
			t.Fatal(err)
		}
		if n, _ := q.Len(); n != 1 {
			t.Errorf("duplicate commit duplicated entry: len %d", n)
		}
	})
}

// TestQueueStagedSurvivesRestart: a fresh Queue over the same store (a
// crash between prepare and decision) still sees the prepared entry as in
// doubt and invisible, and committing through it surfaces the entry at the
// position reserved at prepare time, ahead of a later direct enqueue.
func TestQueueStagedSurvivesRestart(t *testing.T) {
	storeImpls(t, func(t *testing.T, s stable.Store) {
		if err := stable.NewQueue(s, "q/").Prepare("tx1", "staged", []byte("d1")); err != nil {
			t.Fatal(err)
		}
		q := stable.NewQueue(s, "q/")
		if e, _, err := q.Claim(nil); err != nil || e != nil {
			t.Errorf("claim of a prepared entry = %v, %v", e, err)
		}
		if e, err := q.Peek(); err != nil || e != nil {
			t.Errorf("peek of a prepared entry = %v, %v", e, err)
		}
		if n, err := q.Len(); err != nil || n != 0 {
			t.Errorf("Len = %d, %v; want 0", n, err)
		}
		if es, err := q.Entries(); err != nil || len(es) != 0 {
			t.Errorf("Entries = %v, %v; want none", es, err)
		}
		if staged, err := q.StagedTxns(); err != nil || !reflect.DeepEqual(staged, []string{"tx1"}) {
			t.Errorf("staged = %v, %v; want tx1 still in doubt", staged, err)
		}
		if err := q.Enqueue("later", []byte("d2")); err != nil {
			t.Fatal(err)
		}
		if n, _ := q.Len(); n != 1 {
			t.Errorf("Len beside a prepared entry = %d, want 1", n)
		}
		if err := q.CommitStaged("tx1"); err != nil {
			t.Fatal(err)
		}
		es, err := q.Entries()
		if err != nil || len(es) != 2 || es[0].ID != "staged" || string(es[0].Data) != "d1" || es[1].ID != "later" {
			t.Fatalf("entries after commit = %v, %v; want staged then later", es, err)
		}
		if staged, _ := q.StagedTxns(); len(staged) != 0 {
			t.Errorf("staged after commit = %v", staged)
		}
	})
}

// TestQueueAbortLeavesNoOrphan: aborting a prepared insertion removes the
// entry with its marker. An entry key left behind would surface in the next
// Queue over the store — an agent executed twice.
func TestQueueAbortLeavesNoOrphan(t *testing.T) {
	storeImpls(t, func(t *testing.T, s stable.Store) {
		q := stable.NewQueue(s, "q/")
		if err := q.Prepare("tx1", "agent1", []byte("d1")); err != nil {
			t.Fatal(err)
		}
		if err := q.AbortStaged("tx1"); err != nil {
			t.Fatal(err)
		}
		if n, err := stable.NewQueue(s, "q/").Len(); err != nil || n != 0 {
			t.Errorf("Len after abort and restart = %d, %v; want 0", n, err)
		}
		if keys, err := s.Keys("q/"); err != nil || !reflect.DeepEqual(keys, []string{"q/seq"}) {
			t.Errorf("keys after abort = %q, %v; want q/seq alone", keys, err)
		}
	})
}

// TestQueueTryClaimHidden: the targeted claim refuses the key of a
// prepared entry. The key comes from a second store where the same
// reservation was committed.
func TestQueueTryClaimHidden(t *testing.T) {
	storeImpls(t, func(t *testing.T, s stable.Store) {
		other := stable.NewQueue(stable.NewMemStore(nil), "q/")
		if err := other.Prepare("tx1", "agent1", []byte("d1")); err != nil {
			t.Fatal(err)
		}
		if err := other.CommitStaged("tx1"); err != nil {
			t.Fatal(err)
		}
		es, err := other.Entries()
		if err != nil || len(es) != 1 {
			t.Fatalf("entries = %v, %v", es, err)
		}
		q := stable.NewQueue(s, "q/")
		if err := q.Prepare("tx1", "agent1", []byte("d1")); err != nil {
			t.Fatal(err)
		}
		if e, ok, err := q.TryClaim(es[0]); err != nil || ok || e != nil {
			t.Errorf("TryClaim of a prepared entry = %v, %v, %v; want a refusal", e, ok, err)
		}
		if err := q.CommitStaged("tx1"); err != nil {
			t.Fatal(err)
		}
		if e, ok, err := q.TryClaim(es[0]); err != nil || !ok || e.ID != "agent1" {
			t.Errorf("TryClaim after commit = %v, %v, %v", e, ok, err)
		}
	})
}

// TestQueueStagedSettlesOnce: a retried Prepare, a second CommitStaged and
// an AbortStaged that arrives after the commit are no-ops; none of them
// duplicates or deletes the visible entry.
func TestQueueStagedSettlesOnce(t *testing.T) {
	storeImpls(t, func(t *testing.T, s stable.Store) {
		q := stable.NewQueue(s, "q/")
		if err := q.Prepare("tx1", "agent1", []byte("d1")); err != nil {
			t.Fatal(err)
		}
		if err := q.Prepare("tx1", "agent1", []byte("d1")); err != nil {
			t.Fatal(err)
		}
		if keys, _ := s.Keys("q/e/"); len(keys) != 1 {
			t.Fatalf("retried Prepare wrote %q, want one entry", keys)
		}
		for _, settle := range []func(string) error{q.CommitStaged, q.CommitStaged, q.AbortStaged} {
			if err := settle("tx1"); err != nil {
				t.Fatal(err)
			}
			for _, q := range []*stable.Queue{q, stable.NewQueue(s, "q/")} {
				if es, err := q.Entries(); err != nil || len(es) != 1 || es[0].ID != "agent1" || string(es[0].Data) != "d1" {
					t.Fatalf("entries = %v, %v; want agent1 alone", es, err)
				}
			}
		}
		if err := q.AbortStaged("never-prepared"); err != nil {
			t.Fatal(err)
		}
	})
}

// TestQueueStagedWritesContainerOnce pins the write volume of a two-phase
// insertion: the container reaches stable storage once, at prepare, with a
// marker and a counter of a few bytes beside it, and the commit writes no
// value and reads none.
func TestQueueStagedWritesContainerOnce(t *testing.T) {
	c := &metrics.Counters{}
	s := &getCounter{Store: stable.NewMemStore(c)}
	q := stable.NewQueue(s, "q/")
	const n = 8 << 10
	if err := q.Prepare("co#1", "agent1", make([]byte, n)); err != nil {
		t.Fatal(err)
	}
	prepared := c.Snapshot().StableBytes
	if prepared < n || prepared > n+64 {
		t.Errorf("Prepare of %d bytes wrote %d, want the container once and at most 64 beside it", n, prepared)
	}
	s.gets = 0
	if err := q.CommitStaged("co#1"); err != nil {
		t.Fatal(err)
	}
	if total := c.Snapshot().StableBytes; total != prepared || s.gets != 0 {
		t.Errorf("CommitStaged wrote %d value bytes and made %d store reads, want 0 and 0", total-prepared, s.gets)
	}
	if e, err := q.Peek(); err != nil || e == nil || len(e.Data) != n {
		t.Errorf("committed entry = %v, %v", e, err)
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
		if err := s.Apply(q.RemoveOp(e3)); err != nil {
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
		if err := s.Apply(q.RemoveOp(e1)); err != nil {
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
				if err := s.Apply(q.RemoveOp(e)); err != nil {
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
				if err := s.Apply(q.RemoveOp(e)); err != nil {
					t.Fatal(err)
				}
				q.Release(e)
			}
		}
	})
}

// TestQueueKeyNamesAgent: the entry key carries the agent ID and the value
// the bare data, whichever of the three write paths made the entry — an ID
// with slashes in it and an entry without data included — and FIFO order
// follows the reserved sequence numbers across all three.
func TestQueueKeyNamesAgent(t *testing.T) {
	storeImpls(t, func(t *testing.T, s stable.Store) {
		q := stable.NewQueue(s, "q/")
		// Reservation order: staged, direct, ops, direct without data.
		if err := q.Prepare("co#1", "tenant/a/staged", []byte("staged-data")); err != nil {
			t.Fatal(err)
		}
		if err := q.Enqueue("tenant/a/direct", []byte("direct-data")); err != nil {
			t.Fatal(err)
		}
		ops, err := q.EnqueueOps("tenant/b//ops", []byte("ops-data"))
		if err != nil {
			t.Fatal(err)
		}
		if err := q.Enqueue("bare", nil); err != nil {
			t.Fatal(err)
		}
		// Visibility in the opposite order must not matter.
		if err := s.Apply(ops...); err != nil {
			t.Fatal(err)
		}
		if err := q.CommitStaged("co#1"); err != nil {
			t.Fatal(err)
		}
		want := [][2]string{
			{"tenant/a/staged", "staged-data"}, {"tenant/a/direct", "direct-data"},
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
		entries, err := q.Entries()
		if err != nil || len(entries) != len(want) {
			t.Fatalf("entries = %v, %v", entries, err)
		}
		var each [][2]string
		if err := q.Each(func(_, id string, data []byte) error {
			each = append(each, [2]string{id, string(data)})
			return nil
		}); err != nil || !reflect.DeepEqual(each, want) {
			t.Errorf("Each = %q, %v; want %q", each, err, want)
		}
		for i, w := range want {
			if entries[i].ID != w[0] || string(entries[i].Data) != w[1] {
				t.Errorf("entries[%d] = %q %q, want %q", i, entries[i].ID, entries[i].Data, w)
			}
			e, _, err := q.Claim(nil)
			if err != nil || e == nil || e.ID != w[0] || string(e.Data) != w[1] {
				t.Fatalf("claim %d = %+v, %v; want %q", i, e, err, w)
			}
			if err := s.Apply(q.RemoveOp(e)); err != nil {
				t.Fatal(err)
			}
			q.Release(e)
		}
		if n, _ := q.Len(); n != 0 {
			t.Errorf("%d entries left", n)
		}
	})
}

// getCounter counts the reads a queue makes of its store.
type getCounter struct {
	stable.Store
	gets int
}

func (c *getCounter) Get(key string) ([]byte, bool, error) {
	c.gets++
	return c.Store.Get(key)
}

// TestQueueClaimReadsOnlyTheWinner: entries a claim passes over — claimed,
// withheld behind an in-flight agent, vetoed, fenced — are judged from
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
	for _, id := range []string{"vetoed", "fenced", "winner"} {
		if err := q.Enqueue(id, []byte(id)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < agents; i++ {
		if e, _, err := q.Claim(nil); err != nil || e == nil {
			t.Fatalf("setup claim %d: %v %v", i, e, err)
		}
	}
	q.SetFence(func(id string) bool { return id == "fenced" })
	s.gets = 0
	e, depth, err := q.Claim(func(id string) bool { return id == "vetoed" })
	if err != nil || e == nil || e.ID != "winner" || string(e.Data) != "winner" {
		t.Fatalf("claim = %+v, %v; want the winner", e, err)
	}
	if depth != 2*agents+3 || s.gets != 1 {
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
