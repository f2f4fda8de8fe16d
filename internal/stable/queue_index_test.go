package stable_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/stable"
	"repro/internal/txn"
)

// queueView is what a consumer can observe of a queue: its length, its
// head and its visible entries in order, each as "ID=data".
type queueView struct {
	Len     int
	Head    string
	Entries []string
}

func viewOf(t *testing.T, q *stable.Queue) queueView {
	t.Helper()
	var v queueView
	var err error
	if v.Len, err = q.Len(); err != nil {
		t.Fatal(err)
	}
	head, err := q.Peek()
	if err != nil {
		t.Fatal(err)
	}
	if head != nil {
		v.Head = head.ID + "=" + string(head.Data)
	}
	es, err := q.Entries()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range es {
		v.Entries = append(v.Entries, e.ID+"="+string(e.Data))
	}
	return v
}

// claimAll claims until nothing is claimable and returns what it got.
func claimAll(t *testing.T, q *stable.Queue) []*stable.Entry {
	t.Helper()
	var out []*stable.Entry
	for {
		e, _, err := q.Claim(nil)
		if err != nil {
			t.Fatal(err)
		}
		if e == nil {
			return out
		}
		out = append(out, e)
	}
}

func ids(es []*stable.Entry) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.ID + "=" + string(e.Data)
	}
	return out
}

// TestQueueIndexMatchesFreshQueue is a model test of the queue's
// in-memory visible order. Seeded random interleavings of enqueues,
// prepares settled either way, claims, releases, removals and
// re-enqueues inside committed and aborted transactions, a poisoned
// entry's direct removal and crashes (a fresh Queue over the same store)
// run on both engines. After every operation the live queue must show
// what a fresh Queue over the same store shows — length, head, entries —
// and hand out the same entries in the same order once it holds the same
// claims.
func TestQueueIndexMatchesFreshQueue(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			storeImpls(t, func(t *testing.T, s stable.Store) {
				runQueueModel(t, s, rand.New(rand.NewSource(seed)), 150)
			})
		})
	}
}

func runQueueModel(t *testing.T, s stable.Store, r *rand.Rand, steps int) {
	m, err := txn.NewManager("n", s)
	if err != nil {
		t.Fatal(err)
	}
	q := stable.NewQueue(s, "q/")
	var claimed []*stable.Entry // held by the model's workers
	n := 0
	data := func() []byte { n++; return []byte(fmt.Sprint("d", n)) }
	agent := func() string { return fmt.Sprint("ag", r.Intn(4)) }
	takeClaim := func() *stable.Entry {
		k := r.Intn(len(claimed))
		e := claimed[k]
		claimed = append(claimed[:k], claimed[k+1:]...)
		return e
	}
	for step := 0; step < steps; step++ {
		var op string
		switch c := r.Intn(11); {
		case c == 0:
			op = "enqueue"
			if err := q.Enqueue(agent(), data()); err != nil {
				t.Fatal(err)
			}
		case c == 1, c == 2, c == 3:
			op = "enqueue-with-ops"
			if err := q.Enqueue(agent(), data(), stable.Put(fmt.Sprint("rec/", step), []byte{1})); err != nil {
				t.Fatal(err)
			}
		case c == 4, c == 5:
			op = "claim"
			e, _, err := q.Claim(nil)
			if err != nil {
				t.Fatal(err)
			}
			if e != nil {
				claimed = append(claimed, e)
			}
		case c == 6 && len(claimed) > 0:
			op = "release"
			q.Release(takeClaim())
		case (c == 7 || c == 8) && len(claimed) > 0:
			// A step: remove the claimed entry and maybe re-enqueue its
			// agent, in one transaction that commits (7) or aborts (8).
			e := takeClaim()
			tx, err := m.Begin()
			if err != nil {
				t.Fatal(err)
			}
			q.RemoveIn(tx, e)
			reenqueue := r.Intn(2) == 0
			if reenqueue {
				if err := q.EnqueueIn(tx, e.ID, data()); err != nil {
					t.Fatal(err)
				}
			}
			if c == 7 {
				op = fmt.Sprintf("remove(reenqueue=%v)+commit", reenqueue)
				err = tx.Commit()
			} else {
				op = fmt.Sprintf("remove(reenqueue=%v)+abort", reenqueue)
				err = tx.Abort()
			}
			if err != nil {
				t.Fatal(err)
			}
			q.Release(e)
		case c == 9 && len(claimed) > 0:
			op = "remove-poisoned"
			e := takeClaim()
			if err := q.Remove(e); err != nil {
				t.Fatal(err)
			}
			q.Release(e)
		case c == 10:
			op = "crash"
			q, claimed = stable.NewQueue(s, "q/"), nil
		default:
			continue
		}

		fresh := stable.NewQueue(s, "q/")
		live, want := viewOf(t, q), viewOf(t, fresh)
		if !reflect.DeepEqual(live, want) {
			t.Fatalf("step %d (%s): live queue %+v, fresh queue %+v", step, op, live, want)
		}
		// Claim order: the fresh queue takes the live queue's claims,
		// then both claim until nothing is claimable.
		for _, e := range claimed {
			if _, ok, err := fresh.TryClaim(e); err != nil || !ok {
				t.Fatalf("step %d (%s): fresh queue cannot take the live claim on %s: %v", step, op, e.ID, err)
			}
		}
		got, exp := claimAll(t, q), claimAll(t, fresh)
		if !reflect.DeepEqual(ids(got), ids(exp)) {
			t.Fatalf("step %d (%s): live claim order %v, fresh %v", step, op, ids(got), ids(exp))
		}
		for _, e := range got {
			q.Release(e)
		}
	}
}

// TestQueueIndexListsOnce: after the first load, 1 000 step-shaped
// cycles — claim, remove and re-enqueue in one committed transaction,
// release — and the Len, Peek and Entries around them list the store's
// keys zero times.
func TestQueueIndexListsOnce(t *testing.T) {
	s := &getCounter{Store: stable.NewMemStore(nil)}
	m, err := txn.NewManager("n", s)
	if err != nil {
		t.Fatal(err)
	}
	q := stable.NewQueue(s, "q/")
	for i := 0; i < 4; i++ {
		if err := q.Enqueue(fmt.Sprint("ag", i), []byte("d")); err != nil {
			t.Fatal(err)
		}
	}
	s.keys = 0
	for i := 0; i < 1000; i++ {
		e, _, err := q.Claim(nil)
		if err != nil || e == nil {
			t.Fatalf("cycle %d: claim = %v, %v", i, e, err)
		}
		tx, err := m.Begin()
		if err != nil {
			t.Fatal(err)
		}
		q.RemoveIn(tx, e)
		if err := q.EnqueueIn(tx, e.ID, []byte(fmt.Sprint("d", i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		q.Release(e)
		if n, err := q.Len(); err != nil || n != 4 {
			t.Fatalf("cycle %d: Len = %d, %v", i, n, err)
		}
		if _, err := q.Peek(); err != nil {
			t.Fatal(err)
		}
		if _, err := q.Entries(); err != nil {
			t.Fatal(err)
		}
	}
	if s.keys != 0 {
		t.Errorf("1 000 claim/remove/release cycles listed the store's keys %d times, want 0", s.keys)
	}
}
