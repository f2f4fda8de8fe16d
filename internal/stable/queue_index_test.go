package stable_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/stable"
	"repro/internal/txn"
)

// queueView is what a consumer can observe of a queue: its length, its
// head and its stored entries in order (Each), each as "ID=data".
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
	if err := q.Each(func(_, id string, data []byte) error {
		v.Entries = append(v.Entries, id+"="+string(data))
		return nil
	}); err != nil {
		t.Fatal(err)
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

// sameSet reports whether a and b hold the same strings, in any order.
func sameSet(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
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
		// Claim order: the fresh queue takes the live queue's claims —
		// each the oldest entry of its agent, so a claim restricted to
		// the claimed agents reaches exactly them — then both claim
		// until nothing is claimable.
		held := make(map[string]bool, len(claimed))
		for _, e := range claimed {
			held[e.ID] = true
		}
		var took []*stable.Entry
		for {
			e, _, err := fresh.Claim(func(id string) bool { return !held[id] })
			if err != nil {
				t.Fatal(err)
			}
			if e == nil {
				break
			}
			took = append(took, e)
		}
		if a, b := ids(took), ids(claimed); !sameSet(a, b) {
			t.Fatalf("step %d (%s): fresh queue takes the claims %v, live holds %v", step, op, a, b)
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
// release — and the Len and Peek around them list the store's keys zero
// times.
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
	}
	if s.keys != 0 {
		t.Errorf("1 000 claim/remove/release cycles listed the store's keys %d times, want 0", s.keys)
	}
}
