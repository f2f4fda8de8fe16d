package stable

import (
	"fmt"
	"testing"
)

// Store interface conformance (basics, value isolation, batch atomicity,
// queue linearization) lives in the shared suite: see storetest and
// conformance_test.go, which run it against every engine.

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

// TestQueueSeqCacheSurvivesRestart: the cached tail counter must pick up
// where the persisted counter left off when a fresh Queue (post-crash)
// opens the same store.
func TestQueueSeqCacheSurvivesRestart(t *testing.T) {
	s := NewMemStore(nil)
	q1 := NewQueue(s, "q/")
	for i := 0; i < 3; i++ {
		if err := q1.Enqueue(fmt.Sprintf("a%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	// "Crash": a fresh queue over the same store.
	q2 := NewQueue(s, "q/")
	if err := q2.Enqueue("a3", nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"a0", "a1", "a2", "a3"} {
		e, err := q2.Peek()
		if err != nil || e == nil || e.ID != want {
			t.Fatalf("head = %v %v, want %s", e, err, want)
		}
		if err := q2.Remove(e); err != nil {
			t.Fatal(err)
		}
	}
}
