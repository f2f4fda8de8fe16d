package stable

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// BenchmarkQueueClaimWithheld measures one Claim call over a queue whose
// visible entries are all withheld (every agent has its oldest entry in
// flight) — the scheduler's steady state under load. The scan judges every
// withheld entry from its key (the agent ID is part of it): map lookups,
// no store reads.
func BenchmarkQueueClaimWithheld(b *testing.B) {
	for _, agents := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("agents=%d", agents), func(b *testing.B) {
			s := NewMemStore(nil)
			q := NewQueue(s, "q/")
			payload := make([]byte, 1024)
			for i := 0; i < agents; i++ {
				id := fmt.Sprintf("agent%05d", i)
				// Oldest entry (will be claimed) + a younger withheld one.
				if err := q.Enqueue(id, payload); err != nil {
					b.Fatal(err)
				}
				if err := q.Enqueue(id, payload); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < agents; i++ {
				e, _, err := q.Claim(nil)
				if err != nil || e == nil {
					b.Fatalf("setup claim %d: %v %v", i, e, err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, _, err := q.Claim(nil)
				if err != nil {
					b.Fatal(err)
				}
				if e != nil {
					b.Fatal("claim should find everything withheld")
				}
			}
		})
	}
}

// TestQueueNotifyBroadcast checks the no-missed-wakeup contract for N
// concurrent waiters: grab the channel, find the queue empty, block — an
// enqueue wakes every waiter.
func TestQueueNotifyBroadcast(t *testing.T) {
	q := NewQueue(NewMemStore(nil), "q/")
	const waiters = 8
	var wg sync.WaitGroup
	woke := make(chan int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				ch := q.Notify() // grab BEFORE the emptiness check
				if e, _, _ := q.Claim(nil); e != nil {
					woke <- i
					return
				}
				select {
				case <-ch:
				case <-time.After(5 * time.Second):
					t.Errorf("waiter %d missed the wakeup", i)
					return
				}
			}
		}(i)
	}
	// All waiters park, then entries arrive one by one; every waiter must
	// eventually claim one even though signals race with parking.
	for i := 0; i < waiters; i++ {
		time.Sleep(time.Millisecond)
		if err := q.Enqueue(fmt.Sprintf("w%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if len(woke) != waiters {
		t.Fatalf("%d waiters woke, want %d", len(woke), waiters)
	}
}
