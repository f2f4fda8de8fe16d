package stable

import "testing"

// The claim fence withholds matching agents from Claim without touching
// visibility, FIFO order or Len; TryClaim bypasses it (the migration
// path) and refuses entries that are claimed or already consumed.
func TestQueueFenceAndTryClaim(t *testing.T) {
	q := NewQueue(NewMemStore(nil), "q/")
	for _, id := range []string{"a", "b", "c"} {
		if err := q.Enqueue(id, []byte("data-"+id)); err != nil {
			t.Fatal(err)
		}
	}

	q.SetFence(func(id string) bool { return id == "a" || id == "b" })
	e, depth, err := q.Claim(nil)
	if err != nil {
		t.Fatal(err)
	}
	if depth != 3 {
		t.Fatalf("depth = %d, want 3 (fenced entries stay visible)", depth)
	}
	if e == nil || e.ID != "c" {
		t.Fatalf("Claim = %+v, want the unfenced agent c", e)
	}

	// The rebalancer's targeted claim bypasses the fence...
	entries, err := q.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 || entries[0].ID != "a" {
		t.Fatalf("Entries = %d rows, head %v", len(entries), entries[0])
	}
	fa, ok, err := q.TryClaim(entries[0])
	if err != nil || !ok {
		t.Fatalf("TryClaim(a) ok=%v err=%v", ok, err)
	}
	if string(fa.Data) != "data-a" {
		t.Fatalf("TryClaim re-read data %q", fa.Data)
	}
	// ...but cannot double-claim.
	if _, ok, _ := q.TryClaim(entries[0]); ok {
		t.Fatal("TryClaim succeeded on a claimed entry")
	}

	// A consumed entry (removed + released) is refused, not resurrected.
	if err := q.Remove(fa); err != nil {
		t.Fatal(err)
	}
	q.Release(fa)
	if _, ok, _ := q.TryClaim(entries[0]); ok {
		t.Fatal("TryClaim resurrected a consumed entry")
	}

	// Lifting the fence wakes Claim for the remaining fenced agent.
	notify := q.Notify()
	q.SetFence(nil)
	select {
	case <-notify:
	default:
		t.Fatal("SetFence(nil) did not signal waiting consumers")
	}
	e2, _, err := q.Claim(nil)
	if err != nil {
		t.Fatal(err)
	}
	if e2 == nil || e2.ID != "b" {
		t.Fatalf("post-fence Claim = %+v, want b", e2)
	}
}

// Per-agent FIFO holds across the fence boundary: TryClaim refuses a
// younger entry while the worker path holds the agent's older one.
func TestTryClaimRespectsPerAgentFIFO(t *testing.T) {
	q := NewQueue(NewMemStore(nil), "q/")
	if err := q.Enqueue("a", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := q.Enqueue("a", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	head, _, err := q.Claim(nil)
	if err != nil || head == nil {
		t.Fatalf("claim head: %v %v", head, err)
	}
	entries, err := q.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := q.TryClaim(entries[1]); ok {
		t.Fatal("TryClaim took a younger entry of an in-flight agent")
	}
	q.Release(head)
	if _, ok, _ := q.TryClaim(entries[0]); !ok {
		t.Fatal("TryClaim refused a released head entry")
	}
}
