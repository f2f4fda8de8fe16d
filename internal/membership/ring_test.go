package membership

import (
	"fmt"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("agent%05d", i)
	}
	return out
}

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("w%d", i)
	}
	return out
}

// Ownership is a partition: every key has exactly one owner and that
// owner is a ring member — no orphan keys, no key owned twice.
func TestRingOwnershipIsPartition(t *testing.T) {
	r := NewRing(names(5))
	members := map[string]bool{}
	for _, m := range r.Members() {
		members[m] = true
	}
	for _, k := range keys(10000) {
		o := r.Owner(k)
		if o == "" {
			t.Fatalf("key %s has no owner", k)
		}
		if !members[o] {
			t.Fatalf("key %s owned by non-member %q", k, o)
		}
		if again := r.Owner(k); again != o {
			t.Fatalf("key %s owner unstable: %q then %q", k, o, again)
		}
	}
}

// Two rings built from the same view agree on every key — ownership is a
// pure function of the member set, never of build order or node
// identity.
func TestRingDeterministicAcrossNodes(t *testing.T) {
	a := NewRing([]string{"w0", "w1", "w2", "w3"})
	b := NewRing([]string{"w3", "w1", "w0", "w2", "w1"}) // shuffled + dup
	for _, k := range keys(5000) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("key %s: owners diverge (%q vs %q)", k, a.Owner(k), b.Owner(k))
		}
	}
}

// A single join or leave moves a bounded slice of the key space: roughly
// the joining/leaving node's share (~1/N), never a reshuffle. The bound
// below is 2x the fair share to absorb virtual-node variance.
func TestRingBoundedMovement(t *testing.T) {
	for _, n := range []int{3, 4, 8, 16} {
		old := NewRing(names(n))
		joined := NewRing(append(names(n), "newcomer"))
		fair := 1.0 / float64(n+1)
		if f := MovedFraction(old, joined); f > 2*fair {
			t.Fatalf("join at n=%d moved %.3f of the space, want <= %.3f", n, f, 2*fair)
		} else if f == 0 {
			t.Fatalf("join at n=%d moved nothing", n)
		}
		// Every moved key must move TO the newcomer on a join...
		for _, c := range Changes(old, joined) {
			if c.To != "newcomer" {
				t.Fatalf("join moved arc to %q, not the newcomer", c.To)
			}
		}
		// ...and FROM the leaver on a leave (the reverse diff).
		for _, c := range Changes(joined, old) {
			if c.From != "newcomer" {
				t.Fatalf("leave moved arc from %q, not the leaver", c.From)
			}
		}
		// Sampled cross-check: the Changes arcs are exactly the keys
		// whose Owner differs.
		moved := 0
		for _, k := range keys(4000) {
			if old.Owner(k) != joined.Owner(k) {
				moved++
				if joined.Owner(k) != "newcomer" {
					t.Fatalf("key %s moved to %q", k, joined.Owner(k))
				}
			}
		}
		if frac := float64(moved) / 4000; frac > 2*fair {
			t.Fatalf("join at n=%d moved %.3f of sampled keys, want <= %.3f", n, frac, 2*fair)
		}
	}
}

// Shares sum to 1 and stay within a sane factor of fair (vnode variance).
func TestRingShares(t *testing.T) {
	r := NewRing(names(5))
	sum := 0.0
	for m, s := range r.Shares() {
		sum += s
		if s < 0.2/5 || s > 3.0/5 {
			t.Fatalf("member %s share %.4f wildly off fair %.4f", m, s, 0.2)
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %.6f, want 1", sum)
	}
}

func TestRingEmptyAndNil(t *testing.T) {
	var nilRing *Ring
	if o := nilRing.Owner("x"); o != "" {
		t.Fatalf("nil ring owner = %q", o)
	}
	empty := NewRing(nil)
	if o := empty.Owner("x"); o != "" {
		t.Fatalf("empty ring owner = %q", o)
	}
	if cs := Changes(empty, NewRing(names(2))); cs != nil {
		t.Fatalf("changes vs empty ring = %v, want nil", cs)
	}
}
