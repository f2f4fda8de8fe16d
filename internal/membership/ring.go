// Package membership grows the fixed 4-node wiring of the earlier PRs
// into a dynamic node set: a node-local membership view (join / leave /
// suspect, merged from flooded announcements over the ordinary wire
// layer) and a consistent-hash ring that places agent home queues by
// key instead of by static cluster.Options wiring.
//
// Everything here is deliberately passive and deterministic: the package
// holds no goroutines, no timers and no clock — views converge because
// every merge that changes a view re-broadcasts it (a join-semilattice
// flood), so the same event order yields the same view on every node,
// including under network.VirtualClock schedules.
package membership

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVNodes is the fixed virtual-node count per member. 128 points
// per node keeps the ownership shares within a few percent of 1/N for
// the cluster sizes this repo simulates while keeping ring rebuilds
// (sort of N×128 points) trivially cheap.
const DefaultVNodes = 128

// hashKey is the stable placement hash: FNV-1a 64 followed by a
// splitmix64-style finalizer. The finalizer matters — raw FNV-1a moves a
// hash by only ~prime (≈2^40) when the last byte changes, so sequential
// keys ("agent0001", "agent0002", …) would cluster inside one ring arc
// and all land on the same owner. The avalanche spreads them uniformly.
// Stability matters as much as quality: every node must map the same key
// to the same point forever, across processes and releases — never
// change these constants.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

type point struct {
	hash  uint64
	owner string
}

// Ring is an immutable consistent-hash ring over a member set. Build one
// with NewRing; derive ownership with Owner and churn deltas with
// Changes. Immutability is what makes it safe to hand to every worker
// without locks — a membership change builds a new Ring rather than
// mutating the old one.
type Ring struct {
	points  []point
	members []string // sorted, deduplicated
}

// NewRing builds a ring with DefaultVNodes virtual points per member.
// Member order does not matter; duplicates collapse.
func NewRing(members []string) *Ring {
	seen := make(map[string]bool, len(members))
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		uniq = append(uniq, m)
	}
	sort.Strings(uniq)
	r := &Ring{members: uniq}
	r.points = make([]point, 0, len(uniq)*DefaultVNodes)
	for _, m := range uniq {
		for i := 0; i < DefaultVNodes; i++ {
			r.points = append(r.points, point{hashKey(m + "#" + strconv.Itoa(i)), m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.owner < b.owner // total order even on hash collisions
	})
	return r
}

// Owner returns the member owning key, or "" on an empty ring. The owner
// is the first virtual point at or clockwise after the key's hash.
func (r *Ring) Owner(key string) string {
	if r == nil || len(r.points) == 0 {
		return ""
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap
	}
	return r.points[i].owner
}

// Members returns the sorted member set (shared slice; do not mutate).
func (r *Ring) Members() []string {
	if r == nil {
		return nil
	}
	return r.members
}

// Shares returns each member's owned fraction of the hash space, summing
// to 1 on a non-empty ring. It is what /ring reports and what the
// bounded-movement tests bound.
func (r *Ring) Shares() map[string]float64 {
	out := make(map[string]float64)
	if r == nil || len(r.points) == 0 {
		return out
	}
	const whole = float64(1<<63) * 2 // 2^64
	for i, p := range r.points {
		var span uint64
		if i == 0 {
			// Arc from the last point, wrapping through 0, to the first.
			span = r.points[0].hash - r.points[len(r.points)-1].hash // wraps mod 2^64
		} else {
			span = p.hash - r.points[i-1].hash
		}
		out[p.owner] += float64(span) / whole
	}
	return out
}

// Change is one arc of the hash space whose owner differs between two
// rings: keys hashing into (Start, End] move From -> To.
type Change struct {
	Start, End uint64 // (Start, End] clockwise; End may wrap below Start
	From, To   string
}

// Changes diffs two rings and returns the arcs whose ownership moved.
// The union of the returned arcs is exactly the set of keys for which
// old.Owner != new.Owner: walking the diff touches every displaced key
// and nothing else.
func Changes(old, new *Ring) []Change {
	if old == nil || new == nil || len(old.points) == 0 || len(new.points) == 0 {
		return nil
	}
	// Boundaries of ownership arcs are the union of both point sets.
	cuts := make([]uint64, 0, len(old.points)+len(new.points))
	for _, p := range old.points {
		cuts = append(cuts, p.hash)
	}
	for _, p := range new.points {
		cuts = append(cuts, p.hash)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	cuts = dedupU64(cuts)

	ownerAt := func(r *Ring, h uint64) string {
		i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
		if i == len(r.points) {
			i = 0
		}
		return r.points[i].owner
	}
	var out []Change
	for i, end := range cuts {
		start := cuts[(i+len(cuts)-1)%len(cuts)] // previous cut (wraps)
		// Every key in (start, end] owns to the point at `end` in each
		// ring, because no boundary of either ring lies strictly inside.
		fo, no := ownerAt(old, end), ownerAt(new, end)
		if fo == no {
			continue
		}
		// Merge with the previous change when the arcs are adjacent and
		// carry the same movement (keeps the diff compact).
		if n := len(out); n > 0 && out[n-1].End == start && out[n-1].From == fo && out[n-1].To == no {
			out[n-1].End = end
			continue
		}
		out = append(out, Change{Start: start, End: end, From: fo, To: no})
	}
	return out
}

// MovedFraction is the fraction of the hash space whose owner differs
// between the rings — the quantity the "bounded movement" invariant
// limits to ~1/N on a single join or leave.
func MovedFraction(old, new *Ring) float64 {
	const whole = float64(1<<63) * 2
	var moved float64
	for _, c := range Changes(old, new) {
		moved += float64(c.End-c.Start) / whole // wraps mod 2^64
	}
	return moved
}

func dedupU64(s []uint64) []uint64 {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}
