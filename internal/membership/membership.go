package membership

import (
	"fmt"
	"sort"
	"sync"
)

// Status is a member's lifecycle state. Alive and Suspect members stay
// on the ring — the paper's fault model treats failures as temporary, so
// suspicion must not move an agent's home (that would turn every blip
// into a migration storm). Only Left removes a member from the ring;
// leaving is permanent and drains the node first.
type Status uint8

const (
	Alive Status = iota
	Suspect
	Left
)

func (s Status) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Left:
		return "left"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Member is one node's entry in a view. Epoch is a per-member version
// bumped by the member itself (or the operator acting on it) whenever
// its status changes; merges take the higher epoch, so stale
// announcements can never resurrect a Left node or un-suspect a node
// behind its back.
type Member struct {
	Name   string
	Status Status
	Epoch  int64
}

// merge resolves two entries for the same member: higher epoch wins; at
// equal epochs the more advanced status wins (Left > Suspect > Alive).
// The operation is commutative, associative and idempotent — a
// join-semilattice — which is what makes flooding converge regardless of
// delivery order or duplication.
func merge(a, b Member) Member {
	if b.Epoch > a.Epoch {
		return b
	}
	if b.Epoch == a.Epoch && b.Status > a.Status {
		return b
	}
	return a
}

// View is a membership snapshot: one entry per known member, sorted by
// name. Views are value-like; Manager hands out copies.
type View struct {
	Members []Member
}

// Get returns the entry for name, if present.
func (v View) Get(name string) (Member, bool) {
	for _, m := range v.Members {
		if m.Name == name {
			return m, true
		}
	}
	return Member{}, false
}

// ringMembers lists the members that own ring space (Alive + Suspect).
func (v View) ringMembers() []string {
	out := make([]string, 0, len(v.Members))
	for _, m := range v.Members {
		if m.Status != Left {
			out = append(out, m.Name)
		}
	}
	return out
}

// Equal reports whether two views carry the same entries.
func (v View) Equal(o View) bool {
	if len(v.Members) != len(o.Members) {
		return false
	}
	for i := range v.Members {
		if v.Members[i] != o.Members[i] {
			return false
		}
	}
	return true
}

// Manager holds one node's membership view and its derived ring. It is
// pure state: the owning node feeds it announcements (Merge) and local
// transitions (SetStatus), and reads back the ring and the view. All
// methods are safe for concurrent use.
type Manager struct {
	mu     sync.Mutex
	self   string
	byName map[string]Member
	ring   *Ring
}

// NewManager builds a manager for node self seeded with the given
// members. Seeds with epoch 0 act as hints ("announce to these") that
// any real entry overrides; self is always present as Alive epoch 1.
func NewManager(self string, seed ...Member) *Manager {
	m := &Manager{
		self:   self,
		byName: make(map[string]Member, len(seed)+1),
	}
	for _, s := range seed {
		if s.Name == "" {
			continue
		}
		m.byName[s.Name] = s
	}
	if cur, ok := m.byName[self]; !ok || cur.Epoch < 1 {
		m.byName[self] = Member{Name: self, Status: Alive, Epoch: 1}
	}
	m.rebuildLocked()
	return m
}

// Self returns the owning node's name.
func (m *Manager) Self() string { return m.self }

// View returns a copy of the current view, sorted by member name.
func (m *Manager) View() View {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.viewLocked()
}

func (m *Manager) viewLocked() View {
	out := make([]Member, 0, len(m.byName))
	for _, e := range m.byName {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return View{Members: out}
}

// Ring returns the current ring (immutable; never nil).
func (m *Manager) Ring() *Ring {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ring
}

// Status returns the recorded status of name (Alive epoch 0 if unknown).
func (m *Manager) Status(name string) Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.byName[name].Status
}

// Left reports whether the owning node has announced its own departure —
// the node's drain condition.
func (m *Manager) Left() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.byName[m.self].Status == Left
}

// Merge folds a remote view in, entry by entry. It returns whether the
// local view changed (caller should re-broadcast: the flood rule) and
// whether the remote view was missing anything the local one knows
// (caller should reply to the sender so a restarted or lagging node
// re-learns the present — the anti-entropy rule).
func (m *Manager) Merge(remote View) (changed, remoteStale bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := make(map[string]bool, len(remote.Members))
	for _, r := range remote.Members {
		if r.Name == "" {
			continue
		}
		seen[r.Name] = true
		cur, ok := m.byName[r.Name]
		if !ok {
			m.byName[r.Name] = r
			changed = true
			continue
		}
		next := merge(cur, r)
		if next != cur {
			m.byName[r.Name] = next
			changed = true
		}
		if merge(r, cur) != r { // local entry is ahead of the remote one
			remoteStale = true
		}
	}
	for name := range m.byName {
		if !seen[name] {
			remoteStale = true
		}
	}
	if changed {
		m.rebuildLocked()
	}
	return changed, remoteStale
}

// SetStatus records a local status transition for name, bumping its
// epoch past everything seen so far, and returns the new entry (to be
// announced). Setting the current status again is a no-op.
func (m *Manager) SetStatus(name string, s Status) (Member, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.byName[name]
	if cur.Name != "" && cur.Status == s {
		return cur, false
	}
	next := Member{Name: name, Status: s, Epoch: cur.Epoch + 1}
	m.byName[name] = next
	m.rebuildLocked()
	return next, true
}

// Peers lists every known member except self that has not Left — the
// announcement fan-out set.
func (m *Manager) Peers() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.byName))
	for name, e := range m.byName {
		if name == m.self || e.Status == Left {
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (m *Manager) rebuildLocked() {
	m.ring = NewRing(m.viewLocked().ringMembers())
}
