package stable

import "sync"

// GroupCommit is the leader-election loop of group commit, shared by
// every engine whose Apply coalesces concurrent callers (wal.Store,
// repl.Store). A caller enqueues its batch and waits until a leader
// commits it. Whenever no leader is active, one queued caller
// takes over, hands the concatenated ops of everything queued at that
// moment (its own batch included) to commit as one crash-consistency
// point, wakes the group with the result and returns. Each leader
// commits exactly one group, so sustained concurrent traffic rotates
// leadership instead of making one caller commit other callers' groups
// for as long as the queue stays non-empty.
type GroupCommit struct {
	commit func([]Op) error

	mu      sync.Mutex
	cond    *sync.Cond // wakes queued callers when the leader finishes
	queue   []*groupWaiter
	leading bool
}

// groupWaiter is one Apply call waiting for its group to commit.
type groupWaiter struct {
	ops       []Op
	err       error
	committed bool
}

// NewGroupCommit returns a group committer over commit, which is called
// by one goroutine at a time and must not retain or modify its argument.
func NewGroupCommit(commit func([]Op) error) *GroupCommit {
	g := &GroupCommit{commit: commit}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Apply commits ops as part of a group and returns that group's result.
func (g *GroupCommit) Apply(ops []Op) error {
	w := &groupWaiter{ops: ops}
	g.mu.Lock()
	g.queue = append(g.queue, w)
	for !w.committed && g.leading {
		g.cond.Wait()
	}
	if w.committed {
		g.mu.Unlock()
		return w.err
	}
	// Become the leader for every batch queued right now.
	g.leading = true
	group := g.queue
	g.queue = nil
	g.mu.Unlock()

	all := ops
	if len(group) > 1 {
		all = nil
		for _, q := range group {
			all = append(all, q.ops...)
		}
	}
	err := g.commit(all)

	g.mu.Lock()
	for _, q := range group {
		q.err = err
		q.committed = true
	}
	g.leading = false
	g.mu.Unlock()
	g.cond.Broadcast()
	return err // w is part of group
}
