package core

import (
	"fmt"
	"sort"
)

// AppendSavepoint captures the system state sys (nil for none) and a copy
// of the SRO contents in a new savepoint entry appended to the log. Under
// StateLogging the full SRO image is stored; under TransitionLogging only
// the difference against the previous data-carrying savepoint is stored,
// except that the first savepoint in the log always carries a full base
// image (§4.2). sys is stored whole either way.
func (l *Log) AppendSavepoint(id string, sys *SysState, sro map[string][]byte, mode LogMode, auto bool) error {
	if l.HasSavepoint(id) {
		return fmt.Errorf("core: savepoint %q already in log", id)
	}
	sp := &SavepointEntry{ID: id, Mode: mode, Sys: sys, Auto: auto}
	switch mode {
	case StateLogging:
		sp.Image = copyImage(sro)
	case TransitionLogging:
		prev, err := l.lastSROState()
		if err != nil {
			return err
		}
		if prev == nil {
			sp.Image = copyImage(sro) // base image
		} else {
			sp.Delta = computeDelta(prev, sro)
		}
	default:
		return fmt.Errorf("core: unknown log mode %d", mode)
	}
	l.Append(sp)
	return nil
}

// AppendSpecialSavepoint appends a data-less savepoint whose SRO state is
// that of the (earlier) savepoint refID (§4.4.2).
func (l *Log) AppendSpecialSavepoint(id, refID string, auto bool) error {
	if l.HasSavepoint(id) {
		return fmt.Errorf("core: savepoint %q already in log", id)
	}
	if !l.HasSavepoint(refID) {
		return fmt.Errorf("%w: special savepoint %q references %q", ErrNoSuchSavepoint, id, refID)
	}
	l.Append(&SavepointEntry{ID: id, Special: true, RefID: refID, Auto: auto})
	return nil
}

// SavepointState returns what savepoint id recorded: the system state and
// the SRO image (ReconstructSRO). A special savepoint resolves both
// through RefID.
func (l *Log) SavepointState(id string) (*SysState, map[string][]byte, error) {
	idx := l.savepointIndex(id)
	if idx < 0 {
		return nil, nil, fmt.Errorf("%w: %q", ErrNoSuchSavepoint, id)
	}
	sp := l.Entries[idx].(*SavepointEntry)
	if sp.Special {
		return l.SavepointState(sp.RefID)
	}
	if sp.Sys == nil {
		return nil, nil, fmt.Errorf("core: savepoint %q records no system state", id)
	}
	sro, err := l.ReconstructSRO(id)
	return sp.Sys, sro, err
}

// ReconstructSRO returns the SRO state recorded at savepoint id, resolving
// special savepoints and, under transition logging, replaying the delta
// chain from the base image forward.
func (l *Log) ReconstructSRO(id string) (map[string][]byte, error) {
	idx := l.savepointIndex(id)
	if idx < 0 {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchSavepoint, id)
	}
	sp := l.Entries[idx].(*SavepointEntry)
	if sp.Special {
		return l.ReconstructSRO(sp.RefID)
	}
	if sp.Mode == StateLogging || sp.Delta == nil {
		return copyImage(sp.Image), nil
	}
	// Transition logging: replay forward from the base image.
	var state map[string][]byte
	for i := 0; i <= idx; i++ {
		cur, ok := l.Entries[i].(*SavepointEntry)
		if !ok || cur.Special {
			continue
		}
		switch {
		case cur.Delta == nil:
			state = copyImage(cur.Image)
		case state == nil:
			return nil, fmt.Errorf("core: savepoint %q has no base image in log", id)
		default:
			applyDelta(state, cur.Delta)
		}
	}
	return state, nil
}

// RemoveSavepoint removes savepoint id from the log once its sub-itinerary
// completed (§4.4.2). Under transition logging the removed savepoint's
// delta is merged into the next data-carrying savepoint — "a non-trivial
// task" the paper flags; this is the implementation. Removal fails if a
// special savepoint still references id.
func (l *Log) RemoveSavepoint(id string) error {
	idx := l.savepointIndex(id)
	if idx < 0 {
		return fmt.Errorf("%w: %q", ErrNoSuchSavepoint, id)
	}
	for _, e := range l.Entries {
		if sp, ok := e.(*SavepointEntry); ok && sp.Special && sp.RefID == id {
			return fmt.Errorf("core: savepoint %q still referenced by special savepoint %q", id, sp.ID)
		}
	}
	victim := l.Entries[idx].(*SavepointEntry)
	if !victim.Special && victim.Mode == TransitionLogging {
		// Re-base the next data-carrying savepoint before the chain
		// breaks.
		for j := idx + 1; j < len(l.Entries); j++ {
			next, ok := l.Entries[j].(*SavepointEntry)
			if !ok || next.Special {
				continue
			}
			state, err := l.ReconstructSRO(next.ID)
			if err != nil {
				return err
			}
			if victim.Delta == nil {
				// Victim was the base: the next savepoint becomes
				// the new base image.
				next.Image = state
				next.Delta = nil
			} else {
				prev, err := l.reconstructBefore(idx)
				if err != nil {
					return err
				}
				next.Image = nil
				next.Delta = computeDelta(prev, state)
			}
			break
		}
	}
	l.Entries = append(l.Entries[:idx], l.Entries[idx+1:]...)
	return nil
}

// lastSROState reconstructs the state of the last data-carrying savepoint,
// or returns nil if the log has none.
func (l *Log) lastSROState() (map[string][]byte, error) {
	for i := len(l.Entries) - 1; i >= 0; i-- {
		if sp, ok := l.Entries[i].(*SavepointEntry); ok && !sp.Special {
			return l.ReconstructSRO(sp.ID)
		}
	}
	return nil, nil
}

// reconstructBefore reconstructs the state of the last data-carrying
// savepoint strictly before index idx.
func (l *Log) reconstructBefore(idx int) (map[string][]byte, error) {
	for i := idx - 1; i >= 0; i-- {
		if sp, ok := l.Entries[i].(*SavepointEntry); ok && !sp.Special {
			return l.ReconstructSRO(sp.ID)
		}
	}
	return map[string][]byte{}, nil
}

func copyImage(src map[string][]byte) map[string][]byte {
	out := make(map[string][]byte, len(src))
	for k, v := range src {
		c := make([]byte, len(v))
		copy(c, v)
		out[k] = c
	}
	return out
}

// computeDelta returns the delta transforming prev into cur.
func computeDelta(prev, cur map[string][]byte) *SRODelta {
	d := &SRODelta{Changed: make(map[string][]byte)}
	for k, v := range cur {
		if old, ok := prev[k]; !ok || !bytesEqual(old, v) {
			c := make([]byte, len(v))
			copy(c, v)
			d.Changed[k] = c
		}
	}
	for k := range prev {
		if _, ok := cur[k]; !ok {
			d.Deleted = append(d.Deleted, k)
		}
	}
	sort.Strings(d.Deleted)
	return d
}

// applyDelta mutates state forward by d.
func applyDelta(state map[string][]byte, d *SRODelta) {
	for k, v := range d.Changed {
		c := make([]byte, len(v))
		copy(c, v)
		state[k] = c
	}
	for _, k := range d.Deleted {
		delete(state, k)
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
