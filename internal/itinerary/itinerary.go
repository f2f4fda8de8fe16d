// Package itinerary implements the hierarchical itinerary concept of
// §4.4.2 (and [14]): an itinerary describes which step an agent performs on
// which node and in which order, structured into nested sub-itineraries
// that double as rollback scopes.
//
// Rules from the paper:
//
//   - The main itinerary contains only sub-itineraries, no step entries.
//   - Entering a sub-itinerary automatically constitutes an agent
//     savepoint identified by the sub-itinerary's ID.
//   - A rollback always rolls back a complete sub-itinerary — the one
//     currently executed or an enclosing one.
//   - When a sub-itinerary completes, its savepoint (but not the
//     operation entries) can be removed from the rollback log.
//   - When a sub-itinerary directly contained in the main itinerary
//     completes, the whole rollback log is discarded; the agent can never
//     be rolled back past that point.
//
// The package is pure data + navigation; the node runtime drives the
// cursor and performs the log maintenance the events call for.
package itinerary

import (
	"errors"
	"fmt"
)

// Entry is one element of a (sub-)itinerary: either a Step or a nested
// *Sub.
type Entry interface {
	isEntry()
}

// Step is a step entry (meth()/loc): execute the registered step method on
// the given node. Alt lists nodes that may alternatively execute the step
// (and its compensation) when Loc is unreachable — the fault-tolerance hook
// of §4.3's discussion.
type Step struct {
	Method string
	Loc    string
	Alt    []string
}

// Sub is a nested sub-itinerary. Its ID names the automatic savepoint
// taken when the agent enters it and is the target of rollbacks of this
// scope. IDs must be unique within one itinerary.
//
// AnyOrder declares the order between the entries as *partial* (§4.4.2):
// the system chooses a concrete order when the sub is entered (see
// EnterHook / LocalityOrder in anyorder.go).
type Sub struct {
	ID       string
	Entries  []Entry
	AnyOrder bool
}

func (Step) isEntry() {}
func (*Sub) isEntry() {}

// Errors of the itinerary layer.
var (
	ErrDone        = errors.New("itinerary: execution finished")
	ErrInvalidPath = errors.New("itinerary: invalid cursor path")
)

// Itinerary is the main itinerary of an agent. It travels with the agent
// (it is data, not code) and is serialized into savepoint images so that a
// rollback also rolls back itinerary adaptations.
type Itinerary struct {
	Subs []*Sub
}

// New builds and validates a main itinerary from top-level sub-itineraries.
func New(subs ...*Sub) (*Itinerary, error) {
	it := &Itinerary{Subs: subs}
	if err := it.Validate(); err != nil {
		return nil, err
	}
	return it, nil
}

// Validate checks the structural rules: at least one top-level
// sub-itinerary, no step entries in the main itinerary (enforced by
// construction), unique sub IDs, no empty subs, and steps with methods and
// locations.
func (it *Itinerary) Validate() error {
	if len(it.Subs) == 0 {
		return errors.New("itinerary: main itinerary has no sub-itineraries")
	}
	seen := make(map[string]bool)
	for _, sub := range it.Subs {
		if err := validateSub(sub, seen); err != nil {
			return err
		}
	}
	return nil
}

func validateSub(sub *Sub, seen map[string]bool) error {
	if sub == nil {
		return errors.New("itinerary: nil sub-itinerary")
	}
	if sub.ID == "" {
		return errors.New("itinerary: sub-itinerary without ID")
	}
	if seen[sub.ID] {
		return fmt.Errorf("itinerary: duplicate sub-itinerary ID %q", sub.ID)
	}
	seen[sub.ID] = true
	if len(sub.Entries) == 0 {
		return fmt.Errorf("itinerary: sub-itinerary %q is empty", sub.ID)
	}
	for _, e := range sub.Entries {
		switch v := e.(type) {
		case Step:
			if v.Method == "" || v.Loc == "" {
				return fmt.Errorf("itinerary: step in %q missing method or location", sub.ID)
			}
		case *Sub:
			if err := validateSub(v, seen); err != nil {
				return err
			}
		default:
			return fmt.Errorf("itinerary: unknown entry type %T in %q", e, sub.ID)
		}
	}
	return nil
}

// Cursor identifies the next step to execute as an index path: Path[0]
// indexes Itinerary.Subs, each following element indexes the Entries of
// the sub at the previous level. Done marks a finished execution. Cursor
// is a value type; codec.go gives its encoding.
type Cursor struct {
	Path []int
	Done bool
}

// entryAt resolves the entry at path; path must address a valid entry.
func (it *Itinerary) entryAt(path []int) (Entry, error) {
	if it == nil || len(path) == 0 {
		return nil, ErrInvalidPath
	}
	if path[0] < 0 || path[0] >= len(it.Subs) {
		return nil, fmt.Errorf("%w: top index %d", ErrInvalidPath, path[0])
	}
	var cur Entry = it.Subs[path[0]]
	for _, idx := range path[1:] {
		sub, ok := cur.(*Sub)
		if !ok {
			return nil, fmt.Errorf("%w: descends into step", ErrInvalidPath)
		}
		if idx < 0 || idx >= len(sub.Entries) {
			return nil, fmt.Errorf("%w: index %d in %q", ErrInvalidPath, idx, sub.ID)
		}
		cur = sub.Entries[idx]
	}
	return cur, nil
}

// StepAt returns the step entry at the cursor.
func (it *Itinerary) StepAt(c Cursor) (Step, error) {
	if c.Done {
		return Step{}, ErrDone
	}
	e, err := it.entryAt(c.Path)
	if err != nil {
		return Step{}, err
	}
	step, ok := e.(Step)
	if !ok {
		return Step{}, fmt.Errorf("%w: cursor addresses a sub-itinerary", ErrInvalidPath)
	}
	return step, nil
}

func errEmptySub(id string) error {
	return fmt.Errorf("itinerary: sub-itinerary %q is empty", id)
}

// descendFirst extends path down to the first step leaf, returning the
// leaf path and the IDs of subs entered on the way (outermost first).
func descendFirst(e Entry, path []int) ([]int, []string, error) {
	return descendFirstHook(e, path, nil)
}

// Start returns the cursor of the first step and the sub IDs entered to
// reach it (outermost first — these all need savepoints before the first
// step runs).
func (it *Itinerary) Start() (Cursor, []string, error) {
	return it.StartHook(nil)
}

// Move describes the sub-itinerary boundary events of one cursor advance.
type Move struct {
	// Next is the cursor of the next step (Done when execution ends).
	Next Cursor
	// Left lists sub IDs whose execution completed, innermost first.
	// For each: remove its savepoint from the log; if it is a top-level
	// sub (TopLevelLeft), discard the whole log instead (§4.4.2).
	Left []string
	// TopLevelLeft is the completed top-level sub, if any ("" otherwise).
	TopLevelLeft string
	// Entered lists sub IDs newly entered, outermost first. Each needs a
	// savepoint before the next step runs; all but the first of a run
	// entered without an intervening step share the first one's state
	// (special savepoints, §4.4.2).
	Entered []string
}

// Advance computes the move from cursor c (which must address a step) to
// the following step in depth-first order.
func (it *Itinerary) Advance(c Cursor) (Move, error) {
	return it.AdvanceHook(c, nil)
}

// EnclosingSubs returns the IDs of the sub-itineraries containing the
// cursor, outermost first. The last element is the innermost (current)
// sub-itinerary — the default rollback scope.
func (it *Itinerary) EnclosingSubs(c Cursor) ([]string, error) {
	if c.Done || len(c.Path) == 0 {
		return nil, ErrDone
	}
	var ids []string
	for i := 1; i <= len(c.Path); i++ {
		e, err := it.entryAt(c.Path[:i])
		if err != nil {
			return nil, err
		}
		if sub, ok := e.(*Sub); ok {
			ids = append(ids, sub.ID)
		}
	}
	return ids, nil
}

// SubStart returns the cursor of the first step of the sub-itinerary with
// the given ID (used to resume execution after a rollback to that sub's
// savepoint).
func (it *Itinerary) SubStart(id string) (Cursor, error) {
	path := findSub(it.Subs, []int{}, id)
	if path == nil {
		return Cursor{}, fmt.Errorf("itinerary: no sub-itinerary %q", id)
	}
	e, err := it.entryAt(path)
	if err != nil {
		return Cursor{}, err
	}
	leafPath, _, err := descendFirst(e, path)
	if err != nil {
		return Cursor{}, err
	}
	return Cursor{Path: leafPath}, nil
}

// IsTopLevel reports whether id names a sub-itinerary directly contained
// in the main itinerary.
func (it *Itinerary) IsTopLevel(id string) bool {
	for _, sub := range it.Subs {
		if sub.ID == id {
			return true
		}
	}
	return false
}

func findSub(subs []*Sub, prefix []int, id string) []int {
	for i, sub := range subs {
		path := append(append([]int(nil), prefix...), i)
		if sub.ID == id {
			return path
		}
		if p := findSubIn(sub, path, id); p != nil {
			return p
		}
	}
	return nil
}

func findSubIn(sub *Sub, prefix []int, id string) []int {
	for j, e := range sub.Entries {
		s, ok := e.(*Sub)
		if !ok {
			continue
		}
		entryPath := append(append([]int(nil), prefix...), j)
		if s.ID == id {
			return entryPath
		}
		if p := findSubIn(s, entryPath, id); p != nil {
			return p
		}
	}
	return nil
}
