package agent

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/itinerary"
	"repro/internal/wire"
)

// Agent is the mobile agent object: identity, the split private data
// space, the itinerary with its cursor, and the attached rollback log
// (§4.2: "the log is attached to the agent and hence migrates with the
// agent from node to node").
type Agent struct {
	ID    string
	Owner string // node/endpoint notified on completion or failure

	// StepSeq numbers executed steps; it tags BOS/EOS entries and makes
	// step transactions identifiable.
	StepSeq int

	SRO *Space // strongly reversible objects (§4.1)
	WRO *Space // weakly reversible objects (§4.1)

	Itin   *itinerary.Itinerary
	Cursor itinerary.Cursor

	Log *core.Log

	// itinRead is the itinerary Read decoded from itinEnc when no sub of
	// it has a partial order: the runtime edits an itinerary in place only
	// to fix such a sub's order (itinerary.EnterHook), so while Itin is
	// still itinRead its encoding is itinEnc, and AppendTo copies that.
	// An itinerary is replaced, never edited in place, anywhere else.
	itinRead *itinerary.Itinerary
	itinEnc  []byte
}

// New creates an agent with the given ID, owner and itinerary. The cursor
// is positioned before the first step; the IDs of sub-itineraries entered
// to reach it are returned so the launcher can write their savepoints.
func New(id, owner string, itin *itinerary.Itinerary) (*Agent, []string, error) {
	return NewAt(id, owner, itin, "")
}

// NewAt is New for a known launch node: sub-itineraries with a partial
// entry order (AnyOrder) that are entered on the way to the first step get
// a locality-aware concrete order starting from launchNode (§4.4.2's
// system-chosen order). With an empty launchNode the authored order is
// kept.
func NewAt(id, owner string, itin *itinerary.Itinerary, launchNode string) (*Agent, []string, error) {
	if id == "" {
		return nil, nil, errors.New("agent: empty ID")
	}
	var hook itinerary.EnterHook
	if launchNode != "" {
		hook = itinerary.LocalityOrder(launchNode)
	}
	cursor, entered, err := itin.StartHook(hook)
	if err != nil {
		return nil, nil, fmt.Errorf("agent %s: %w", id, err)
	}
	return &Agent{
		ID:     id,
		Owner:  owner,
		SRO:    NewSpace(),
		WRO:    NewSpace(),
		Itin:   itin,
		Cursor: cursor,
		Log:    &core.Log{},
	}, entered, nil
}

// SysState returns the execution state a new savepoint records beside
// the SRO: the cursor, the step counter and the itinerary's encoding.
func (a *Agent) SysState() (*core.SysState, error) {
	itin, err := a.Itin.AppendTo(nil)
	if err != nil {
		return nil, err
	}
	return &core.SysState{Cursor: a.Cursor, StepSeq: a.StepSeq, Itin: itin}, nil
}

// RestoreSavepoint returns the agent to savepoint id of its log (§4.3):
// the cursor, step counter, itinerary and SRO recorded there. The WRO is
// compensated, never restored (§4.1). This is the one place a savepoint's
// itinerary is decoded.
func (a *Agent) RestoreSavepoint(id string) error {
	sys, sro, err := a.Log.SavepointState(id)
	if err != nil {
		return fmt.Errorf("agent %s: %w", a.ID, err)
	}
	r := wire.NewReader(sys.Itin)
	itin := itinerary.ReadItinerary(r)
	if err := r.Done(); err != nil {
		return fmt.Errorf("agent %s: savepoint %q itinerary: %w", a.ID, id, err)
	}
	a.Cursor = sys.Cursor
	a.Itin = itin
	a.StepSeq = sys.StepSeq
	a.SRO.Restore(sro)
	return nil
}

// RestoreSRO replaces the SRO with the one savepoint id recorded. A
// rollback applies it as soon as its target savepoint is known, because
// no compensation can read the SRO it would otherwise carry (§4.3);
// RestoreSavepoint restores the same bytes again on reaching the target.
func (a *Agent) RestoreSRO(id string) error {
	sro, err := a.Log.ReconstructSRO(id)
	if err != nil {
		return fmt.Errorf("agent %s: %w", a.ID, err)
	}
	a.SRO.Restore(sro)
	return nil
}
