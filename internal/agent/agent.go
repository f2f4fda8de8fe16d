package agent

import (
	"errors"
	"fmt"
	"strings"

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

// Reserved SRO image keys under which the runtime snapshots system state
// (itinerary + cursor + step sequence) so that a rollback also restores the
// agent's position. The prefix cannot collide with application keys set
// through Space (applications choose their own keys; the runtime rejects
// this prefix in SystemImage).
const (
	sysPrefix     = "__sys/"
	sysKeyCursor  = sysPrefix + "cursor"
	sysKeyItin    = sysPrefix + "itinerary"
	sysKeyStepSeq = sysPrefix + "stepseq"
	sysKeyWRO     = sysPrefix + "wro"
)

// SystemImage returns the SRO snapshot augmented with the system state
// (cursor, itinerary, step counter); this is the image savepoint entries
// store.
func (a *Agent) SystemImage() (map[string][]byte, error) {
	img := a.SRO.Snapshot()
	for k := range img {
		if strings.HasPrefix(k, sysPrefix) {
			return nil, fmt.Errorf("agent %s: reserved SRO key %q", a.ID, k)
		}
	}
	itin, err := a.Itin.AppendTo(nil)
	if err != nil {
		return nil, err
	}
	img[sysKeyCursor] = a.Cursor.AppendTo(nil)
	img[sysKeyItin] = itin
	img[sysKeyStepSeq] = wire.EncodeInt64(int64(a.StepSeq))
	return img, nil
}

// SystemImageWithWRO is SystemImage plus a before-image of the weakly
// reversible objects. The paper argues (§2, §4.1) that restoring WROs from
// images is WRONG — compensation produces information (refund notes,
// replacement cash) that an image restore would erase, and image-restored
// cash double-spends. This method exists only for the saga-style baseline
// (DESIGN.md S16b) that demonstrates the failure; the real mechanism never
// calls it.
func (a *Agent) SystemImageWithWRO() (map[string][]byte, error) {
	img, err := a.SystemImage()
	if err != nil {
		return nil, err
	}
	img[sysKeyWRO] = wire.AppendBytesMap(nil, a.WRO.Data)
	return img, nil
}

// RestoreSystemImage restores the SRO space and the system state from a
// savepoint image produced by SystemImage.
func (a *Agent) RestoreSystemImage(img map[string][]byte) error {
	raw, ok := img[sysKeyCursor]
	if !ok {
		return fmt.Errorf("agent %s: savepoint image lacks system state", a.ID)
	}
	r := wire.NewReader(raw)
	cursor := itinerary.ReadCursor(r)
	if err := r.Done(); err != nil {
		return fmt.Errorf("agent %s: savepoint cursor: %w", a.ID, err)
	}
	r = wire.NewReader(img[sysKeyItin])
	itin := itinerary.ReadItinerary(r)
	if err := r.Done(); err != nil {
		return fmt.Errorf("agent %s: savepoint itinerary: %w", a.ID, err)
	}
	seq, ok := wire.DecodeInt64(img[sysKeyStepSeq])
	if !ok {
		return fmt.Errorf("agent %s: savepoint step counter: %w", a.ID, wire.ErrCorrupt)
	}
	a.Cursor = cursor
	a.Itin = itin
	a.StepSeq = int(seq)
	if wroRaw, ok := img[sysKeyWRO]; ok {
		// Saga-baseline image (SystemImageWithWRO): restore the WROs
		// from the before-image — deliberately wrong per §4.1, kept for
		// the S16b demonstration.
		r = wire.NewReader(wroRaw)
		wroImg := r.BytesMap()
		if err := r.Done(); err != nil {
			return fmt.Errorf("agent %s: savepoint WRO image: %w", a.ID, err)
		}
		a.WRO.Restore(wroImg)
	}
	a.RestoreSRO(img)
	return nil
}

// RestoreSRO replaces the strongly reversible objects with the
// application part of a savepoint image, leaving the system keys out. It
// is the one place an image becomes the SRO: RestoreSystemImage ends with
// it, and a rollback applies it as soon as its target savepoint is known,
// because no compensation can read the SRO it would otherwise carry
// (§4.3).
func (a *Agent) RestoreSRO(img map[string][]byte) {
	app := make(map[string][]byte, len(img))
	for k, v := range img {
		if !strings.HasPrefix(k, sysPrefix) {
			app[k] = v
		}
	}
	a.SRO.Restore(app)
}
