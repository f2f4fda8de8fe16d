package node

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/agent"
	"repro/internal/itinerary"
	"repro/internal/wire"
)

func TestPermanentErrorClassification(t *testing.T) {
	base := errors.New("boom")
	if isPermanent(base) {
		t.Error("plain error classified permanent")
	}
	p := permanent(base)
	if !isPermanent(p) {
		t.Error("permanent error not recognized")
	}
	wrapped := fmt.Errorf("context: %w", p)
	if !isPermanent(wrapped) {
		t.Error("wrapped permanent error not recognized")
	}
	if !errors.Is(wrapped, base) {
		t.Error("cause lost through permanent wrapper")
	}
}

func TestContainerRoundTrip(t *testing.T) {
	it, err := itinerary.New(&itinerary.Sub{ID: "s", Entries: []itinerary.Entry{
		itinerary.Step{Method: "m", Loc: "l"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := agent.New("a1", "owner", it)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WRO.Set("k", "v"); err != nil {
		t.Fatal(err)
	}
	data, err := EncodeContainer(&Container{Mode: ModeRollback, SpID: "sp9", Agent: a})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeContainer(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode != ModeRollback || got.SpID != "sp9" || got.Agent.ID != "a1" {
		t.Errorf("container = %+v", got)
	}
	var v string
	if err := got.Agent.WRO.MustGet("k", &v); err != nil || v != "v" {
		t.Errorf("agent data lost: %q, %v", v, err)
	}
}

func TestNodeNameValidation(t *testing.T) {
	if _, err := New(Config{Name: "bad#name"}, nil, nil, nil); err == nil {
		t.Error("node name with '#' accepted")
	}
}

func TestDoneMessageRoundTrip(t *testing.T) {
	it, err := itinerary.New(&itinerary.Sub{ID: "s", Entries: []itinerary.Entry{
		itinerary.Step{Method: "m", Loc: "l"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := agent.New("agent-7", "owner", it)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeContainer(&Container{Mode: ModeStep, Agent: a})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := wireEncodeDone(doneMsg{AgentID: "agent-7", Failed: true, Reason: "why", Data: data})
	if err != nil {
		t.Fatal(err)
	}
	done, err := DecodeDone(payload)
	if err != nil {
		t.Fatal(err)
	}
	if done.AgentID != "agent-7" || !done.Failed || done.Reason != "why" || done.Agent == nil {
		t.Errorf("done = %+v", done)
	}

	// A completion notification has only the binary form on the wire:
	// the same message gob-encoded is corrupt, not a fallback.
	gobEnc, err := wire.Encode(&doneMsg{AgentID: "agent-7", Data: data})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeDone(gobEnc); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("DecodeDone of gob bytes = %v, want wire.ErrCorrupt", err)
	}

	// The durable completion record is the owner plus that payload.
	rec := appendDoneRec("owner", &doneMsg{AgentID: "agent-7", Failed: true, Reason: "why", Data: data})
	owner, msg, err := readDoneRec(rec)
	if err != nil || owner != "owner" || !bytes.Equal(msg.AppendTo(nil), payload) {
		t.Errorf("done record = %q %+v, %v", owner, msg, err)
	}
	for name, in := range map[string][]byte{
		"truncated":   rec[:len(rec)-1],
		"trailing":    append(append([]byte{}, rec...), 0),
		"owner only":  rec[:8],
		"the payload": payload,
		"gob":         fixture(t, "done-record-fd17232.bin"),
	} {
		if _, _, err := readDoneRec(in); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%s done record: %v, want wire.ErrCorrupt", name, err)
		}
	}
}

func wireEncodeDone(m doneMsg) ([]byte, error) {
	return m.AppendTo(nil), nil
}
