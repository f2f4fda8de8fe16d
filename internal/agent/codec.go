package agent

import (
	"repro/internal/core"
	"repro/internal/itinerary"
	"repro/internal/wire"
)

// Binary encoding of the agent as it travels inside the container
// (wire.Reader's canonical format; DESIGN.md "Wire format"):
//
//	Agent  present:bool [ ID Owner StepSeq Cursor Itinerary | WRO SRO Log ]
//	Space  present:bool [ Data:map ]
//
// The fields before the bar are the head: what routing decisions read
// (ReadHead) without touching the data spaces or the log.

// AppendTo appends the agent's encoding to buf; a nil agent round-trips
// as nil. It fails where the itinerary or the log cannot be encoded.
func (a *Agent) AppendTo(buf []byte) ([]byte, error) {
	if a == nil {
		return wire.AppendBool(buf, false), nil
	}
	buf = wire.AppendBool(buf, true)
	buf = wire.AppendString(buf, a.ID)
	buf = wire.AppendString(buf, a.Owner)
	buf = wire.AppendVarint(buf, int64(a.StepSeq))
	buf = a.Cursor.AppendTo(buf)
	buf, err := a.Itin.AppendTo(buf)
	if err != nil {
		return nil, err
	}
	buf = a.WRO.appendTo(buf)
	buf = a.SRO.appendTo(buf)
	return a.Log.AppendTo(buf)
}

// ReadHead consumes the head of an agent written by AppendTo and stops
// before the data spaces: the returned agent has ID, Owner, StepSeq,
// Cursor and Itin set and nothing else. Failures are reported through r.
func ReadHead(r *wire.Reader) *Agent {
	if !r.Bool() {
		return nil
	}
	return &Agent{
		ID:      r.String(),
		Owner:   r.String(),
		StepSeq: r.Int(),
		Cursor:  itinerary.ReadCursor(r),
		Itin:    itinerary.ReadItinerary(r),
	}
}

// Read consumes an agent written by AppendTo. Data-space, image and
// parameter values alias r's input.
func Read(r *wire.Reader) *Agent {
	a := ReadHead(r)
	if a == nil {
		return nil
	}
	a.WRO = readSpace(r)
	a.SRO = readSpace(r)
	a.Log = core.ReadLog(r)
	return a
}

func (s *Space) appendTo(buf []byte) []byte {
	if s == nil {
		return wire.AppendBool(buf, false)
	}
	buf = wire.AppendBool(buf, true)
	return wire.AppendBytesMap(buf, s.Data)
}

func readSpace(r *wire.Reader) *Space {
	if !r.Bool() {
		return nil
	}
	return &Space{Data: r.BytesMap()}
}
