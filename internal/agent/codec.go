package agent

import (
	"repro/internal/core"
	"repro/internal/itinerary"
	"repro/internal/wire"
)

// Binary encoding of the agent as it travels inside the container
// (wire.Reader's canonical format; DESIGN.md "Wire format"):
//
//	Agent  present:bool [ ID Owner StepSeq Cursor Itinerary WRO SRO Log ]
//	Space  present:bool [ Data:map ]

// AppendTo appends the agent's encoding to buf; a nil agent round-trips
// as nil. The log is the last field, given the itinerary's bytes just
// written, so a savepoint that recorded the same itinerary refers to them:
// logAt is the offset in out where the log's entries begin (len(out) for
// no agent or no log). It fails where the itinerary or the log cannot be
// encoded.
func (a *Agent) AppendTo(buf []byte) (out []byte, logAt int, err error) {
	if a == nil {
		buf = wire.AppendBool(buf, false)
		return buf, len(buf), nil
	}
	buf = wire.AppendBool(buf, true)
	buf = wire.AppendString(buf, a.ID)
	buf = wire.AppendString(buf, a.Owner)
	buf = wire.AppendVarint(buf, int64(a.StepSeq))
	buf = a.Cursor.AppendTo(buf)
	itinAt := len(buf)
	if a.Itin != nil && a.Itin == a.itinRead {
		buf = append(buf, a.itinEnc...)
	} else if buf, err = a.Itin.AppendTo(buf); err != nil {
		return nil, 0, err
	}
	itin := buf[itinAt:len(buf):len(buf)]
	buf = a.WRO.appendTo(buf)
	buf = a.SRO.appendTo(buf)
	return a.Log.AppendTo(buf, itin)
}

// Read consumes an agent written by AppendTo. Data-space, image,
// parameter and savepoint itinerary values alias r's input, and the
// names and map keys are slices of one string (wire.Reader.Share). ID
// and Owner, which callers keep past the agent, share a copy of their
// own. The log is scanned, its entries decoded as they are read.
func Read(r *wire.Reader) *Agent {
	if !r.Bool() {
		return nil
	}
	id, owner := r.Bytes(), r.Bytes()
	both := string(id) + string(owner)
	a := &Agent{ID: both[:len(id)], Owner: both[len(id):], StepSeq: r.Int(), Cursor: itinerary.ReadCursor(r)}
	r.Share()
	mark := r.Mark()
	a.Itin = itinerary.ReadItinerary(r)
	itin := r.Since(mark)
	if a.Itin.Ordered() {
		a.itinRead, a.itinEnc = a.Itin, itin
	}
	spaces := new([2]Space) // one allocation for both
	a.WRO, a.SRO = readSpace(r, &spaces[0]), readSpace(r, &spaces[1])
	a.Log = core.ScanLog(r, itin)
	return a
}

func (s *Space) appendTo(buf []byte) []byte {
	if s == nil {
		return wire.AppendBool(buf, false)
	}
	buf = wire.AppendBool(buf, true)
	return wire.AppendBytesMap(buf, s.Data)
}

// readSpace reads a space into s and returns it, or nil for an absent
// space.
func readSpace(r *wire.Reader, s *Space) *Space {
	if !r.Bool() {
		return nil
	}
	s.Data = r.BytesMap()
	return s
}
