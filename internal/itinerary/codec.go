package itinerary

import (
	"fmt"

	"repro/internal/wire"
)

// Binary encoding of the itinerary and its cursor, as they travel inside
// the agent container and inside savepoint images (wire.Reader's
// canonical format; DESIGN.md "Wire format"):
//
//	Itinerary  present:bool [ nSubs { Sub } ]
//	Sub        ID:name AnyOrder:bool nEntries { kind:byte (Step | Sub) }
//	Step       Method:name Loc:name nAlt { name }
//	Cursor     Done:bool nPath { varint }
//
// An itinerary writes its names through a table of its own (wire.Names),
// so a method or node that recurs costs a back-reference.
const (
	kindStep byte = 1
	kindSub  byte = 2
)

// maxDepth caps sub-itinerary nesting on both sides of the codec, so a
// crafted input cannot recurse the decoder off the stack and nothing
// encodes that would not decode.
const maxDepth = 64

// AppendTo appends the itinerary's encoding to buf; a nil itinerary
// round-trips as nil. It fails on what Validate would also reject as
// unencodable: a nil sub, an entry of unknown type, nesting beyond
// maxDepth.
func (it *Itinerary) AppendTo(buf []byte) ([]byte, error) {
	if it == nil {
		return wire.AppendBool(buf, false), nil
	}
	names := wire.NewNames()
	defer names.Release()
	buf = wire.AppendBool(buf, true)
	buf = wire.AppendUvarint(buf, uint64(len(it.Subs)))
	for _, sub := range it.Subs {
		var err error
		if buf, err = appendSub(buf, names, sub, 1); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func appendSub(buf []byte, names *wire.Names, sub *Sub, depth int) ([]byte, error) {
	if sub == nil {
		return nil, fmt.Errorf("itinerary: encode: nil sub-itinerary")
	}
	if depth > maxDepth {
		return nil, fmt.Errorf("itinerary: encode: sub-itinerary %q nested deeper than %d", sub.ID, maxDepth)
	}
	buf = names.Append(buf, sub.ID)
	buf = wire.AppendBool(buf, sub.AnyOrder)
	buf = wire.AppendUvarint(buf, uint64(len(sub.Entries)))
	for _, e := range sub.Entries {
		switch v := e.(type) {
		case Step:
			buf = append(buf, kindStep)
			buf = names.Append(buf, v.Method)
			buf = names.Append(buf, v.Loc)
			buf = names.AppendList(buf, v.Alt)
		case *Sub:
			buf = append(buf, kindSub)
			var err error
			if buf, err = appendSub(buf, names, v, depth+1); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("itinerary: encode: unknown entry type %T in %q", e, sub.ID)
		}
	}
	return buf, nil
}

// ReadItinerary consumes an itinerary written by AppendTo; failures are
// reported through r.
func ReadItinerary(r *wire.Reader) *Itinerary {
	if !r.Bool() {
		return nil
	}
	r.StartNames()
	defer r.EndNames()
	it := &Itinerary{}
	// A sub costs at least its ID length, order flag and entry count.
	if n := r.Count(3); n > 0 {
		it.Subs = make([]*Sub, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			it.Subs = append(it.Subs, readSub(r, 1))
		}
	}
	return it
}

func readSub(r *wire.Reader, depth int) *Sub {
	if depth > maxDepth {
		r.Fail("sub-itinerary nested deeper than %d", maxDepth)
		return nil
	}
	sub := &Sub{ID: r.Name(), AnyOrder: r.Bool()}
	// An entry costs at least its kind byte and three length bytes.
	n := r.Count(4)
	if n == 0 {
		return sub
	}
	sub.Entries = make([]Entry, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		switch kind := r.Byte(); kind {
		case kindStep:
			sub.Entries = append(sub.Entries, Step{Method: r.Name(), Loc: r.Name(), Alt: r.NameList()})
		case kindSub:
			sub.Entries = append(sub.Entries, readSub(r, depth+1))
		default:
			r.Fail("itinerary entry kind 0x%02x", kind)
		}
	}
	return sub
}

// AppendTo appends the cursor's encoding to buf.
func (c Cursor) AppendTo(buf []byte) []byte {
	buf = wire.AppendBool(buf, c.Done)
	buf = wire.AppendUvarint(buf, uint64(len(c.Path)))
	for _, idx := range c.Path {
		buf = wire.AppendVarint(buf, int64(idx))
	}
	return buf
}

// ReadCursor consumes a cursor written by Cursor.AppendTo.
func ReadCursor(r *wire.Reader) Cursor {
	c := Cursor{Done: r.Bool()}
	if n := r.Count(1); n > 0 {
		c.Path = make([]int, n)
		for i := range c.Path {
			c.Path[i] = r.Int()
		}
	}
	return c
}

// SkipCursor consumes a cursor as ReadCursor does, refusing what it
// refuses, and keeps nothing.
func SkipCursor(r *wire.Reader) {
	r.Bool()
	for n := r.Count(1); n > 0 && r.Err() == nil; n-- {
		r.Int()
	}
}
