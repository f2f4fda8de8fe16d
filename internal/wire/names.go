package wire

import (
	"encoding/binary"
	"sync"
)

// Name tables: how the itinerary and the rollback log write the strings
// they repeat — sub IDs, step methods and locations, node and operation
// names, savepoint IDs and the keys of parameter maps and savepoint
// images. A part that writes names starts a fresh table, and each name is
// one uvarint x:
//
//	x even  an inline name of x/2 bytes follows; unless empty, it joins
//	        the table as its next entry
//	x odd   table entry (x-1)/2, a name written inline earlier in the part
//
// so a repeated name costs one or two bytes, as a back-reference costs in
// Java Object Serialization (TC_REFERENCE). The encoder writes a name
// inline only the first time, and the reader refuses an inline repeat and
// a reference past the table, so whatever decodes re-encodes to the same
// bytes. A name read by reference is the string already allocated.

// Names is one part's name table. The writing side gets one from
// NewNames; a Reader takes one in StartNames.
type Names struct {
	list  []string
	index map[string]int // list index of each entry
}

// maxPooledNames caps the tables the pool keeps: a map never shrinks, so
// one part with many names would otherwise pin its size for good.
const maxPooledNames = 1 << 10

var namesPool = sync.Pool{New: func() any { return new(Names) }}

// NewNames returns an empty table for one part's encode; Release it once
// the part is written.
func NewNames() *Names { return namesPool.Get().(*Names) }

// Release empties t and returns it to the pool.
func (t *Names) Release() {
	if len(t.list) > maxPooledNames {
		return
	}
	clear(t.list)
	t.list = t.list[:0]
	clear(t.index)
	namesPool.Put(t)
}

// add appends s to the table.
func (t *Names) add(s string) {
	if t.index == nil {
		t.index = make(map[string]int)
	}
	t.index[s] = len(t.list)
	t.list = append(t.list, s)
}

// Append appends s through the table.
func (t *Names) Append(buf []byte, s string) []byte {
	if i, ok := t.index[s]; ok {
		return binary.AppendUvarint(buf, uint64(i)<<1|1)
	}
	buf = binary.AppendUvarint(buf, uint64(len(s))<<1)
	if s != "" {
		t.add(s)
	}
	return append(buf, s...)
}

// AppendList appends a count-prefixed list of names.
func (t *Names) AppendList(buf []byte, ss []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = t.Append(buf, s)
	}
	return buf
}

// AppendNamedMap is AppendBytesMap with the keys written through t.
func AppendNamedMap[M ~map[string][]byte](buf []byte, t *Names, m M) []byte {
	return appendMap(buf, t, m)
}

// StartNames begins a fresh name table for the part that follows, which
// wrote its names through a table of its own; EndNames closes it.
func (r *Reader) StartNames() {
	r.EndNames()
	r.names = NewNames()
}

// EndNames returns the part's table to the pool. The part's names stay
// valid.
func (r *Reader) EndNames() {
	if r.names != nil {
		r.names.Release()
		r.names = nil
	}
}

// Name consumes a name written by Names.Append, within StartNames and
// EndNames.
func (r *Reader) Name() string {
	x := r.Uvarint()
	if x&1 == 1 {
		if i := x >> 1; i < uint64(len(r.names.list)) {
			return r.names.list[i]
		}
		r.Fail("name reference %d past a table of %d", x>>1, len(r.names.list))
		return ""
	}
	switch n := x >> 1; {
	case n > uint64(len(r.b)):
		r.Fail("name length %d exceeds buffer", n)
		return ""
	case n == 0:
		return ""
	}
	b := r.b[:x>>1]
	r.b = r.b[x>>1:]
	if _, ok := r.names.index[string(b)]; ok {
		r.Fail("name %q written inline twice", b)
		return ""
	}
	s := string(b)
	r.names.add(s)
	return s
}

// NameList consumes a list written by Names.AppendList; empty yields nil.
func (r *Reader) NameList() []string {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.Name()
	}
	return ss
}

// NamedMap consumes a map written by AppendNamedMap. Values alias the
// input.
func (r *Reader) NamedMap() map[string][]byte { return r.bytesMap(true) }
