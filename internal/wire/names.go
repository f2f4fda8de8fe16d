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
//
// A part can be written or read in pieces: ContinueNames and ResumeNames
// take up a table that an earlier read of the part's first pieces built,
// so a piece appended to a part, or one piece read alone, needs no pass
// over what precedes it.

// Names is one part's name table. The writing side gets one from
// NewNames or ContinueNames; a Reader takes one in StartNames.
type Names struct {
	base []string // ContinueNames: the table's first entries, never written
	list []string // the entries after base
	// index maps each entry to its table index once the table outgrows
	// linearNames; it holds the first indexed entries, and a lookup adds
	// the rest.
	index   map[string]int
	indexed int
}

// linearNames is the table size up to which a lookup compares the entries
// in turn, which is cheaper than hashing and fills no map. Every itinerary
// and log part that the four bench workloads write or read holds at most
// 10 names (counted at Release over a 5 s run of each), so the map serves
// only larger parts.
const linearNames = 16

// maxPooledNames caps the tables the pool keeps: a map never shrinks, so
// one part with many names would otherwise pin its size for good.
const maxPooledNames = 1 << 10

var namesPool = sync.Pool{New: func() any { return new(Names) }}

// NewNames returns an empty table for one part's encode; Release it once
// the part is written.
func NewNames() *Names { return namesPool.Get().(*Names) }

// ContinueNames returns a table whose first entries are base, for
// appending to a part whose names so far are base (the table a Reader's
// EndNamesTable returned); base is read, never written. Release it once
// the part is written.
func ContinueNames(base []string) *Names {
	t := NewNames()
	t.base = base
	return t
}

// Release empties t and returns it to the pool.
func (t *Names) Release() {
	if t.len() > maxPooledNames {
		return
	}
	clear(t.list)
	t.base, t.list = nil, t.list[:0]
	clear(t.index)
	t.indexed = 0
	namesPool.Put(t)
}

func (t *Names) len() int { return len(t.base) + len(t.list) }

// at returns table entry i.
func (t *Names) at(i int) string {
	if i < len(t.base) {
		return t.base[i]
	}
	return t.list[i-len(t.base)]
}

// find returns the table index of name.
func find[S string | []byte](t *Names, name S) (int, bool) {
	if n := t.len(); n > linearNames {
		if t.index == nil {
			t.index = make(map[string]int, 2*n)
		}
		for ; t.indexed < n; t.indexed++ {
			t.index[t.at(t.indexed)] = t.indexed
		}
		i, ok := t.index[string(name)]
		return i, ok
	}
	for i, s := range t.base {
		if s == string(name) {
			return i, true
		}
	}
	for i, s := range t.list {
		if s == string(name) {
			return len(t.base) + i, true
		}
	}
	return 0, false
}

// Append appends s through the table.
func (t *Names) Append(buf []byte, s string) []byte {
	if i, ok := find(t, s); ok {
		return binary.AppendUvarint(buf, uint64(i)<<1|1)
	}
	buf = binary.AppendUvarint(buf, uint64(len(s))<<1)
	if s != "" {
		t.list = append(t.list, s)
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

// ResumeNames continues reading a part at a piece whose table held
// table[:n] when it was written: table is what EndNamesTable returned
// for a read of the whole part, so a reference must name one of table[:n],
// and each name written inline must be the table's next. EndNames closes
// it.
func (r *Reader) ResumeNames(table []string, n int) {
	r.EndNames()
	r.known, r.next = table, n
}

// EndNames returns the part's table to the pool. The part's names stay
// valid.
func (r *Reader) EndNames() {
	if r.names != nil {
		r.names.Release()
		r.names = nil
	}
	r.known, r.next = nil, 0
}

// EndNamesTable is EndNames that returns the part's table, in first-use
// order: what ResumeNames and ContinueNames take up.
func (r *Reader) EndNamesTable() []string {
	table := r.known[:r.next:r.next]
	if r.names != nil {
		table = append([]string(nil), r.names.list...)
	}
	r.EndNames()
	return table
}

// NameCount returns the length of the table read so far.
func (r *Reader) NameCount() int {
	if r.names == nil {
		return r.next
	}
	return len(r.names.list)
}

// Name consumes a name written by Names.Append, within StartNames (or
// ResumeNames) and EndNames.
func (r *Reader) Name() string {
	s, _ := r.NameRef()
	return s
}

// NameRef is Name that also returns the name's index in the part's
// table, -1 for the empty name (and on failure): two names are equal
// exactly when their indices are.
func (r *Reader) NameRef() (string, int) {
	x := r.Uvarint()
	table := r.known[:r.next]
	if r.names != nil {
		table = r.names.list
	}
	if x&1 == 1 {
		if i := x >> 1; i < uint64(len(table)) {
			return table[i], int(i)
		}
		r.Fail("name reference %d past a table of %d", x>>1, len(table))
		return "", -1
	}
	switch n := x >> 1; {
	case n > uint64(len(r.b)):
		r.Fail("name length %d exceeds buffer", n)
		return "", -1
	case n == 0:
		return "", -1
	}
	b := r.b[:x>>1]
	r.b = r.b[x>>1:]
	if r.names == nil {
		if r.next < len(r.known) && r.known[r.next] == string(b) {
			r.next++
			return r.known[r.next-1], r.next - 1
		}
		r.Fail("name %q does not continue the table", b)
		return "", -1
	}
	if _, ok := find(r.names, b); ok {
		r.Fail("name %q written inline twice", b)
		return "", -1
	}
	s := r.str(b)
	r.names.list = append(r.names.list, s)
	return s, len(table)
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

// SkipNameList consumes a list as NameList does, refusing what it
// refuses, and keeps nothing.
func (r *Reader) SkipNameList() {
	n := r.Count(1)
	for i := 0; i < n && r.err == nil; i++ {
		r.NameRef()
	}
}

// NamedMap consumes a map written by AppendNamedMap. Values alias the
// input.
func (r *Reader) NamedMap() map[string][]byte { return r.bytesMap(true, true) }

// SkipNamedMap consumes a map as NamedMap does, refusing what it refuses,
// and keeps nothing.
func (r *Reader) SkipNamedMap() { r.bytesMap(true, false) }
