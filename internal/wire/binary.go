package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Binary codec substrate: the hand-rolled length-prefixed format that
// carries the protocol messages (stage/ctl/ack cycles, RCE lists, launch
// and completion notifications) and the agent container without gob's
// reflection or per-message type descriptors.
//
// Layering. A binary *payload* is what replaces one gob-encoded message
// struct: a version byte, a type byte identifying the struct, then the
// struct's fields written with the varint helpers below. A binary
// *frame* is the TCP transport's unit: a magic byte and a length prefix
// around one routed message (see network's frame codec). Both lead-in
// bytes live in the 0x80..0xF7 window that can never start a gob stream
// (see scalar.go), so gob bytes handed to a binary decoder fail on the
// first byte with ErrCorrupt instead of being misparsed. There is no
// fallback: a message type with a binary codec travels only in it.
//
// Type-byte registry. Payload type bytes are partitioned by owning
// package so they cannot collide:
//
//	0x01..0x0f  internal/protocol (prepare, ack, ctl, status, rce.exec)
//	0x10..0x1f  internal/node     (done notification, agent container, launch,
//	                               done record, membership announce)
//	0x20..0x2f  internal/stable   (0x20 and 0x21 retired: prepared queue insertions)
//	0x30..0x37  internal/resource (bank, shop, directory, exchange state)
//	0x38..0x3f  internal/txn      (prepared-branch records, the decider's outcome record)
//
// The authoritative table is in DESIGN.md ("Wire format"). Never reuse
// or renumber a released type byte; the wire format is a compatibility
// surface.
const (
	// BinaryVersion is the first byte of every binary payload. Bump
	// means a new, incompatible payload layout; decoders reject unknown
	// versions rather than guessing.
	BinaryVersion byte = 0x90
	// FrameMagic is the first byte of every binary transport frame
	// (the TCP endpoint's length-prefixed unit); a connection that
	// opens with anything else is closed.
	FrameMagic byte = 0x91
)

// ErrCorrupt marks a binary payload or frame that does not parse:
// truncated, over-long declared lengths, an unknown version, or trailing
// garbage. Receivers treat it like a lost message.
var ErrCorrupt = errors.New("wire: corrupt binary encoding")

// BinaryMessage is implemented by message structs with a hand-rolled
// binary codec. AppendTo appends the complete payload (version byte,
// type byte, fields) to buf and returns the extended slice — append
// idiom, so callers reuse scratch buffers across messages. DecodeFrom
// parses a payload produced by AppendTo.
//
// DecodeFrom is zero-copy for []byte fields: they alias buf. The caller
// must hand DecodeFrom a buffer it will not mutate afterwards (inbound
// network payloads qualify: each is freshly allocated and immutable
// once delivered).
type BinaryMessage interface {
	AppendTo(buf []byte) []byte
	DecodeFrom(buf []byte) error
}

// SplitBinary validates the two-byte payload header and returns the
// type byte and the field body.
func SplitBinary(data []byte) (typ byte, body []byte, err error) {
	if len(data) < 2 || data[0] != BinaryVersion {
		return 0, nil, fmt.Errorf("%w: bad payload header", ErrCorrupt)
	}
	return data[1], data[2:], nil
}

// Body validates the payload header against the type byte the caller
// expects and returns the fields behind it.
func Body(data []byte, want byte) ([]byte, error) {
	typ, b, err := SplitBinary(data)
	if err != nil {
		return nil, err
	}
	if typ != want {
		return nil, fmt.Errorf("%w: payload type 0x%02x, want 0x%02x", ErrCorrupt, typ, want)
	}
	return b, nil
}

// --- append half ------------------------------------------------------

// AppendUvarint appends v in unsigned LEB128.
func AppendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// AppendVarint appends v in zig-zag signed LEB128.
func AppendVarint(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

// AppendString appends a length-prefixed string.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendBytes appends a length-prefixed byte slice.
func AppendBytes(buf []byte, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// AppendBool appends a bool as one byte.
func AppendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendStrings appends a count-prefixed string list.
func AppendStrings(buf []byte, ss []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = AppendString(buf, s)
	}
	return buf
}

// AppendBytesMap appends a string-keyed map of byte values (a data space,
// a savepoint image, compensation parameters) with the keys in sorted
// order, so equal maps give equal bytes. The count is shifted by one so
// nil and empty stay distinct across a round trip, as gob keeps them: 0
// is nil, n+1 is n entries.
func AppendBytesMap[M ~map[string][]byte](buf []byte, m M) []byte {
	return appendMap(buf, nil, m)
}

// appendMap writes a bytes map with its keys as plain strings, or through
// names when there is a table.
func appendMap[M ~map[string][]byte](buf []byte, names *Names, m M) []byte {
	if m == nil {
		return append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(m))+1)
	keys := make([]string, 0, 8) // the usual handful of keys sorts on the stack
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if names != nil {
			buf = names.Append(buf, k)
		} else {
			buf = AppendString(buf, k)
		}
		buf = AppendBytes(buf, m[k])
	}
	return buf
}

// scratchPool recycles append buffers for encodes whose result is
// measured or copied out exact-size, so steady-state encoding does not
// re-grow a fresh slice per call.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

// GetScratch returns a pooled buffer to append to from (*p)[:0]. Store the
// grown slice back through p before PutScratch so the growth is kept.
func GetScratch() *[]byte { return scratchPool.Get().(*[]byte) }

// PutScratch returns p to the pool unless it grew past the retention cap.
func PutScratch(p *[]byte) {
	if cap(*p) <= maxPooledBuf {
		scratchPool.Put(p)
	}
}

// --- read half --------------------------------------------------------

// Reader consumes a binary body field by field: the one read idiom of
// every binary decoder in the repository. The first malformed field sets a
// sticky ErrCorrupt and every later read returns the zero value, so a
// decoder checks Err where it is about to allocate in a loop and once at
// the end (Done).
//
// A Reader accepts only the canonical encoding — minimal varints, bool
// bytes 0 and 1, strictly ascending map keys, each name inline once (see
// Names) — so whatever it accepts re-encodes to the same bytes. []byte
// values alias the input.
type Reader struct {
	b     []byte
	err   error
	names *Names // the table of the part being read (StartNames)
	// ResumeNames: the part's whole table, known[:next] in scope.
	known []string
	next  int
	// Share: the names and map keys read since, back to back.
	share  bool
	shared strings.Builder
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decoding failure, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records a decoding failure found by the caller (an unknown kind
// byte, nesting too deep); the first failure wins.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
		r.b = nil
	}
}

// Done verifies the body was consumed whole and returns the verdict of
// the entire decode.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) != 0 {
		r.Fail("%d trailing bytes", len(r.b))
	}
	return r.err
}

// Uvarint consumes a minimally encoded unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.Fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint consumes a minimally encoded zig-zag signed varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Int consumes a signed varint that must fit an int.
func (r *Reader) Int() int {
	v := r.Varint()
	if int64(int(v)) != v {
		r.Fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// Byte consumes one byte.
func (r *Reader) Byte() byte {
	if len(r.b) == 0 {
		r.Fail("missing byte")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// Bool consumes one bool byte, 0 or 1.
func (r *Reader) Bool() bool {
	v := r.Byte()
	if v > 1 {
		r.Fail("bool byte 0x%02x", v)
	}
	return v == 1
}

// Bytes consumes a length-prefixed byte slice aliasing the input; a zero
// length yields nil.
func (r *Reader) Bytes() []byte { return r.Take(r.Uvarint()) }

// Take consumes the next n bytes, aliasing the input; n = 0 yields nil.
func (r *Reader) Take(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.Fail("length %d exceeds buffer", n)
		return nil
	}
	if n == 0 {
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// String consumes a length-prefixed string (a copy).
func (r *Reader) String() string { return string(r.Bytes()) }

// Share makes each name and map key read from here on a slice of one
// string that holds them back to back, so they cost an allocation or two
// together rather than one each; a name kept past the decode keeps only
// the names read with it alive, not the input.
func (r *Reader) Share() { r.share = true }

// str returns b, the input just consumed, as a string: after Share, a
// slice of the shared string.
func (r *Reader) str(b []byte) string {
	if !r.share || len(b) == 0 {
		return string(b)
	}
	if r.shared.Cap() == 0 {
		// Names are a small part of an input; the string grows when they
		// are more.
		r.shared.Grow(min(len(r.b)+len(b), 256))
	}
	at := r.shared.Len()
	r.shared.Write(b)
	return r.shared.String()[at:]
}

// Mark returns the input not yet consumed, for Since; it consumes
// nothing.
func (r *Reader) Mark() []byte { return r.b }

// Since returns the span consumed after mark was taken, aliasing the
// input: the encoding of what a decoder just read, for a later field to
// compare with or refer to.
func (r *Reader) Since(mark []byte) []byte {
	n := len(mark) - len(r.b)
	return mark[:n:n]
}

// Rest consumes everything that is left, aliasing the input: the trailing
// field of a record whose end is the record's own.
func (r *Reader) Rest() []byte {
	v := r.b
	r.b = nil
	return v
}

// Count consumes a declared element count and bounds it by the bytes
// that remain, each element costing at least minSize of them, so nothing
// is allocated for a count the input cannot hold.
func (r *Reader) Count(minSize int) int {
	n := r.Uvarint()
	if n > uint64(len(r.b)/minSize) {
		r.Fail("count %d exceeds buffer", n)
		return 0
	}
	return int(n)
}

// Strings consumes a list written by AppendStrings; empty yields nil.
func (r *Reader) Strings() []string {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.String()
	}
	return ss
}

// BytesMap consumes a map written by AppendBytesMap. Values alias the
// input.
func (r *Reader) BytesMap() map[string][]byte { return r.bytesMap(false, true) }

// bytesMap reads a map with plain or named keys; without keep it only
// checks the map and returns nil.
func (r *Reader) bytesMap(named, keep bool) map[string][]byte {
	shifted := r.Uvarint()
	if shifted == 0 {
		return nil
	}
	// Each entry costs at least a key and a value length byte.
	if shifted-1 > uint64(len(r.b)/2) {
		r.Fail("map of %d entries exceeds buffer", shifted-1)
		return nil
	}
	n := int(shifted - 1)
	var m map[string][]byte
	if keep {
		m = make(map[string][]byte, n)
	}
	prev := ""
	for i := 0; i < n && r.err == nil; i++ {
		var k string
		if named {
			k = r.Name()
		} else {
			k = r.str(r.Bytes())
		}
		if i > 0 && k <= prev {
			r.Fail("map key %q out of order", k)
			break
		}
		if v := r.Bytes(); keep {
			m[k] = v
		}
		prev = k
	}
	return m
}
