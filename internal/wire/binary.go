package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Binary codec substrate: the hand-rolled length-prefixed format that
// carries the high-volume protocol messages (stage/ctl/ack cycles, RCE
// lists, completion notifications) without gob's reflection or
// per-message type descriptors.
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
//	0x10..0x1f  internal/node     (done notification)
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

// --- append half ------------------------------------------------------

// AppendUvarint appends v in unsigned LEB128.
func AppendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
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

// --- read half --------------------------------------------------------

// ReadUvarint consumes an unsigned varint from b, returning the value
// and the remainder.
func ReadUvarint(b []byte) (v uint64, rest []byte, err error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad varint", ErrCorrupt)
	}
	return v, b[n:], nil
}

// ReadString consumes a length-prefixed string from b. The string is a
// copy (strings are immutable; the source buffer may outlive it safely
// either way).
func ReadString(b []byte) (s string, rest []byte, err error) {
	raw, rest, err := ReadBytes(b)
	if err != nil {
		return "", nil, err
	}
	return string(raw), rest, nil
}

// ReadBytes consumes a length-prefixed byte slice from b. The returned
// slice aliases b (zero-copy); a zero length yields nil, matching what a
// gob round-trip produces for empty slices.
func ReadBytes(b []byte) (val []byte, rest []byte, err error) {
	n, rest, err := ReadUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) || n > MaxMessageSize {
		return nil, nil, fmt.Errorf("%w: length %d exceeds buffer", ErrCorrupt, n)
	}
	if n == 0 {
		return nil, rest, nil
	}
	return rest[:n:n], rest[n:], nil
}

// ReadBool consumes one bool byte from b. Any non-zero byte is true,
// but encoders only emit 0 and 1.
func ReadBool(b []byte) (v bool, rest []byte, err error) {
	if len(b) == 0 {
		return false, nil, fmt.Errorf("%w: missing bool", ErrCorrupt)
	}
	return b[0] != 0, b[1:], nil
}

// Done verifies a decode consumed its whole body: trailing bytes mean a
// corrupt or mis-versioned payload, never padding.
func Done(rest []byte) error {
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	return nil
}
