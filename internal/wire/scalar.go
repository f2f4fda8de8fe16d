package wire

import (
	"encoding/binary"
	"fmt"
)

// The value codec: the one encoding of user-defined values — data-space
// objects (agent.Space) and compensation parameters (core.Params). The
// runtime carries such a value as opaque bytes; only EncodeValue and
// DecodeValue look inside. The scalar kinds that dominate both (§4.4.1
// operation entries carry small named values such as account names and
// amounts) are written under a one-byte tag, every other type as gob.
//
// A gob stream begins with the message byte count encoded as gob's
// unsigned varint: a single byte below 0x80, or a negated-length byte in
// 0xF8..0xFF followed by big-endian bytes. First bytes in 0x80..0xF7 can
// therefore never start a valid gob encoding, which makes them free for
// out-of-band tags. DecodeValue probes the tag and falls back to gob for
// untagged (non-scalar) values, so the two formats coexist in the same
// Params map or savepoint image.
const (
	// TagInt64 prefixes a signed varint (covers int and int64 params).
	TagInt64 = 0x81
	// TagString prefixes raw string bytes.
	TagString = 0x82
	// TagBytes prefixes a raw byte slice.
	TagBytes = 0x83
)

// Tagged reports whether data begins with an out-of-band scalar tag (i.e.
// cannot be a gob encoding).
func Tagged(data []byte) bool {
	return len(data) > 0 && data[0] >= 0x80 && data[0] < 0xF8
}

// LooksLikeGob reports whether data opens with a byte a gob stream can
// start with (0x01..0x7F, 0xF8..0xFF) — the test that tells a container
// written before the binary codec from other garbage.
func LooksLikeGob(data []byte) bool {
	return len(data) > 0 && data[0] != 0 && !Tagged(data)
}

// EncodeValue encodes one user-defined value: int, int64, string and
// []byte as tagged scalars, every other type as gob.
func EncodeValue(v any) ([]byte, error) {
	switch x := v.(type) {
	case int64:
		return EncodeInt64(x), nil
	case int:
		return EncodeInt64(int64(x)), nil
	case string:
		return EncodeString(x), nil
	case []byte:
		return EncodeBytes(x), nil
	}
	return Encode(v)
}

// DecodeValue decodes a value produced by EncodeValue into out (a non-nil
// pointer). A tagged scalar decodes only into its own kind (int and int64
// interchangeably); anything else is an error, never a misdecode.
func DecodeValue(data []byte, out any) error {
	if !Tagged(data) {
		return Decode(data, out)
	}
	switch o := out.(type) {
	case *int64:
		if v, ok := DecodeInt64(data); ok {
			*o = v
			return nil
		}
	case *int:
		if v, ok := DecodeInt64(data); ok {
			*o = int(v)
			return nil
		}
	case *string:
		if v, ok := DecodeString(data); ok {
			*o = v
			return nil
		}
	case *[]byte:
		if v, ok := DecodeBytes(data); ok {
			*o = v
			return nil
		}
	}
	return fmt.Errorf("wire: cannot decode tagged scalar 0x%02x into %T", data[0], out)
}

// EncodeInt64 encodes v as a tagged signed varint.
func EncodeInt64(v int64) []byte {
	buf := make([]byte, 1+binary.MaxVarintLen64)
	buf[0] = TagInt64
	n := binary.PutVarint(buf[1:], v)
	return buf[:1+n]
}

// DecodeInt64 decodes a value produced by EncodeInt64. ok is false when
// data is not a tagged int64 (the caller should fall back to gob).
func DecodeInt64(data []byte) (v int64, ok bool) {
	if len(data) < 2 || data[0] != TagInt64 {
		return 0, false
	}
	v, n := binary.Varint(data[1:])
	if n <= 0 || 1+n != len(data) {
		return 0, false
	}
	return v, true
}

// EncodeString encodes s as tagged raw bytes.
func EncodeString(s string) []byte {
	buf := make([]byte, 1+len(s))
	buf[0] = TagString
	copy(buf[1:], s)
	return buf
}

// DecodeString decodes a value produced by EncodeString.
func DecodeString(data []byte) (s string, ok bool) {
	if len(data) < 1 || data[0] != TagString {
		return "", false
	}
	return string(data[1:]), true
}

// EncodeBytes encodes b (copied) as tagged raw bytes.
func EncodeBytes(b []byte) []byte {
	buf := make([]byte, 1+len(b))
	buf[0] = TagBytes
	copy(buf[1:], b)
	return buf
}

// DecodeBytes decodes a value produced by EncodeBytes. The returned slice
// is a copy owned by the caller.
func DecodeBytes(data []byte) (b []byte, ok bool) {
	if len(data) < 1 || data[0] != TagBytes {
		return nil, false
	}
	out := make([]byte, len(data)-1)
	copy(out, data[1:])
	return out, true
}
