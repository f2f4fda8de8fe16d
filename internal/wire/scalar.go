package wire

import (
	"encoding"
	"encoding/binary"
	"fmt"
	"reflect"
)

// The value codec: the one encoding of user-defined values — data-space
// objects (agent.Space) and compensation parameters (core.Params). The
// runtime carries such a value as opaque bytes; only EncodeValue and
// DecodeValue look inside. The kinds that dominate both (§4.4.1
// operation entries carry small named values such as account names and
// amounts; steps keep flags, counters and lists of sizes) are written
// under a one-byte tag, as is any type with a binary form of its own
// (encoding.BinaryMarshaler: the agents' digital cash). Every other type
// goes as gob: a gob decoder compiles the value's type afresh for every
// standalone value.
//
// A gob stream begins with the message byte count encoded as gob's
// unsigned varint: a single byte below 0x80, or a negated-length byte in
// 0xF8..0xFF followed by big-endian bytes. First bytes in 0x80..0xF7 can
// therefore never start a valid gob encoding, which makes them free for
// out-of-band tags. DecodeValue probes the tag and falls back to gob for
// untagged values, so the two formats coexist in the same Params map or
// savepoint image.
const (
	// TagInt64 prefixes a signed varint (covers int and int64 params).
	TagInt64 = 0x81
	// TagString prefixes raw string bytes.
	TagString = 0x82
	// TagBytes prefixes a raw byte slice.
	TagBytes = 0x83
	// TagBool prefixes one byte, 0 or 1.
	TagBool = 0x84
	// TagInts prefixes a []int: a shifted count (0 nil, n+1 n elements)
	// of signed varints. 0x85 and 0x87 are kept for float64 and []string,
	// which go as gob until a workload stores them.
	TagInts = 0x86
	// TagBinary prefixes the MarshalBinary bytes of a type that has them;
	// it decodes only into an encoding.BinaryUnmarshaler.
	TagBinary = 0x88
)

// Tagged reports whether data begins with an out-of-band scalar tag (i.e.
// cannot be a gob encoding).
func Tagged(data []byte) bool {
	return len(data) > 0 && data[0] >= 0x80 && data[0] < 0xF8
}

// EncodeValue encodes one user-defined value: int, int64, string, []byte,
// bool and []int under their tags, an encoding.BinaryMarshaler under
// TagBinary, every other type as gob.
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
	case bool:
		return AppendBool([]byte{TagBool}, x), nil
	case []int:
		if x == nil {
			return []byte{TagInts, 0}, nil
		}
		buf := AppendUvarint(make([]byte, 1, 2+2*len(x)), uint64(len(x))+1)
		buf[0] = TagInts
		for _, i := range x {
			buf = AppendVarint(buf, int64(i))
		}
		return buf, nil
	case encoding.BinaryMarshaler:
		body, err := x.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("wire: encode %T: %w", v, err)
		}
		return append([]byte{TagBinary}, body...), nil
	}
	return Encode(v)
}

// DecodeValue decodes a value produced by EncodeValue into out (a non-nil
// pointer). A tagged value decodes into what gob would decode it into: a
// type of its own kind, named or not, with integers of any signed width
// that holds them. It is read only from its one canonical encoding;
// anything else is an error, never a misdecode. A TagBinary value decodes
// only through out's UnmarshalBinary, which owns its canonical form.
func DecodeValue(data []byte, out any) error {
	if !Tagged(data) {
		return Decode(data, out)
	}
	v := reflect.ValueOf(out)
	if v.Kind() != reflect.Pointer || v.IsNil() {
		return fmt.Errorf("wire: decode into %T: not a non-nil pointer", out)
	}
	if data[0] == TagBinary {
		u, ok := out.(encoding.BinaryUnmarshaler)
		if !ok {
			return fmt.Errorf("wire: cannot decode tagged value 0x%02x into %T", TagBinary, out)
		}
		if err := u.UnmarshalBinary(data[1:]); err != nil {
			return fmt.Errorf("wire: decode %T: %w", out, err)
		}
		return nil
	}
	v = v.Elem()
	tag, r := data[0], Reader{b: data[1:]}
	switch k := v.Kind(); {
	case tag == TagInt64 && signed(k):
		x := r.Varint()
		if v.OverflowInt(x) {
			r.Fail("integer %d overflows %s", x, v.Type())
		}
		if r.Done() == nil {
			v.SetInt(x)
		}
	case tag == TagString && k == reflect.String:
		v.SetString(string(r.Rest()))
	case tag == TagBytes && k == reflect.Slice && v.Type().Elem().Kind() == reflect.Uint8:
		v.SetBytes(append([]byte{}, r.Rest()...))
	case tag == TagBool && k == reflect.Bool:
		if x := r.Bool(); r.Done() == nil {
			v.SetBool(x)
		}
	case tag == TagInts && k == reflect.Slice && signed(v.Type().Elem().Kind()):
		if list := readInts(&r, v.Type()); r.Done() == nil {
			v.Set(list)
		}
	default:
		return fmt.Errorf("wire: cannot decode tagged value 0x%02x into %T", tag, out)
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("wire: decode %T: %w", out, err)
	}
	return nil
}

func signed(k reflect.Kind) bool { return k >= reflect.Int && k <= reflect.Int64 }

// readInts reads the body of a TagInts value into a slice of type t: nil
// for a zero count.
func readInts(r *Reader, t reflect.Type) reflect.Value {
	shifted := r.Uvarint()
	if shifted == 0 {
		return reflect.Zero(t)
	}
	// Each element costs at least one byte.
	if shifted-1 > uint64(len(r.b)) {
		r.Fail("list of %d elements exceeds buffer", shifted-1)
		return reflect.Value{}
	}
	n := int(shifted - 1)
	list := reflect.MakeSlice(t, n, n)
	for i := 0; i < n && r.err == nil; i++ {
		x, e := r.Varint(), list.Index(i)
		if e.OverflowInt(x) {
			r.Fail("integer %d overflows %s", x, e.Type())
		}
		e.SetInt(x)
	}
	return list
}

// EncodeInt64 encodes v as a tagged signed varint.
func EncodeInt64(v int64) []byte {
	buf := make([]byte, 1+binary.MaxVarintLen64)
	buf[0] = TagInt64
	n := binary.PutVarint(buf[1:], v)
	return buf[:1+n]
}

// DecodeInt64 decodes a value produced by EncodeInt64. ok is false when
// data is not a tagged int64 in its one canonical encoding.
func DecodeInt64(data []byte) (v int64, ok bool) {
	if len(data) < 2 || data[0] != TagInt64 {
		return 0, false
	}
	r := Reader{b: data[1:]}
	v = r.Varint()
	return v, r.Done() == nil
}

// EncodeString encodes s as tagged raw bytes.
func EncodeString(s string) []byte {
	buf := make([]byte, 1+len(s))
	buf[0] = TagString
	copy(buf[1:], s)
	return buf
}

// EncodeBytes encodes b (copied) as tagged raw bytes.
func EncodeBytes(b []byte) []byte {
	buf := make([]byte, 1+len(b))
	buf[0] = TagBytes
	copy(buf[1:], b)
	return buf
}
