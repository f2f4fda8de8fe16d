package wire

import (
	"bytes"
	"errors"
	"testing"
)

func TestBinaryAppendReadRoundTrip(t *testing.T) {
	var buf []byte
	buf = AppendUvarint(buf, 0)
	buf = AppendUvarint(buf, 1<<40)
	buf = AppendString(buf, "")
	buf = AppendString(buf, "hello")
	buf = AppendBytes(buf, nil)
	buf = AppendBytes(buf, []byte{1, 2, 3})
	buf = AppendBool(buf, true)
	buf = AppendBool(buf, false)

	v, rest, err := ReadUvarint(buf)
	if err != nil || v != 0 {
		t.Fatalf("uvarint 0: %d %v", v, err)
	}
	if v, rest, err = ReadUvarint(rest); err != nil || v != 1<<40 {
		t.Fatalf("uvarint 1<<40: %d %v", v, err)
	}
	s, rest, err := ReadString(rest)
	if err != nil || s != "" {
		t.Fatalf("empty string: %q %v", s, err)
	}
	if s, rest, err = ReadString(rest); err != nil || s != "hello" {
		t.Fatalf("string: %q %v", s, err)
	}
	b, rest, err := ReadBytes(rest)
	if err != nil || b != nil {
		t.Fatalf("empty bytes must decode to nil: %v %v", b, err)
	}
	if b, rest, err = ReadBytes(rest); err != nil || !bytes.Equal(b, []byte{1, 2, 3}) {
		t.Fatalf("bytes: %v %v", b, err)
	}
	bl, rest, err := ReadBool(rest)
	if err != nil || !bl {
		t.Fatalf("bool true: %v %v", bl, err)
	}
	if bl, rest, err = ReadBool(rest); err != nil || bl {
		t.Fatalf("bool false: %v %v", bl, err)
	}
	if err := Done(rest); err != nil {
		t.Fatalf("trailing bytes: %v", err)
	}
}

func TestBinaryReadBytesAliases(t *testing.T) {
	buf := AppendBytes(nil, []byte("payload"))
	val, _, err := ReadBytes(buf)
	if err != nil {
		t.Fatal(err)
	}
	if &val[0] != &buf[1] {
		t.Fatal("ReadBytes must alias the input buffer, not copy")
	}
	if cap(val) != len(val) {
		t.Fatal("aliased slice must be capacity-clamped so appends cannot scribble on the buffer")
	}
}

func TestBinaryCorruptInputs(t *testing.T) {
	cases := map[string][]byte{
		"empty uvarint":   {},
		"unterminated":    {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80},
		"length too long": {0x05, 'a', 'b'},
		"huge length":     AppendUvarint(nil, MaxMessageSize+1),
	}
	for name, in := range cases {
		if _, _, err := ReadBytes(in); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
	if _, _, err := ReadBool(nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bool from empty: want ErrCorrupt")
	}
	if err := Done([]byte{1}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing byte: want ErrCorrupt")
	}
	if _, _, err := SplitBinary([]byte{BinaryVersion}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("payload without type byte: want ErrCorrupt")
	}
	if _, _, err := SplitBinary([]byte{0x01, 0x02}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("gob first byte: want ErrCorrupt")
	}
}

// TestBinaryLeadInBytesOutsideGobRange pins the invariant the whole
// versioning story rests on: no gob stream can start with the binary
// lead-in bytes (gob's first byte is a length uvarint in 0x01..0x7f or a
// negated byte count in 0xf8..0xff; see scalar.go).
func TestBinaryLeadInBytesOutsideGobRange(t *testing.T) {
	for _, b := range []byte{BinaryVersion, FrameMagic} {
		if b < 0x80 || b > 0xf7 {
			t.Errorf("lead-in byte 0x%02x collides with gob's first-byte range", b)
		}
	}
	enc, err := Encode(&struct{ A string }{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := SplitBinary(enc); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("gob encoding accepted as binary payload: %v", err)
	}
}
