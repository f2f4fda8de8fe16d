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

	r := NewReader(buf)
	if v := r.Uvarint(); v != 0 {
		t.Fatalf("uvarint 0: %d", v)
	}
	if v := r.Uvarint(); v != 1<<40 {
		t.Fatalf("uvarint 1<<40: %d", v)
	}
	if s := r.String(); s != "" {
		t.Fatalf("empty string: %q", s)
	}
	if s := r.String(); s != "hello" {
		t.Fatalf("string: %q", s)
	}
	if b := r.Bytes(); b != nil {
		t.Fatalf("empty bytes must decode to nil: %v", b)
	}
	if b := r.Bytes(); !bytes.Equal(b, []byte{1, 2, 3}) {
		t.Fatalf("bytes: %v", b)
	}
	if !r.Bool() {
		t.Fatal("bool true read as false")
	}
	if r.Bool() {
		t.Fatal("bool false read as true")
	}
	if err := r.Done(); err != nil {
		t.Fatalf("round trip: %v", err)
	}
}

func TestBinaryReadBytesAliases(t *testing.T) {
	buf := append(AppendBytes(nil, []byte("payload")), "tail"...)
	r := NewReader(buf)
	val := r.Bytes()
	if &val[0] != &buf[1] {
		t.Fatal("Bytes must alias the input buffer, not copy")
	}
	if cap(val) != len(val) {
		t.Fatal("aliased slice must be capacity-clamped so appends cannot scribble on the buffer")
	}
	if rest := r.Rest(); string(rest) != "tail" || &rest[0] != &buf[8] {
		t.Fatalf("Rest = %q, want the aliased remainder", rest)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Rest left bytes behind: %v", err)
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
		r := NewReader(in)
		r.Bytes()
		if !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, r.Err())
		}
		if rest := r.Rest(); rest != nil {
			t.Errorf("%s: Rest after a failure = %v, want nil", name, rest)
		}
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
