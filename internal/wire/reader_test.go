package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

func TestReaderRoundTrip(t *testing.T) {
	m := map[string][]byte{"b": {2}, "a": nil, "c": []byte("three")}
	var buf []byte
	buf = AppendUvarint(buf, 1<<40)
	buf = AppendVarint(buf, -3)
	buf = AppendVarint(buf, 1<<40)
	buf = AppendBool(buf, true)
	buf = AppendString(buf, "hello")
	buf = AppendBytes(buf, []byte{1, 2, 3})
	buf = AppendStrings(buf, []string{"x", "", "yz"})
	buf = AppendStrings(buf, nil)
	buf = AppendBytesMap(buf, m)
	buf = AppendBytesMap(buf, map[string][]byte{})
	buf = AppendBytesMap[map[string][]byte](buf, nil)

	r := NewReader(buf)
	if v := r.Uvarint(); v != 1<<40 {
		t.Errorf("uvarint = %d", v)
	}
	if v := r.Varint(); v != -3 {
		t.Errorf("varint = %d", v)
	}
	if v := r.Int(); v != 1<<40 {
		t.Errorf("int = %d", v)
	}
	if !r.Bool() {
		t.Error("bool = false")
	}
	if s := r.String(); s != "hello" {
		t.Errorf("string = %q", s)
	}
	b := r.Bytes()
	if !bytes.Equal(b, []byte{1, 2, 3}) || cap(b) != 3 {
		t.Errorf("bytes = %v cap %d, want an exact-capacity alias", b, cap(b))
	}
	if ss := r.Strings(); !reflect.DeepEqual(ss, []string{"x", "", "yz"}) {
		t.Errorf("strings = %q", ss)
	}
	if ss := r.Strings(); ss != nil {
		t.Errorf("empty strings = %q, want nil", ss)
	}
	if got := r.BytesMap(); !reflect.DeepEqual(got, m) {
		t.Errorf("map = %v, want %v", got, m)
	}
	if got := r.BytesMap(); got == nil || len(got) != 0 {
		t.Errorf("empty map = %v, want empty and non-nil", got)
	}
	if got := r.BytesMap(); got != nil {
		t.Errorf("nil map = %v", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	// Equal maps give equal bytes, sorted by key.
	want := []byte{4, 1, 'a', 0, 1, 'b', 1, 2, 1, 'c', 5, 't', 'h', 'r', 'e', 'e'}
	if got := AppendBytesMap(nil, m); !bytes.Equal(got, want) {
		t.Errorf("map encoding = %v, want %v", got, want)
	}
}

// TestReaderCanonicalOnly: what a Reader accepts has exactly one
// encoding, and every refusal is a sticky ErrCorrupt that turns the
// following reads into zero values.
func TestReaderCanonicalOnly(t *testing.T) {
	cases := map[string]func(r *Reader){
		"padded varint":        func(r *Reader) { r.Uvarint() },
		"bool byte 2":          func(r *Reader) { r.Bool() },
		"missing byte":         func(r *Reader) { r.Byte() },
		"length past end":      func(r *Reader) { r.Bytes() },
		"count past end":       func(r *Reader) { r.Count(1) },
		"count past min size":  func(r *Reader) { r.Count(4) },
		"map count past end":   func(r *Reader) { r.BytesMap() },
		"map keys unsorted":    func(r *Reader) { r.BytesMap() },
		"map key repeated":     func(r *Reader) { r.BytesMap() },
		"strings count padded": func(r *Reader) { r.Strings() },
	}
	inputs := map[string][]byte{
		"padded varint":        {0x80, 0x00},
		"bool byte 2":          {2},
		"missing byte":         {},
		"length past end":      {3, 'a', 'b'},
		"count past end":       {9, 0, 0},
		"count past min size":  {2, 0, 0, 0, 0, 0, 0, 0},
		"map count past end":   {0xff, 0xff, 0xff, 0xff, 0x0f, 1, 'a', 0},
		"map keys unsorted":    {3, 1, 'b', 0, 1, 'a', 0},
		"map key repeated":     {3, 1, 'a', 0, 1, 'a', 0},
		"strings count padded": {0x81, 0x00, 1, 'a'},
	}
	for name, read := range cases {
		r := NewReader(inputs[name])
		read(r)
		if !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, r.Err())
		}
		first := r.Err()
		if r.Uvarint() != 0 || r.String() != "" || r.Bool() || r.BytesMap() != nil || r.Count(1) != 0 {
			t.Errorf("%s: reads after the failure returned data", name)
		}
		if r.Done() != first {
			t.Errorf("%s: a later failure replaced the first", name)
		}
	}
	r := NewReader([]byte{1, 7})
	r.Byte()
	if err := r.Done(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing byte: %v, want ErrCorrupt", err)
	}
}

func TestValueCodec(t *testing.T) {
	type blob struct{ X, Y int }
	var (
		i   int
		i64 int64
		s   string
		b   []byte
		bl  blob
	)
	for _, c := range []struct {
		in     any
		out    any
		tagged bool
	}{
		{42, &i, true}, {int64(-7), &i64, true}, {9, &i64, true}, {int64(9), &i, true},
		{"hello", &s, true}, {[]byte{1, 2}, &b, true}, {blob{1, 2}, &bl, false},
	} {
		data, err := EncodeValue(c.in)
		if err != nil {
			t.Fatal(err)
		}
		if Tagged(data) != c.tagged {
			t.Errorf("%T encoded with lead byte 0x%02x", c.in, data[0])
		}
		if err := DecodeValue(data, c.out); err != nil {
			t.Errorf("%T -> %T: %v", c.in, c.out, err)
		}
	}
	if i != 9 || i64 != 9 || s != "hello" || !bytes.Equal(b, []byte{1, 2}) || bl != (blob{1, 2}) {
		t.Errorf("decoded %d %d %q %v %+v", i, i64, s, b, bl)
	}
	// A tagged scalar read into another kind errors instead of misdecoding.
	if err := DecodeValue(EncodeInt64(5), &s); err == nil {
		t.Error("int decoded into string")
	}
	if err := DecodeValue(EncodeString("x"), &bl); err == nil {
		t.Error("string decoded into struct")
	}
	if _, err := EncodeValue(func() {}); err == nil {
		t.Error("func value encoded")
	}
}
