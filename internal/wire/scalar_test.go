package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

type streamMsg struct {
	Seq     int64
	Kind    string
	Payload []byte
}

func TestScalarRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, 64, -65, 1 << 40, -(1 << 40)} {
		var got int64
		if err := DecodeValue(EncodeInt64(v), &got); err != nil || got != v {
			t.Errorf("int64 %d -> %d, %v", v, got, err)
		}
	}
	for _, s := range []string{"", "x", "hello world"} {
		var got string
		if err := DecodeValue(EncodeString(s), &got); err != nil || got != s {
			t.Errorf("string %q -> %q, %v", s, got, err)
		}
	}
	b := []byte{1, 2, 3}
	var got []byte
	if err := DecodeValue(EncodeBytes(b), &got); err != nil || !bytes.Equal(got, b) {
		t.Errorf("bytes %v -> %v, %v", b, got, err)
	}
	// The decoded slice must not alias the encoding.
	enc := EncodeBytes(b)
	var dec []byte
	if err := DecodeValue(enc, &dec); err != nil {
		t.Fatal(err)
	}
	dec[0] = 99
	if enc[1] == 99 {
		t.Error("DecodeValue aliases its input")
	}
}

// TestScalarTagsDisjointFromGob pins the invariant the fast path rests on:
// no gob encoding starts with a byte in the tag range, so tagged values
// and gob values can share a map without ambiguity.
func TestScalarTagsDisjointFromGob(t *testing.T) {
	samples := []any{int64(7), "str", []byte{1}, streamMsg{Seq: 1}, map[string]string{"k": "v"}}
	for _, v := range samples {
		data, err := Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		if Tagged(data) {
			t.Errorf("gob encoding of %T starts with tag byte 0x%02x", v, data[0])
		}
	}
	for _, data := range [][]byte{EncodeInt64(5), EncodeString("s"), EncodeBytes([]byte{1})} {
		if !Tagged(data) {
			t.Errorf("scalar encoding %v not recognized as tagged", data)
		}
	}
}

func TestScalarDecodeMismatch(t *testing.T) {
	var n int64
	if err := DecodeValue(EncodeString("x"), &n); err == nil {
		t.Error("string decoded as int64")
	}
	var s string
	if err := DecodeValue(EncodeInt64(1), &s); err == nil {
		t.Error("int64 decoded as string")
	}
	if err := DecodeValue(nil, &n); err == nil {
		t.Error("nil decoded as int64")
	}
	if err := DecodeValue([]byte{TagInt64, 0x80, 0x00}, &n); !errors.Is(err, ErrCorrupt) {
		t.Errorf("padded varint decoded as int64: %v, want ErrCorrupt", err)
	}
}

// TestEncodeAllocsFlat guards the pooled encode path: encoding a large
// value must not scale allocations with payload size (the scratch buffer
// is pooled; only the exact-size result is allocated).
func TestEncodeAllocsFlat(t *testing.T) {
	big := streamMsg{Kind: "k", Payload: make([]byte, 256<<10)}
	// Warm the pool.
	if _, err := Encode(&big); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Encode(&big); err != nil {
			t.Fatal(err)
		}
	})
	// A fresh bytes.Buffer would pay ~18 growth re-allocations for a
	// 256 KiB value on top of the encoder internals; the pooled path
	// allocates the encoder, a few gob internals, and the result slice
	// (~17 total). The bound has headroom for the race detector.
	if allocs > 24 {
		t.Errorf("Encode allocs/op = %.1f, want <= 24", allocs)
	}
}

// TestValueCodecLists: bool and []int are tagged, a list keeps nil and
// empty apart, and neither decodes into another kind; float64, []int64
// and []string stay gob.
func TestValueCodecLists(t *testing.T) {
	for _, c := range []struct {
		in, out any // out: a pointer to the kind the value decodes into
	}{
		{true, new(bool)}, {false, new(bool)},
		{[]int{3, -1, 1 << 40}, new([]int)}, {[]int{}, new([]int)}, {[]int(nil), new([]int)},
	} {
		data, err := EncodeValue(c.in)
		if err != nil || !Tagged(data) {
			t.Fatalf("%T %v encoded as %x, %v", c.in, c.in, data, err)
		}
		if err := DecodeValue(data, c.out); err != nil {
			t.Fatalf("%T %v -> %T: %v", c.in, c.in, c.out, err)
		}
		got := reflect.ValueOf(c.out).Elem().Interface()
		if again, err := EncodeValue(got); err != nil || !bytes.Equal(again, data) {
			t.Errorf("%T %v decoded as %T %v", c.in, c.in, got, got)
		}
	}
	if bytes.Equal(mustEncode(t, []int(nil)), mustEncode(t, []int{})) {
		t.Error("nil and empty lists encode alike")
	}
	for _, v := range []any{1.5, []int64{1}, []string{"a"}} {
		if Tagged(mustEncode(t, v)) {
			t.Errorf("%T is tagged", v)
		}
	}
	var b bool
	for _, v := range []any{1, "x", []int{1}} {
		if err := DecodeValue(mustEncode(t, v), &b); err == nil {
			t.Errorf("%T decoded into bool", v)
		}
	}
}

type (
	sizes []int
	flag  bool
	count int32
	name  string
	blob  []byte
	wides []int64
)

// TestValueCodecLikeGob: a tagged value decodes into whatever gob decoded
// it into before it was tagged — a named type of its kind, an integer of
// another signed width that holds it — and a width too narrow is an error.
func TestValueCodecLikeGob(t *testing.T) {
	for _, c := range []struct {
		in, out, want any
	}{
		{[]int{1, -2}, new(sizes), sizes{1, -2}},
		{[]int{1 << 40}, new(wides), wides{1 << 40}},
		{[]int(nil), new(sizes), sizes(nil)},
		{true, new(flag), flag(true)},
		{7, new(count), count(7)},
		{"a", new(name), name("a")},
		{[]byte{1}, new(blob), blob{1}},
	} {
		if err := DecodeValue(mustEncode(t, c.in), c.out); err != nil {
			t.Errorf("%T -> %T: %v", c.in, c.out, err)
		} else if got := reflect.ValueOf(c.out).Elem().Interface(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%T -> %#v, want %#v", c.in, got, c.want)
		}
	}
	var f32 float32
	if err := DecodeValue(mustEncode(t, 0.5), &f32); err != nil || f32 != 0.5 {
		t.Errorf("float64 -> float32: %v, %v", f32, err)
	}
	var c count
	if err := DecodeValue(mustEncode(t, 1<<40), &c); err == nil {
		t.Error("1<<40 decoded into an int32")
	}
	var s []int8
	if err := DecodeValue(mustEncode(t, []int{1, 300}), &s); err == nil {
		t.Error("300 decoded into an int8")
	}
	var u uint
	if err := DecodeValue(mustEncode(t, 1), &u); err == nil {
		t.Error("a signed integer decoded into a uint")
	}
}

// point has a binary form of its own: two signed varints.
type point struct{ X, Y int64 }

func (p point) MarshalBinary() ([]byte, error) {
	return AppendVarint(AppendVarint(nil, p.X), p.Y), nil
}

func (p *point) UnmarshalBinary(data []byte) error {
	r := NewReader(data)
	x, y := r.Varint(), r.Varint()
	if err := r.Done(); err != nil {
		return err
	}
	*p = point{x, y}
	return nil
}

// TestValueCodecBinary: a type with a binary form goes under TagBinary
// and decodes through its UnmarshalBinary, into nothing else; no other
// tag decodes into it, and its own refusal is the decode's.
func TestValueCodecBinary(t *testing.T) {
	data := mustEncode(t, point{3, -4})
	if !bytes.Equal(data, []byte{TagBinary, 6, 7}) {
		t.Fatalf("point encoded as % x", data)
	}
	var p point
	if err := DecodeValue(data, &p); err != nil || p != (point{3, -4}) {
		t.Errorf("point decoded as %v, %v", p, err)
	}
	var n int
	if err := DecodeValue(data, &n); err == nil {
		t.Error("a binary value decoded into an int")
	}
	if err := DecodeValue(mustEncode(t, 1), &p); err == nil {
		t.Error("an int decoded into a point")
	}
	if err := DecodeValue(append(data, 0), &p); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing byte: %v, want ErrCorrupt", err)
	}
}

// TestDecodeValueAllocs guards the data-space read path: a tagged integer
// decodes without allocating, a string with the string only.
func TestDecodeValueAllocs(t *testing.T) {
	i, s := mustEncode(t, 1<<20), mustEncode(t, "alice")
	var n int
	var str string
	for _, c := range []struct {
		name string
		max  float64
		f    func() error
	}{
		{"int", 0, func() error { return DecodeValue(i, &n) }},
		{"string", 1, func() error { return DecodeValue(s, &str) }},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if err := c.f(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.max {
			t.Errorf("%s: %.1f allocs per decode, want <= %.0f", c.name, allocs, c.max)
		}
	}
}

func mustEncode(t *testing.T, v any) []byte {
	t.Helper()
	data, err := EncodeValue(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// valueKinds holds pointers the value codec decodes into, keyed by the tag
// that decodes into each.
func valueKinds() []struct {
	tag byte
	out func() any
} {
	return []struct {
		tag byte
		out func() any
	}{
		{TagInt64, func() any { return new(int64) }},
		{TagInt64, func() any { return new(int) }},
		{TagInt64, func() any { return new(count) }},
		{TagString, func() any { return new(string) }},
		{TagString, func() any { return new(name) }},
		{TagBytes, func() any { return new([]byte) }},
		{TagBool, func() any { return new(bool) }},
		{TagBool, func() any { return new(flag) }},
		{TagInts, func() any { return new([]int) }},
		{TagInts, func() any { return new(sizes) }},
		{TagInts, func() any { return new([]int8) }},
		{TagBinary, func() any { return new(point) }},
	}
}

// canonical returns the value EncodeValue writes under tag for v, a value
// DecodeValue filled from that tag.
func canonical(tag byte, v reflect.Value) any {
	switch tag {
	case TagInt64:
		return v.Int()
	case TagString:
		return v.String()
	case TagBytes:
		return v.Bytes()
	case TagBool:
		return v.Bool()
	case TagBinary:
		return v.Interface()
	}
	if v.IsNil() {
		return []int(nil)
	}
	list := make([]int, v.Len())
	for i := range list {
		list[i] = int(v.Index(i).Int())
	}
	return list
}

// FuzzValueCodec fuzzes the decoder of the values a data space or a
// compensation's parameters hold: DecodeValue never panics, a tagged value
// decodes into no kind but its own, and what it decodes re-encodes to
// exactly the input bytes — a TagBinary value through a test type with a
// binary form. Untagged input is gob's, which this codec only hands on.
func FuzzValueCodec(f *testing.F) {
	for _, v := range []any{int64(-3), 1 << 40, "", "name", []byte{0, 1}, true, false,
		[]int{1, -1}, []int{300}, []int(nil), []int{}} {
		data, err := EncodeValue(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{TagInt64, 0x80, 0x00})      // padded varint
	f.Add([]byte{TagBool, 2})                // bool byte 2
	f.Add([]byte{TagInts, 0xff, 0xff, 0x7f}) // count past the input
	f.Add([]byte{0x85, 0})                   // a reserved tag
	f.Add([]byte{TagBinary, 6, 7})           // point{3, -4}
	f.Add([]byte{TagBinary, 6})              // a point cut short
	f.Fuzz(func(t *testing.T, data []byte) {
		if !Tagged(data) {
			return
		}
		for _, k := range valueKinds() {
			out := k.out()
			err := DecodeValue(data, out)
			if k.tag != data[0] {
				if err == nil {
					t.Fatalf("value tagged 0x%02x decoded into %T", data[0], out)
				}
				continue
			}
			if err != nil {
				continue
			}
			again, err := EncodeValue(canonical(k.tag, reflect.ValueOf(out).Elem()))
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("%x decoded into %T re-encodes as %x, %v", data, out, again, err)
			}
		}
	})
}
