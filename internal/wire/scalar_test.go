package wire

import (
	"bytes"
	"testing"
)

type streamMsg struct {
	Seq     int64
	Kind    string
	Payload []byte
}

func TestScalarRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, 64, -65, 1 << 40, -(1 << 40)} {
		got, ok := DecodeInt64(EncodeInt64(v))
		if !ok || got != v {
			t.Errorf("int64 %d -> %d, %v", v, got, ok)
		}
	}
	for _, s := range []string{"", "x", "hello world"} {
		got, ok := DecodeString(EncodeString(s))
		if !ok || got != s {
			t.Errorf("string %q -> %q, %v", s, got, ok)
		}
	}
	b := []byte{1, 2, 3}
	got, ok := DecodeBytes(EncodeBytes(b))
	if !ok || !bytes.Equal(got, b) {
		t.Errorf("bytes %v -> %v, %v", b, got, ok)
	}
	// The decoded slice must not alias the encoding.
	enc := EncodeBytes(b)
	dec, _ := DecodeBytes(enc)
	dec[0] = 99
	if enc[1] == 99 {
		t.Error("DecodeBytes aliases its input")
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
	if _, ok := DecodeInt64(EncodeString("x")); ok {
		t.Error("string decoded as int64")
	}
	if _, ok := DecodeString(EncodeInt64(1)); ok {
		t.Error("int64 decoded as string")
	}
	if _, ok := DecodeInt64(nil); ok {
		t.Error("nil decoded as int64")
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
