package wire

import (
	"strings"
	"testing"
)

type payload struct {
	Name  string
	Count int64
	Tags  []string
	Meta  map[string]string
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := payload{
		Name:  "agent-1",
		Count: -42,
		Tags:  []string{"a", "b"},
		Meta:  map[string]string{"k": "v"},
	}
	data, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Decode(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.Count != in.Count || len(out.Tags) != 2 || out.Meta["k"] != "v" {
		t.Errorf("roundtrip = %+v", out)
	}
}

func TestEncodedSize(t *testing.T) {
	small, err := EncodedSize("x")
	if err != nil {
		t.Fatal(err)
	}
	big, err := EncodedSize(strings.Repeat("x", 10_000))
	if err != nil {
		t.Fatal(err)
	}
	if big <= small || big < 10_000 {
		t.Errorf("sizes: small=%d big=%d", small, big)
	}
}

// TestEncodedSizeChargesDescriptorOnce: several values sized in one call
// share one stream, so the second value of a type costs only its data.
func TestEncodedSizeChargesDescriptorOnce(t *testing.T) {
	m := payload{Name: "k", Tags: []string{strings.Repeat("x", 128)}}
	one, err := EncodedSize(&m)
	if err != nil {
		t.Fatal(err)
	}
	two, err := EncodedSize(&m, &m)
	if err != nil {
		t.Fatal(err)
	}
	second := two - one
	if second >= one {
		t.Errorf("second value cost %d, first %d: descriptor charged twice", second, one)
	}
	if second < 128 {
		t.Errorf("second value cost %d, smaller than its payload", second)
	}
	if none, err := EncodedSize(); err != nil || none != 0 {
		t.Errorf("EncodedSize() = %d, %v; want 0", none, err)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	var out payload
	if err := Decode([]byte("not gob"), &out); err == nil {
		t.Error("corrupt input decoded")
	}
}

func TestMustEncodePanicsOnUnencodable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustEncode did not panic on a channel")
		}
	}()
	MustEncode(make(chan int))
}
