package wire

import "testing"

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
