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

// TestGobDefines: a gob stream's type definitions are searched, its
// value's strings are not, and anything else defines nothing.
func TestGobDefines(t *testing.T) {
	type Label string
	type labelled struct{ Tag Label }
	data, err := Encode(payload{Name: "Label", Tags: []string{"Tag"}})
	if err != nil {
		t.Fatal(err)
	}
	if !GobDefines(data, "Meta") || GobDefines(data, "Label") || GobDefines(data, "Tag") {
		t.Errorf("payload: Meta=%v Label=%v Tag=%v, want only its field Meta", GobDefines(data, "Meta"), GobDefines(data, "Label"), GobDefines(data, "Tag"))
	}
	if data := MustEncode(labelled{Tag: "x"}); !GobDefines(data, "Tag") {
		t.Error("a struct's field name is not found")
	}
	for _, data := range [][]byte{nil, {0x90, 0x30}, {0x05, 0xff}, {0xff}, {0x7f, 0x01}} {
		if GobDefines(data, "Tag") {
			t.Errorf("% x defines Tag", data)
		}
	}
}
