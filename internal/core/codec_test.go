package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/wire"
)

// TestEntryCodecTable: every entry kind, in each of its shapes, survives
// the binary codec unchanged, re-encodes to the same bytes, and costs
// EncodedSize exactly its own encoding.
func TestEntryCodecTable(t *testing.T) {
	image := map[string][]byte{"b": []byte("2"), "a": []byte("1"), "__sys/cursor": {0, 1, 0}}
	cases := map[string]Entry{
		"SP image":       &SavepointEntry{ID: "sp", Mode: StateLogging, Image: image, Auto: true},
		"SP empty image": &SavepointEntry{ID: "sp", Mode: StateLogging, Image: map[string][]byte{}},
		"SP delta": &SavepointEntry{ID: "sp2", Mode: TransitionLogging,
			Delta: &SRODelta{Changed: map[string][]byte{"a": []byte("9")}, Deleted: []string{"b", "c"}}},
		"SP empty delta": &SavepointEntry{ID: "sp3", Mode: TransitionLogging, Delta: &SRODelta{}},
		"SP special":     &SavepointEntry{ID: "inner", Special: true, RefID: "sp", Auto: true},
		"BOS":            &BeginStepEntry{Node: "n1", Seq: 300},
		"BOS zero":       &BeginStepEntry{},
		"OE resource":    &OpEntry{Kind: OpResource, Op: "bank.refund", Params: NewParams().Set("amt", int64(-7)).Set("acct", "alice")},
		"OE agent nil":   &OpEntry{Kind: OpAgent, Op: "wallet.restore"},
		"OE mixed empty": &OpEntry{Kind: OpMixed, Op: "shop.return", Params: Params{}},
		"EOS":            &EndStepEntry{Node: "n1", Seq: 3, HasMixed: true, AltNodes: []string{"n2", "n3"}},
		"EOS plain":      &EndStepEntry{Node: "n1", Seq: -1},
	}
	for name, e := range cases {
		t.Run(name, func(t *testing.T) {
			l := &Log{Entries: []Entry{e}}
			data, at, err := l.AppendTo(nil)
			if err != nil {
				t.Fatal(err)
			}
			r := wire.NewReader(data)
			got := ReadLog(r)
			if err := r.Done(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, l) {
				t.Errorf("round trip:\n got %+v\nwant %+v", got.Entries[0], e)
			}
			if again, _, err := got.AppendTo(nil); err != nil || !bytes.Equal(again, data) {
				t.Errorf("re-encoding changed the bytes (%v)", err)
			}
			// present byte + count byte precede the one entry.
			if sz, err := l.EncodedSize(); err != nil || sz != len(data)-2 || sz != len(data)-at {
				t.Errorf("EncodedSize = %d, %v; the entry encodes to %d bytes, AppendTo places it at %d", sz, err, len(data)-2, at)
			}
			for cut := 0; cut < len(data); cut++ {
				r := wire.NewReader(data[:cut])
				ReadLog(r)
				if err := r.Done(); !errors.Is(err, wire.ErrCorrupt) {
					t.Fatalf("log cut at %d of %d: %v, want ErrCorrupt", cut, len(data), err)
				}
			}
		})
	}
}

// TestLogCodecNilEmptyAndBadInput: nil and empty logs stay distinct, equal
// logs give equal bytes whatever the map iteration order, and a nil entry
// or an unknown kind byte is an error, not a panic.
func TestLogCodecNilEmptyAndBadInput(t *testing.T) {
	for _, l := range []*Log{nil, {}} {
		data, _, err := l.AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		r := wire.NewReader(data)
		got := ReadLog(r)
		if err := r.Done(); err != nil || (got == nil) != (l == nil) || (got != nil && got.Len() != 0) {
			t.Errorf("log %v round-tripped to %v, %v", l, got, err)
		}
	}
	big := make(map[string][]byte)
	for _, k := range []string{"q", "w", "e", "r", "t", "y", "u", "i", "o", "p"} {
		big[k] = []byte(k)
	}
	l := &Log{Entries: []Entry{&SavepointEntry{ID: "sp", Mode: StateLogging, Image: big}}}
	first, _, err := l.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if again, _, _ := l.AppendTo(nil); !bytes.Equal(again, first) {
			t.Fatal("equal logs encoded to different bytes")
		}
	}
	if _, _, err := (&Log{Entries: []Entry{nil}}).AppendTo(nil); err == nil {
		t.Error("nil log entry encoded")
	}
	r := wire.NewReader([]byte{1, 1, 9, 0, 0})
	ReadLog(r)
	if !errors.Is(r.Err(), wire.ErrCorrupt) {
		t.Errorf("unknown entry kind: %v, want ErrCorrupt", r.Err())
	}
}
