package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/itinerary"
	"repro/internal/wire"
)

// TestEntryCodecTable: every entry kind, in each of its shapes, survives
// the binary codec unchanged, re-encodes to the same bytes, and costs
// EncodedSize exactly its own encoding outside a container. Inside one
// (a container itinerary given) the same holds, and a savepoint whose
// itinerary is the container's costs that itinerary less one byte.
func TestEntryCodecTable(t *testing.T) {
	image := map[string][]byte{"b": []byte("2"), "a": []byte("1")}
	itin := []byte{1, 1, 4, 't', 'r', 'i', 'p', 0, 0}
	sys := &SysState{Cursor: itinerary.Cursor{Path: []int{0, 2}}, StepSeq: 2, Itin: itin}
	cases := map[string]Entry{
		"SP image":       &SavepointEntry{ID: "sp", Mode: StateLogging, Image: image, Auto: true},
		"SP empty image": &SavepointEntry{ID: "sp", Mode: StateLogging, Image: map[string][]byte{}},
		"SP sys":         &SavepointEntry{ID: "sp", Mode: StateLogging, Sys: sys, Image: image, Auto: true},
		"SP sys other itinerary": &SavepointEntry{ID: "sp", Mode: StateLogging, Image: image,
			Sys: &SysState{Cursor: itinerary.Cursor{Done: true}, StepSeq: -1, Itin: []byte{1, 0}}},
		"SP sys no itinerary": &SavepointEntry{ID: "sp", Mode: StateLogging, Sys: &SysState{}},
		"SP delta": &SavepointEntry{ID: "sp2", Mode: TransitionLogging, Sys: sys,
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
			for _, in := range []struct {
				where string
				itin  []byte
			}{{"standalone", nil}, {"in container", itin}} {
				t.Run(in.where, func(t *testing.T) {
					l := &Log{Entries: []Entry{e}}
					if sp, ok := e.(*SavepointEntry); ok && sp.Special {
						// A special savepoint follows the one it refers to.
						l.Entries = []Entry{&SavepointEntry{ID: sp.RefID}, e}
					} else if ok && sp.Delta != nil {
						// A delta follows its base image.
						l.Entries = []Entry{&SavepointEntry{ID: "base"}, e}
					}
					data, at, err := l.AppendTo(nil, in.itin)
					if err != nil {
						t.Fatal(err)
					}
					r := wire.NewReader(data)
					got := ReadLog(r, in.itin)
					if err := r.Done(); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, l) {
						t.Errorf("round trip:\n got %+v\nwant %+v", got.Entries[0], e)
					}
					if again, _, err := got.AppendTo(nil, in.itin); err != nil || !bytes.Equal(again, data) {
						t.Errorf("re-encoding changed the bytes (%v)", err)
					}
					// present byte + count byte precede the one entry.
					sz, err := l.EncodedSize()
					if err != nil || len(data)-2 != len(data)-at {
						t.Fatalf("EncodedSize: %v; the entry encodes to %d bytes, AppendTo places it at %d", err, len(data)-2, at)
					}
					want := sz
					if sp, ok := e.(*SavepointEntry); ok && in.itin != nil && sp.Sys != nil && bytes.Equal(sp.Sys.Itin, itin) {
						want -= len(itin)
					}
					if len(data)-at != want {
						t.Errorf("the entry encodes to %d bytes, want %d (EncodedSize %d)", len(data)-at, want, sz)
					}
					for cut := 0; cut < len(data); cut++ {
						r := wire.NewReader(data[:cut])
						ReadLog(r, in.itin)
						if err := r.Done(); !errors.Is(err, wire.ErrCorrupt) {
							t.Fatalf("log cut at %d of %d: %v, want ErrCorrupt", cut, len(data), err)
						}
					}
				})
			}
		})
	}
}

// TestSavepointItineraryCanonical: a savepoint's itinerary has one
// encoding. A reference is refused outside a container, and inline bytes
// equal to the container's itinerary are refused inside one, so whatever
// decodes re-encodes to its own bytes.
func TestSavepointItineraryCanonical(t *testing.T) {
	itin := []byte{1, 1, 4, 't', 'r', 'i', 'p', 0, 0}
	l := &Log{Entries: []Entry{&SavepointEntry{ID: "sp", Mode: StateLogging,
		Sys: &SysState{Cursor: itinerary.Cursor{Path: []int{0, 0}}, StepSeq: 1, Itin: itin}}}}
	ref, _, err := l.AppendTo(nil, itin)
	if err != nil {
		t.Fatal(err)
	}
	inline, _, err := l.AppendTo(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(inline)-len(ref) != len(itin) {
		t.Fatalf("reference form %d B, inline %d B; want the itinerary's %d B apart", len(ref), len(inline), len(itin))
	}
	r := wire.NewReader(ref)
	got := ReadLog(r, itin)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if sys := got.Entries[0].(*SavepointEntry).Sys; &sys.Itin[0] != &itin[0] {
		t.Error("a reference decodes to a copy, want the container's itinerary bytes")
	}
	for _, tc := range []struct {
		name string
		data []byte
		itin []byte
	}{
		{"reference outside a container", ref, nil},
		{"inline equal to the container's", inline, itin},
	} {
		r := wire.NewReader(tc.data)
		ReadLog(r, tc.itin)
		if err := r.Done(); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", tc.name, err)
		}
	}
	// The same inline bytes in a container carrying another itinerary are
	// the canonical form.
	r = wire.NewReader(inline)
	ReadLog(r, []byte{1, 0})
	if err := r.Done(); err != nil {
		t.Errorf("inline itinerary in a container carrying another: %v", err)
	}
}

// TestReadLogSavepointReferences: the decoder accepts only the savepoint
// sequences AppendSavepoint and AppendSpecialSavepoint can write. A
// duplicate ID, a RefID that does not name an earlier savepoint and a
// delta with no earlier base image are wire.ErrCorrupt, so no decoded
// log holds a RefID cycle or a delta restore cannot apply.
func TestReadLogSavepointReferences(t *testing.T) {
	sp := func(id string) Entry { return &SavepointEntry{ID: id, Mode: StateLogging} }
	special := func(id, ref string) Entry { return &SavepointEntry{ID: id, Special: true, RefID: ref} }
	delta := func(id string) Entry {
		return &SavepointEntry{ID: id, Mode: TransitionLogging, Delta: &SRODelta{Changed: map[string][]byte{"k": []byte("v")}}}
	}
	for _, tc := range []struct {
		name    string
		entries []Entry
		ok      bool
	}{
		{"special refers to an earlier savepoint", []Entry{sp("a"), &BeginStepEntry{Node: "n"}, special("b", "a")}, true},
		{"special refers to an earlier special", []Entry{sp("a"), special("b", "a"), special("c", "b")}, true},
		{"SP*(a->a)", []Entry{special("a", "a")}, false},
		{"SP*(a->a) after a savepoint", []Entry{sp("b"), special("a", "a")}, false},
		{"forward RefID", []Entry{special("b", "a"), sp("a")}, false},
		{"RefID names no savepoint", []Entry{sp("a"), special("b", "c")}, false},
		{"RefID names a step", []Entry{&BeginStepEntry{Node: "a"}, special("b", "a")}, false},
		{"duplicate ID", []Entry{sp("a"), sp("a")}, false},
		{"duplicate ID of a special", []Entry{sp("a"), special("b", "a"), special("b", "a")}, false},
		{"delta after a base image", []Entry{sp("a"), special("b", "a"), delta("c"), delta("d")}, true},
		{"delta with no earlier base image", []Entry{delta("a"), sp("b")}, false},
	} {
		data, _, err := (&Log{Entries: tc.entries}).AppendTo(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		r := wire.NewReader(data)
		ReadLog(r, nil)
		if err := r.Done(); tc.ok != (err == nil) || (err != nil && !errors.Is(err, wire.ErrCorrupt)) {
			t.Errorf("%s: %v, want accepted=%v (refusals ErrCorrupt)", tc.name, err, tc.ok)
		}
	}
}

// TestLogCodecNilEmptyAndBadInput: nil and empty logs stay distinct, equal
// logs give equal bytes whatever the map iteration order, and a nil entry
// or an unknown kind byte is an error, not a panic.
func TestLogCodecNilEmptyAndBadInput(t *testing.T) {
	for _, l := range []*Log{nil, {}} {
		data, _, err := l.AppendTo(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		r := wire.NewReader(data)
		got := ReadLog(r, nil)
		if err := r.Done(); err != nil || (got == nil) != (l == nil) || (got != nil && got.Len() != 0) {
			t.Errorf("log %v round-tripped to %v, %v", l, got, err)
		}
	}
	big := make(map[string][]byte)
	for _, k := range []string{"q", "w", "e", "r", "t", "y", "u", "i", "o", "p"} {
		big[k] = []byte(k)
	}
	l := &Log{Entries: []Entry{&SavepointEntry{ID: "sp", Mode: StateLogging, Image: big}}}
	first, _, err := l.AppendTo(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if again, _, _ := l.AppendTo(nil, nil); !bytes.Equal(again, first) {
			t.Fatal("equal logs encoded to different bytes")
		}
	}
	if _, _, err := (&Log{Entries: []Entry{nil}}).AppendTo(nil, nil); err == nil {
		t.Error("nil log entry encoded")
	}
	r := wire.NewReader([]byte{1, 1, 9, 0, 0})
	ReadLog(r, nil)
	if !errors.Is(r.Err(), wire.ErrCorrupt) {
		t.Errorf("unknown entry kind: %v, want ErrCorrupt", r.Err())
	}
}
