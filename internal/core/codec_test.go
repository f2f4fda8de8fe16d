package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

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
					l := &Log{tail: []Entry{e}}
					if sp, ok := e.(*SavepointEntry); ok && sp.Special {
						// A special savepoint follows the one it refers to.
						l.tail = []Entry{&SavepointEntry{ID: sp.RefID}, e}
					} else if ok && sp.Delta != nil {
						// A delta follows its base image.
						l.tail = []Entry{&SavepointEntry{ID: "base"}, e}
					}
					data, at, err := l.AppendTo(nil, in.itin)
					if err != nil {
						t.Fatal(err)
					}
					r := wire.NewReader(data)
					got := ScanLog(r, in.itin)
					if err := r.Done(); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.entries(), l.tail) {
						t.Errorf("round trip:\n got %+v\nwant %+v", got.Entry(0), e)
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
						ScanLog(r, in.itin)
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
	l := &Log{tail: []Entry{&SavepointEntry{ID: "sp", Mode: StateLogging,
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
	got := ScanLog(r, itin)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if sys := got.Entry(0).(*SavepointEntry).Sys; &sys.Itin[0] != &itin[0] {
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
		ScanLog(r, tc.itin)
		if err := r.Done(); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", tc.name, err)
		}
	}
	// The same inline bytes in a container carrying another itinerary are
	// the canonical form.
	r = wire.NewReader(inline)
	ScanLog(r, []byte{1, 0})
	if err := r.Done(); err != nil {
		t.Errorf("inline itinerary in a container carrying another: %v", err)
	}
}

// TestReadLogSavepointReferences: the scan accepts only the savepoint
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
		data, _, err := (&Log{tail: tc.entries}).AppendTo(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		r := wire.NewReader(data)
		ScanLog(r, nil)
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
		got := ScanLog(r, nil)
		if err := r.Done(); err != nil || (got == nil) != (l == nil) || (got != nil && got.Len() != 0) {
			t.Errorf("log %v round-tripped to %v, %v", l, got, err)
		}
	}
	big := make(map[string][]byte)
	for _, k := range []string{"q", "w", "e", "r", "t", "y", "u", "i", "o", "p"} {
		big[k] = []byte(k)
	}
	l := &Log{tail: []Entry{&SavepointEntry{ID: "sp", Mode: StateLogging, Image: big}}}
	first, _, err := l.AppendTo(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if again, _, _ := l.AppendTo(nil, nil); !bytes.Equal(again, first) {
			t.Fatal("equal logs encoded to different bytes")
		}
	}
	if _, _, err := (&Log{tail: []Entry{nil}}).AppendTo(nil, nil); err == nil {
		t.Error("nil log entry encoded")
	}
	r := wire.NewReader([]byte{1, 1, 9, 0, 0})
	ScanLog(r, nil)
	if !errors.Is(r.Err(), wire.ErrCorrupt) {
		t.Errorf("unknown entry kind: %v, want ErrCorrupt", r.Err())
	}
}

// TestScanRefusesInlineRepeat: a log entry naming inline a name the
// entries before it already wrote is ErrCorrupt, as it is in one entry.
func TestScanRefusesInlineRepeat(t *testing.T) {
	// present, two BOS entries, each naming "n" inline at step 0.
	for _, data := range [][]byte{
		{1, 2, kindBOS, 2, 'n', 0, kindBOS, 2, 'n', 0},
		{1, 1, kindEOS, 2, 'n', 0, 0, 1, 2, 'n'},
	} {
		r := wire.NewReader(data)
		ScanLog(r, nil)
		if err := r.Done(); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%x: %v, want ErrCorrupt", data, err)
		}
	}
}

// manySavepoints encodes a base savepoint followed by n special ones
// referring to it.
func manySavepoints(t testing.TB, n int) []byte {
	l := &Log{}
	if err := l.AppendSavepoint("base", nil, map[string][]byte{"k": []byte("v")}, StateLogging, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		l.Append(&SavepointEntry{ID: fmt.Sprintf("s%d", i), Special: true, RefID: "base"})
	}
	data, _, err := l.AppendTo(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestScanSavepointsLinear: the scan checks each savepoint against those
// before it in constant time, so four times the savepoints cost at most
// five times the time (a walk over the earlier entries would cost 16).
// Each sample scans the small log four times as often as the large one,
// and the best of several samples counts.
func TestScanSavepointsLinear(t *testing.T) {
	scan := func(data []byte, times int) time.Duration {
		best := time.Duration(1 << 62)
		for i := 0; i < 9; i++ {
			runtime.GC()
			start := time.Now()
			for j := 0; j < times; j++ {
				r := wire.NewReader(data)
				ScanLog(r, nil)
				if err := r.Done(); err != nil {
					t.Fatal(err)
				}
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	small, large := manySavepoints(t, 250), manySavepoints(t, 1000)
	scan(large, 1) // warm up
	if ts, tl := scan(small, 16), scan(large, 4); 4*tl > 5*ts {
		t.Errorf("scanning 1000 special savepoints took %v, 250 took %v: more than 5x", tl/4, ts/16)
	}
}

// TestLazyLogMatchesMaterialised: on a scanned log and on the same
// entries built in memory, appending and popping a step encode to the
// same bytes, and every savepoint reconstructs the same state.
func TestLazyLogMatchesMaterialised(t *testing.T) {
	l := &Log{}
	img := func(kv ...string) map[string][]byte {
		m := map[string][]byte{}
		for i := 0; i+1 < len(kv); i += 2 {
			m[kv[i]] = []byte(kv[i+1])
		}
		return m
	}
	sys := &SysState{StepSeq: 1, Itin: []byte{1, 0}}
	if err := l.AppendSavepoint("a", sys, img("x", "1"), TransitionLogging, true); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendSpecialSavepoint("a2", "a", true); err != nil {
		t.Fatal(err)
	}
	step := func(l *Log, node string, seq int) {
		l.Append(&BeginStepEntry{Node: node, Seq: seq})
		l.Append(&OpEntry{Kind: OpResource, Op: "undo", Params: NewParams().Set("id", seq)})
		l.Append(&EndStepEntry{Node: node, Seq: seq, AltNodes: []string{"alt"}})
	}
	step(l, "n1", 0)
	if err := l.AppendSavepoint("b", sys, img("x", "2", "y", "3"), TransitionLogging, false); err != nil {
		t.Fatal(err)
	}
	step(l, "n2", 1)
	for _, itin := range [][]byte{nil, {1, 0}} {
		data, _, err := l.AppendTo(nil, itin)
		if err != nil {
			t.Fatal(err)
		}
		scan := func() *Log {
			r := wire.NewReader(data)
			got := ScanLog(r, itin)
			if err := r.Done(); err != nil {
				t.Fatal(err)
			}
			return got
		}
		lazy := scan()
		eager := &Log{tail: scan().entries()}
		for _, id := range []string{"a", "a2", "b", "none"} {
			s1, img1, err1 := lazy.SavepointState(id)
			s2, img2, err2 := eager.SavepointState(id)
			if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(img1, img2) || (err1 == nil) != (err2 == nil) {
				t.Errorf("SavepointState(%s): lazy %v %v %v, materialised %v %v %v", id, s1, img1, err1, s2, img2, err2)
			}
			r1, err1 := lazy.ReconstructSRO(id)
			r2, err2 := eager.ReconstructSRO(id)
			if !reflect.DeepEqual(r1, r2) || (err1 == nil) != (err2 == nil) {
				t.Errorf("ReconstructSRO(%s): lazy %v %v, materialised %v %v", id, r1, err1, r2, err2)
			}
		}
		// The index answers SavepointAt and DropLast: neither decodes an
		// entry.
		idx := scan()
		for i := idx.Len() - 1; i >= 0; i-- {
			id, ok := idx.SavepointAt(i)
			sp, isSP := eager.Entry(i).(*SavepointEntry)
			if ok != isSP || (ok && id != sp.ID) {
				t.Errorf("SavepointAt(%d) = %q, %v; entry is %s", i, id, ok, EntryName(eager.Entry(i)))
			}
			idx.DropLast()
		}
		if idx.Len() != 0 || idx.DropLast() || idx.decoded != nil {
			t.Errorf("dropped every entry: %d left, %d decoded", idx.Len(), len(idx.decoded))
		}
		for _, edit := range []func(*Log){
			func(l *Log) { step(l, "n3", 2) },
			func(l *Log) {
				for range 4 {
					l.DropLast()
				}
				step(l, "n4", 2)
			},
			func(l *Log) { l.Pop(); l.Pop(); l.Pop() },
			func(l *Log) { l.Pop(); l.Pop(); l.Pop(); step(l, "n9", 1) },
			func(l *Log) {
				for l.Len() > 1 {
					l.Pop()
				}
				step(l, "n1", 0)
			},
		} {
			lazy, eager := scan(), &Log{tail: scan().entries()}
			edit(lazy)
			edit(eager)
			got, _, err1 := lazy.AppendTo(nil, itin)
			want, _, err2 := eager.AppendTo(nil, itin)
			if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
				t.Errorf("itin %x: edited lazy log encodes to %x, materialised to %x (%v, %v)", itin, got, want, err1, err2)
			}
		}
		// The scanned bytes are not what the log encodes to beside
		// another itinerary: that encode writes every entry anew.
		lazy = scan()
		got, _, err := lazy.AppendTo(nil, []byte{1, 1})
		want, _, _ := (&Log{tail: scan().entries()}).AppendTo(nil, []byte{1, 1})
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("itin %x: re-encoded beside another itinerary: %x, want %x (%v)", itin, got, want, err)
		}
	}
}
