package core

import (
	"encoding/gob"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/itinerary"
	"repro/internal/wire"
)

func img(pairs ...string) map[string][]byte {
	out := make(map[string][]byte, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out[pairs[i]] = []byte(pairs[i+1])
	}
	return out
}

func TestLogAppendPopLast(t *testing.T) {
	var l Log
	if l.Last() != nil {
		t.Error("Last on empty log should be nil")
	}
	if _, err := l.Pop(); !errors.Is(err, ErrEmptyLog) {
		t.Errorf("Pop on empty log: err = %v, want ErrEmptyLog", err)
	}
	bos := &BeginStepEntry{Node: "n1", Seq: 0}
	oe := &OpEntry{Kind: OpResource, Op: "x", Params: NewParams()}
	eos := &EndStepEntry{Node: "n1", Seq: 0}
	l.Append(bos)
	l.Append(oe)
	l.Append(eos)
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	if l.Last() != Entry(eos) {
		t.Error("Last != appended EOS")
	}
	got, err := l.Pop()
	if err != nil || got != Entry(eos) {
		t.Errorf("Pop = %v, %v; want EOS", got, err)
	}
	if l.Len() != 2 {
		t.Errorf("Len after pop = %d, want 2", l.Len())
	}
}

func TestLogFigure2Layout(t *testing.T) {
	// Reproduce Figure 2: ... SPk BOSn OEn,1 ... OEn,p EOSn BOSn+1 ...
	var l Log
	if err := l.AppendSavepoint("k", nil, img("v", "1"), StateLogging, false); err != nil {
		t.Fatal(err)
	}
	l.Append(&BeginStepEntry{Node: "n", Seq: 7})
	for i := 0; i < 3; i++ {
		l.Append(&OpEntry{Kind: OpResource, Op: "op", Params: NewParams()})
	}
	l.Append(&EndStepEntry{Node: "n", Seq: 7})
	l.Append(&BeginStepEntry{Node: "m", Seq: 8})
	want := "SP(k) BOS(n/7) OE(resource:op) OE(resource:op) OE(resource:op) EOS(n/7) BOS(m/8)"
	if got := l.String(); got != want {
		t.Errorf("log layout:\n got %s\nwant %s", got, want)
	}
}

func TestSavepointStateLoggingRestore(t *testing.T) {
	var l Log
	src := img("a", "1", "b", "2")
	if err := l.AppendSavepoint("sp1", nil, src, StateLogging, true); err != nil {
		t.Fatal(err)
	}
	// Mutating the source must not affect the stored image.
	src["a"] = []byte("mutated")
	got, err := l.ReconstructSRO("sp1")
	if err != nil {
		t.Fatal(err)
	}
	if string(got["a"]) != "1" || string(got["b"]) != "2" {
		t.Errorf("reconstructed image = %v", got)
	}
}

func TestSavepointDuplicateRejected(t *testing.T) {
	var l Log
	if err := l.AppendSavepoint("sp", nil, img(), StateLogging, false); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendSavepoint("sp", nil, img(), StateLogging, false); err == nil {
		t.Error("duplicate savepoint accepted")
	}
}

func TestTransitionLoggingChain(t *testing.T) {
	var l Log
	s1 := img("a", "1", "b", "2")
	s2 := img("a", "1", "b", "3", "c", "4") // b changed, c added
	s3 := img("b", "3", "c", "4")           // a deleted
	for i, s := range []map[string][]byte{s1, s2, s3} {
		id := []string{"sp1", "sp2", "sp3"}[i]
		if err := l.AppendSavepoint(id, nil, s, TransitionLogging, true); err != nil {
			t.Fatal(err)
		}
		l.Append(&BeginStepEntry{Node: "n", Seq: i})
		l.Append(&EndStepEntry{Node: "n", Seq: i})
	}
	// First savepoint carries the base image; later ones carry deltas.
	sp1 := l.Entries[0].(*SavepointEntry)
	if sp1.Image == nil || sp1.Delta != nil {
		t.Error("sp1 should carry a base image")
	}
	sp2 := l.Entries[3].(*SavepointEntry)
	if sp2.Image != nil || sp2.Delta == nil {
		t.Error("sp2 should carry a delta")
	}
	if len(sp2.Delta.Changed) != 2 || len(sp2.Delta.Deleted) != 0 {
		t.Errorf("sp2 delta = %+v, want 2 changed 0 deleted", sp2.Delta)
	}
	sp3 := l.Entries[6].(*SavepointEntry)
	if len(sp3.Delta.Changed) != 0 || len(sp3.Delta.Deleted) != 1 || sp3.Delta.Deleted[0] != "a" {
		t.Errorf("sp3 delta = %+v, want deletion of a", sp3.Delta)
	}
	for i, want := range []map[string][]byte{s1, s2, s3} {
		id := []string{"sp1", "sp2", "sp3"}[i]
		got, err := l.ReconstructSRO(id)
		if err != nil {
			t.Fatal(err)
		}
		if !imagesEqual(got, want) {
			t.Errorf("reconstruct %s = %v, want %v", id, got, want)
		}
	}
}

func imagesEqual(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if string(b[k]) != string(v) {
			return false
		}
	}
	return true
}

func TestSpecialSavepointResolution(t *testing.T) {
	var l Log
	if err := l.AppendSavepoint("outer", nil, img("k", "v"), StateLogging, true); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendSpecialSavepoint("inner", "outer", true); err != nil {
		t.Fatal(err)
	}
	got, err := l.ReconstructSRO("inner")
	if err != nil {
		t.Fatal(err)
	}
	if string(got["k"]) != "v" {
		t.Errorf("special savepoint resolution = %v", got)
	}
	if !strings.Contains(l.String(), "SP*(inner->outer)") {
		t.Errorf("log rendering lacks special savepoint: %s", l.String())
	}
}

// TestSavepointStateTransitionLogging: under transition logging every
// data-carrying savepoint keeps its own system state, whole, while its
// delta covers the SRO alone; a special savepoint resolves both through
// its reference, a removal keeps the survivors' state, and a savepoint
// without system state cannot be restored.
func TestSavepointStateTransitionLogging(t *testing.T) {
	sys := func(seq int) *SysState {
		return &SysState{Cursor: itinerary.Cursor{Path: []int{0, seq}}, StepSeq: seq, Itin: []byte{1, byte(seq)}}
	}
	var l Log
	for i, id := range []string{"a", "b", "c"} {
		if err := l.AppendSavepoint(id, sys(i), img("k", id), TransitionLogging, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendSpecialSavepoint("c2", "c", true); err != nil {
		t.Fatal(err)
	}
	if d := l.Entries[1].(*SavepointEntry).Delta; d == nil || len(d.Changed) != 1 || d.Changed["k"] == nil {
		t.Fatalf("savepoint b's delta = %+v, want the SRO key k alone", d)
	}
	check := func(id string, want int) {
		t.Helper()
		got, sro, err := l.SavepointState(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, sys(want)) || string(sro["k"]) != string(rune('a'+want)) {
			t.Errorf("savepoint %s: state %+v, SRO %q; want %+v and k=%c", id, got, sro, sys(want), 'a'+want)
		}
	}
	check("b", 1)
	check("c2", 2)
	if err := l.RemoveSavepoint("b"); err != nil {
		t.Fatal(err)
	}
	check("a", 0)
	check("c", 2)
	check("c2", 2)
	if err := l.AppendSavepoint("bare", nil, img(), StateLogging, true); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.SavepointState("bare"); err == nil {
		t.Error("a savepoint without system state restored")
	}
	if _, _, err := l.SavepointState("ghost"); !errors.Is(err, ErrNoSuchSavepoint) {
		t.Errorf("missing savepoint: %v, want ErrNoSuchSavepoint", err)
	}
}

func TestSpecialSavepointMissingRef(t *testing.T) {
	var l Log
	if err := l.AppendSpecialSavepoint("inner", "ghost", true); !errors.Is(err, ErrNoSuchSavepoint) {
		t.Errorf("err = %v, want ErrNoSuchSavepoint", err)
	}
}

func TestRemoveSavepointStateMode(t *testing.T) {
	var l Log
	for _, id := range []string{"a", "b", "c"} {
		if err := l.AppendSavepoint(id, nil, img("x", id), StateLogging, true); err != nil {
			t.Fatal(err)
		}
		l.Append(&BeginStepEntry{Node: "n", Seq: 0})
		l.Append(&EndStepEntry{Node: "n", Seq: 0})
	}
	if err := l.RemoveSavepoint("b"); err != nil {
		t.Fatal(err)
	}
	if l.HasSavepoint("b") {
		t.Error("savepoint b still present")
	}
	for _, id := range []string{"a", "c"} {
		got, err := l.ReconstructSRO(id)
		if err != nil || string(got["x"]) != id {
			t.Errorf("reconstruct %s after removal = %v, %v", id, got, err)
		}
	}
}

func TestRemoveSavepointTransitionModeMerges(t *testing.T) {
	// Removing a middle (or base) savepoint under transition logging must
	// re-base the next one — "a non-trivial task" per §4.4.2.
	states := []map[string][]byte{
		img("a", "1"),
		img("a", "2", "b", "9"),
		img("a", "3"),
	}
	for _, victim := range []string{"sp0", "sp1"} {
		var l Log
		for i, s := range states {
			id := []string{"sp0", "sp1", "sp2"}[i]
			if err := l.AppendSavepoint(id, nil, s, TransitionLogging, true); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.RemoveSavepoint(victim); err != nil {
			t.Fatalf("remove %s: %v", victim, err)
		}
		for i, id := range []string{"sp0", "sp1", "sp2"} {
			if id == victim {
				continue
			}
			got, err := l.ReconstructSRO(id)
			if err != nil {
				t.Fatalf("reconstruct %s after removing %s: %v", id, victim, err)
			}
			if !imagesEqual(got, states[i]) {
				t.Errorf("after removing %s: reconstruct %s = %v, want %v", victim, id, got, states[i])
			}
		}
	}
}

func TestRemoveSavepointBlockedBySpecialRef(t *testing.T) {
	var l Log
	if err := l.AppendSavepoint("outer", nil, img(), StateLogging, true); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendSpecialSavepoint("inner", "outer", true); err != nil {
		t.Fatal(err)
	}
	if err := l.RemoveSavepoint("outer"); err == nil {
		t.Error("removal of referenced savepoint succeeded, want error")
	}
	if err := l.RemoveSavepoint("inner"); err != nil {
		t.Fatal(err)
	}
	if err := l.RemoveSavepoint("outer"); err != nil {
		t.Errorf("removal after dereference: %v", err)
	}
}

func TestRemoveMissingSavepoint(t *testing.T) {
	var l Log
	if err := l.RemoveSavepoint("ghost"); !errors.Is(err, ErrNoSuchSavepoint) {
		t.Errorf("err = %v, want ErrNoSuchSavepoint", err)
	}
}

func TestLastIsSavepointAndSavepoints(t *testing.T) {
	var l Log
	if l.LastIsSavepoint("a") {
		t.Error("empty log claims savepoint")
	}
	if err := l.AppendSavepoint("a", nil, img(), StateLogging, false); err != nil {
		t.Fatal(err)
	}
	if !l.LastIsSavepoint("a") || l.LastIsSavepoint("b") {
		t.Error("LastIsSavepoint mismatch")
	}
	l.Append(&BeginStepEntry{})
	if l.LastIsSavepoint("a") {
		t.Error("LastIsSavepoint true after BOS")
	}
	if err := l.AppendSavepoint("b", nil, img(), StateLogging, false); err != nil {
		t.Fatal(err)
	}
	got := l.Savepoints()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Savepoints = %v", got)
	}
}

func TestLogClearAndEncodedSize(t *testing.T) {
	var l Log
	if sz, err := l.EncodedSize(); err != nil || sz != 0 {
		t.Errorf("empty log size = %d, %v", sz, err)
	}
	if err := l.AppendSavepoint("a", nil, img("k", strings.Repeat("v", 1000)), StateLogging, false); err != nil {
		t.Fatal(err)
	}
	sz1, err := l.EncodedSize()
	if err != nil || sz1 < 1000 {
		t.Errorf("size = %d, %v; want >= 1000", sz1, err)
	}
	l.Clear()
	if l.Len() != 0 {
		t.Error("Clear left entries")
	}
}

// gob is the test-only oracle of the binary codec: the runtime no longer
// registers the entry types with it.
func init() {
	gob.Register(&SavepointEntry{})
	gob.Register(&BeginStepEntry{})
	gob.Register(&OpEntry{})
	gob.Register(&EndStepEntry{})
}

// TestLogGobRoundTrip: the binary codec and the gob oracle agree on a log
// holding every entry kind.
func TestLogGobRoundTrip(t *testing.T) {
	var l Log
	if err := l.AppendSavepoint("sp", nil, img("a", "1"), StateLogging, true); err != nil {
		t.Fatal(err)
	}
	l.Append(&BeginStepEntry{Node: "n1", Seq: 3})
	l.Append(&OpEntry{Kind: OpMixed, Op: "comp.x", Params: NewParams().Set("amt", int64(42))})
	l.Append(&EndStepEntry{Node: "n1", Seq: 3, HasMixed: true, AltNodes: []string{"n2"}})
	if err := l.AppendSpecialSavepoint("inner", "sp", true); err != nil {
		t.Fatal(err)
	}

	data, err := wire.Encode(&l)
	if err != nil {
		t.Fatal(err)
	}
	var viaGob Log
	if err := wire.Decode(data, &viaGob); err != nil {
		t.Fatal(err)
	}
	bin, _, err := l.AppendTo(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(bin)
	got := ReadLog(r, nil)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, &viaGob) {
		t.Errorf("binary round trip differs from the gob oracle:\n got %+v\nwant %+v", got, &viaGob)
	}
	if got.String() != l.String() {
		t.Errorf("roundtrip:\n got %s\nwant %s", got.String(), l.String())
	}
	op := got.Entries[2].(*OpEntry)
	var amt int64
	if err := op.Params.Get("amt", &amt); err != nil || amt != 42 {
		t.Errorf("param amt = %d, %v", amt, err)
	}
	eos := got.Entries[3].(*EndStepEntry)
	if !eos.HasMixed || len(eos.AltNodes) != 1 {
		t.Errorf("EOS lost flags: %+v", eos)
	}
}

func TestParams(t *testing.T) {
	p := NewParams().Set("s", "hello").Set("n", int64(-7)).Set("b", []byte{1, 2})
	var s string
	if err := p.Get("s", &s); err != nil || s != "hello" {
		t.Errorf("s = %q, %v", s, err)
	}
	var n int64
	if err := p.Get("n", &n); err != nil || n != -7 {
		t.Errorf("n = %d, %v", n, err)
	}
	var b []byte
	if err := p.Get("b", &b); err != nil || len(b) != 2 {
		t.Errorf("b = %v, %v", b, err)
	}
	if err := p.Get("missing", &s); err == nil {
		t.Error("missing param: no error")
	}
}

func TestOpKindString(t *testing.T) {
	cases := map[OpKind]string{
		OpResource: "resource",
		OpAgent:    "agent",
		OpMixed:    "mixed",
		OpKind(9):  "OpKind(9)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestEntryName(t *testing.T) {
	cases := []struct {
		e    Entry
		want string
	}{
		{&SavepointEntry{}, "SP"},
		{&BeginStepEntry{}, "BOS"},
		{&OpEntry{}, "OE"},
		{&EndStepEntry{}, "EOS"},
	}
	for _, c := range cases {
		if got := EntryName(c.e); got != c.want {
			t.Errorf("EntryName(%T) = %q, want %q", c.e, got, c.want)
		}
	}
}

func TestTransitionBaseAfterClear(t *testing.T) {
	// After Clear, the next savepoint becomes a fresh base image.
	var l Log
	if err := l.AppendSavepoint("a", nil, img("x", "1"), TransitionLogging, true); err != nil {
		t.Fatal(err)
	}
	l.Clear()
	if err := l.AppendSavepoint("b", nil, img("x", "2"), TransitionLogging, true); err != nil {
		t.Fatal(err)
	}
	sp := l.Entries[0].(*SavepointEntry)
	if sp.Image == nil {
		t.Error("savepoint after Clear lacks base image")
	}
	got, err := l.ReconstructSRO("b")
	if err != nil || string(got["x"]) != "2" {
		t.Errorf("reconstruct b = %v, %v", got, err)
	}
}
