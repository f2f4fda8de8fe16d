package itinerary

import (
	"encoding/gob"
	"errors"
	"reflect"
	"testing"

	"repro/internal/wire"
)

// figure6 builds the paper's sample itinerary (Figure 6):
//
//	I{ SI1{s1,s2,s3}, SI2{s7,s8}, SI3{ s6, SI4{s5,s4}, SI5{s9,s10} } }
//
// with the execution order of the §4.4.2 walk-through (SI3 begins with s6,
// then SI4 executes s5 before s4).
func figure6(t *testing.T) *Itinerary {
	t.Helper()
	it, err := New(
		&Sub{ID: "SI1", Entries: []Entry{
			Step{Method: "s1", Loc: "n1"},
			Step{Method: "s2", Loc: "n2"},
			Step{Method: "s3", Loc: "n3"},
		}},
		&Sub{ID: "SI2", Entries: []Entry{
			Step{Method: "s7", Loc: "n7"},
			Step{Method: "s8", Loc: "n8"},
		}},
		&Sub{ID: "SI3", Entries: []Entry{
			Step{Method: "s6", Loc: "n6"},
			&Sub{ID: "SI4", Entries: []Entry{
				Step{Method: "s5", Loc: "n5"},
				Step{Method: "s4", Loc: "n4"},
			}},
			&Sub{ID: "SI5", Entries: []Entry{
				Step{Method: "s9", Loc: "n9"},
				Step{Method: "s10", Loc: "n10"},
			}},
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return it
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		subs []*Sub
	}{
		{"empty main", nil},
		{"empty sub", []*Sub{{ID: "a"}}},
		{"no sub id", []*Sub{{Entries: []Entry{Step{Method: "m", Loc: "l"}}}}},
		{"duplicate ids", []*Sub{
			{ID: "a", Entries: []Entry{Step{Method: "m", Loc: "l"}}},
			{ID: "a", Entries: []Entry{Step{Method: "m", Loc: "l"}}},
		}},
		{"nested duplicate", []*Sub{
			{ID: "a", Entries: []Entry{&Sub{ID: "a", Entries: []Entry{Step{Method: "m", Loc: "l"}}}}},
		}},
		{"step without loc", []*Sub{{ID: "a", Entries: []Entry{Step{Method: "m"}}}}},
		{"step without method", []*Sub{{ID: "a", Entries: []Entry{Step{Loc: "l"}}}}},
		{"nil sub", []*Sub{nil}},
	}
	for _, c := range cases {
		if _, err := New(c.subs...); err == nil {
			t.Errorf("%s: validation passed, want error", c.name)
		}
	}
}

func TestStartEntersNestedSubs(t *testing.T) {
	it, err := New(&Sub{ID: "outer", Entries: []Entry{
		&Sub{ID: "inner", Entries: []Entry{Step{Method: "m", Loc: "l"}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	c, entered, err := it.Start()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(entered, []string{"outer", "inner"}) {
		t.Errorf("entered = %v, want [outer inner]", entered)
	}
	step, err := it.StepAt(c)
	if err != nil || step.Method != "m" {
		t.Errorf("first step = %+v, %v", step, err)
	}
}

// TestFullTraversal walks Figure 6 end to end, recording steps and
// boundary events.
func TestFullTraversal(t *testing.T) {
	it := figure6(t)
	c, entered, err := it.Start()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(entered, []string{"SI1"}) {
		t.Errorf("initial entered = %v", entered)
	}
	var steps []string
	type event struct {
		after   string
		left    []string
		topLeft string
		entered []string
	}
	var events []event
	for !c.Done {
		step, err := it.StepAt(c)
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, step.Method)
		mv, err := it.Advance(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(mv.Left)+len(mv.Entered) > 0 || mv.TopLevelLeft != "" {
			events = append(events, event{after: step.Method, left: mv.Left, topLeft: mv.TopLevelLeft, entered: mv.Entered})
		}
		c = mv.Next
	}
	wantSteps := []string{"s1", "s2", "s3", "s7", "s8", "s6", "s5", "s4", "s9", "s10"}
	if !reflect.DeepEqual(steps, wantSteps) {
		t.Errorf("steps = %v, want %v", steps, wantSteps)
	}
	wantEvents := []event{
		{after: "s3", left: []string{"SI1"}, topLeft: "SI1", entered: []string{"SI2"}},
		{after: "s8", left: []string{"SI2"}, topLeft: "SI2", entered: []string{"SI3"}},
		{after: "s6", entered: []string{"SI4"}},
		{after: "s4", left: []string{"SI4"}, entered: []string{"SI5"}},
		{after: "s10", left: []string{"SI5", "SI3"}, topLeft: "SI3"},
	}
	if !reflect.DeepEqual(events, wantEvents) {
		t.Errorf("events:\n got %+v\nwant %+v", events, wantEvents)
	}
}

func TestEnclosingSubs(t *testing.T) {
	it := figure6(t)
	// Position at s4 (inside SI4 inside SI3).
	c, err := it.SubStart("SI4")
	if err != nil {
		t.Fatal(err)
	}
	mv, err := it.Advance(c) // s5 -> s4
	if err != nil {
		t.Fatal(err)
	}
	ids, err := it.EnclosingSubs(mv.Next)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []string{"SI3", "SI4"}) {
		t.Errorf("enclosing = %v, want [SI3 SI4]", ids)
	}
}

func TestSubStart(t *testing.T) {
	it := figure6(t)
	cases := map[string]string{
		"SI1": "s1",
		"SI2": "s7",
		"SI3": "s6",
		"SI4": "s5",
		"SI5": "s9",
	}
	for id, wantStep := range cases {
		c, err := it.SubStart(id)
		if err != nil {
			t.Fatalf("SubStart(%s): %v", id, err)
		}
		step, err := it.StepAt(c)
		if err != nil || step.Method != wantStep {
			t.Errorf("SubStart(%s) -> %s, %v; want %s", id, step.Method, err, wantStep)
		}
	}
	if _, err := it.SubStart("ghost"); err == nil {
		t.Error("SubStart(ghost) succeeded")
	}
}

func TestIsTopLevel(t *testing.T) {
	it := figure6(t)
	for id, want := range map[string]bool{"SI1": true, "SI2": true, "SI3": true, "SI4": false, "SI5": false} {
		if got := it.IsTopLevel(id); got != want {
			t.Errorf("IsTopLevel(%s) = %v, want %v", id, got, want)
		}
	}
}

func TestStepAtErrors(t *testing.T) {
	it := figure6(t)
	if _, err := it.StepAt(Cursor{Done: true}); !errors.Is(err, ErrDone) {
		t.Errorf("done cursor: err = %v, want ErrDone", err)
	}
	if _, err := it.StepAt(Cursor{Path: []int{99}}); !errors.Is(err, ErrInvalidPath) {
		t.Errorf("bad path: err = %v, want ErrInvalidPath", err)
	}
	// Path addressing a sub, not a step.
	if _, err := it.StepAt(Cursor{Path: []int{2, 1}}); !errors.Is(err, ErrInvalidPath) {
		t.Errorf("sub path: err = %v, want ErrInvalidPath", err)
	}
}

func TestAdvanceOnDone(t *testing.T) {
	it := figure6(t)
	if _, err := it.Advance(Cursor{Done: true}); !errors.Is(err, ErrDone) {
		t.Errorf("err = %v, want ErrDone", err)
	}
}

// gob is the test-only oracle of the binary codec: the runtime no longer
// registers these types with it.
func init() {
	gob.Register(Step{})
	gob.Register(&Sub{})
}

// TestGobRoundTrip: the binary codec and the gob oracle agree on an
// itinerary and a cursor, and the decoded itinerary still navigates.
func TestGobRoundTrip(t *testing.T) {
	it := figure6(t)
	data, err := wire.Encode(it)
	if err != nil {
		t.Fatal(err)
	}
	var viaGob Itinerary
	if err := wire.Decode(data, &viaGob); err != nil {
		t.Fatal(err)
	}
	bin, err := it.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(bin)
	got := ReadItinerary(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, &viaGob) || !reflect.DeepEqual(got, it) {
		t.Errorf("binary round trip = %+v\n gob oracle = %+v\n want %+v", got, &viaGob, it)
	}
	c, entered, err := got.Start()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(entered, []string{"SI1"}) {
		t.Errorf("entered after roundtrip = %v", entered)
	}
	step, err := got.StepAt(c)
	if err != nil || step.Method != "s1" {
		t.Errorf("first step after roundtrip = %+v, %v", step, err)
	}
	if got.IsTopLevel("SI4") {
		t.Error("structure corrupted by roundtrip")
	}
	r = wire.NewReader(c.AppendTo(nil))
	if back := ReadCursor(r); r.Done() != nil || !reflect.DeepEqual(back, c) {
		t.Errorf("cursor round trip = %+v, %v; want %+v", back, r.Err(), c)
	}
}

func TestStepAlternativesPreserved(t *testing.T) {
	it, err := New(&Sub{ID: "s", Entries: []Entry{
		Step{Method: "m", Loc: "primary", Alt: []string{"alt1", "alt2"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := it.Start()
	if err != nil {
		t.Fatal(err)
	}
	step, err := it.StepAt(c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(step.Alt, []string{"alt1", "alt2"}) {
		t.Errorf("Alt = %v", step.Alt)
	}
}

// TestCodecDepthAndBadInput: nesting is capped at maxDepth on both sides of
// the codec, nil round-trips as nil, and malformed input is ErrCorrupt.
func TestCodecDepthAndBadInput(t *testing.T) {
	nest := func(depth int) *Itinerary {
		sub := &Sub{ID: "leaf", Entries: []Entry{Step{Method: "m", Loc: "l"}}}
		for i := 1; i < depth; i++ {
			sub = &Sub{ID: "s", Entries: []Entry{sub}}
		}
		return &Itinerary{Subs: []*Sub{sub}}
	}
	data, err := nest(maxDepth).AppendTo(nil)
	if err != nil {
		t.Fatalf("depth %d refused: %v", maxDepth, err)
	}
	r := wire.NewReader(data)
	if got := ReadItinerary(r); r.Done() != nil || !reflect.DeepEqual(got, nest(maxDepth)) {
		t.Errorf("depth %d did not round-trip: %v", maxDepth, r.Err())
	}
	if _, err := nest(maxDepth + 1).AppendTo(nil); err == nil {
		t.Errorf("depth %d encoded", maxDepth+1)
	}
	// One more level, spliced in by hand: s AnyOrder=0 nEntries=1 kindSub.
	deep := append([]byte{1, 1, 1, 's', 0, 1, kindSub}, data[2:]...)
	r = wire.NewReader(deep)
	ReadItinerary(r)
	if !errors.Is(r.Err(), wire.ErrCorrupt) {
		t.Errorf("depth %d decoded: %v", maxDepth+1, r.Err())
	}

	var none *Itinerary
	data, err = none.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	r = wire.NewReader(data)
	if got := ReadItinerary(r); got != nil || r.Done() != nil {
		t.Errorf("nil itinerary round-tripped to %v, %v", got, r.Err())
	}
	for name, it := range map[string]*Itinerary{
		"nil sub":       {Subs: []*Sub{nil}},
		"unknown entry": {Subs: []*Sub{{ID: "s", Entries: []Entry{nil}}}},
	} {
		if _, err := it.AppendTo(nil); err == nil {
			t.Errorf("%s encoded", name)
		}
	}
	for name, in := range map[string][]byte{
		"unknown entry kind": {1, 1, 1, 's', 0, 1, 9, 0, 0, 0},
		"inflated sub count": {1, 0xff, 0xff, 0x03, 1, 's', 0, 0},
		"truncated":          {1, 1, 1, 's'},
	} {
		r := wire.NewReader(in)
		ReadItinerary(r)
		if !errors.Is(r.Done(), wire.ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, r.Err())
		}
	}
}
