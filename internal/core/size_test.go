package core

import (
	"testing"

	"repro/internal/wire"
)

// rebuildSize re-measures a log's entries from scratch, the way a fresh
// Log decoded from a container would.
func rebuildSize(t *testing.T, l *Log) int {
	t.Helper()
	fresh := &Log{Entries: append([]Entry(nil), l.Entries...)}
	sz, err := fresh.EncodedSize()
	if err != nil {
		t.Fatal(err)
	}
	return sz
}

func sampleStep(l *Log, seq int) {
	l.Append(&BeginStepEntry{Node: "n", Seq: seq})
	l.Append(&OpEntry{
		Kind:   OpResource,
		Op:     "bank.untransfer",
		Params: NewParams().Set("from", "a").Set("to", "b").Set("amt", int64(seq)),
	})
	l.Append(&EndStepEntry{Node: "n", Seq: seq})
}

func TestEncodedSizeIncrementalMatchesRebuild(t *testing.T) {
	var l Log
	if err := l.AppendSavepoint("sp", map[string][]byte{"v": make([]byte, 512)}, StateLogging, true); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 8; s++ {
		sampleStep(&l, s)
		got, err := l.EncodedSize()
		if err != nil {
			t.Fatal(err)
		}
		if want := rebuildSize(t, &l); got != want {
			t.Fatalf("after step %d: incremental %d != rebuilt %d", s, got, want)
		}
	}
}

func TestEncodedSizePopSubtracts(t *testing.T) {
	var l Log
	if err := l.AppendSavepoint("sp", map[string][]byte{"v": make([]byte, 64)}, StateLogging, true); err != nil {
		t.Fatal(err)
	}
	sampleStep(&l, 0)
	sampleStep(&l, 1)
	full, err := l.EncodedSize()
	if err != nil {
		t.Fatal(err)
	}
	for l.Len() > 4 { // pop step 1's entries
		if _, err := l.Pop(); err != nil {
			t.Fatal(err)
		}
	}
	popped, err := l.EncodedSize()
	if err != nil {
		t.Fatal(err)
	}
	if popped >= full {
		t.Errorf("size after pop %d not smaller than %d", popped, full)
	}
	if want := rebuildSize(t, &l); popped != want {
		t.Errorf("size after pop %d != rebuilt %d", popped, want)
	}
}

func TestEncodedSizeInvalidatedByRemoveSavepoint(t *testing.T) {
	var l Log
	img := map[string][]byte{"v": make([]byte, 128)}
	if err := l.AppendSavepoint("a", img, TransitionLogging, false); err != nil {
		t.Fatal(err)
	}
	img["v"] = make([]byte, 256)
	if err := l.AppendSavepoint("b", img, TransitionLogging, false); err != nil {
		t.Fatal(err)
	}
	if _, err := l.EncodedSize(); err != nil {
		t.Fatal(err)
	}
	if err := l.RemoveSavepoint("a"); err != nil {
		t.Fatal(err)
	}
	got, err := l.EncodedSize()
	if err != nil {
		t.Fatal(err)
	}
	if want := rebuildSize(t, &l); got != want {
		t.Errorf("after RemoveSavepoint: %d != rebuilt %d (memo not invalidated?)", got, want)
	}
}

func TestParamsSetFastPathAllocs(t *testing.T) {
	p := NewParams()
	raw := []byte{1, 2, 3}
	cases := []struct {
		name  string
		set   func()
		bound float64
	}{
		// One value slice + possible map-bucket churn per Set.
		{"int64", func() { p.Set("k", int64(42)) }, 2},
		{"string", func() { p.Set("k", "hello world") }, 2},
		{"bytes", func() { p.Set("k", raw) }, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.set() // warm the map
			allocs := testing.AllocsPerRun(100, c.set)
			if allocs > c.bound {
				t.Errorf("Set allocs/op = %.1f, want <= %.0f (gob path would be ~10+)", allocs, c.bound)
			}
		})
	}
}

func TestParamsFastPathInterop(t *testing.T) {
	// A gob-encoded value (legacy format) must still decode through Get.
	p := Params{"legacy": wire.MustEncode(int64(7))}
	var n int64
	if err := p.Get("legacy", &n); err != nil || n != 7 {
		t.Errorf("legacy gob param = %d, %v", n, err)
	}
	// int set / int64 get and vice versa share the tagged encoding.
	p.Set("a", 5)
	if err := p.Get("a", &n); err != nil || n != 5 {
		t.Errorf("int->int64 = %d, %v", n, err)
	}
	var i int
	p.Set("b", int64(9))
	if err := p.Get("b", &i); err != nil || i != 9 {
		t.Errorf("int64->int = %d, %v", i, err)
	}
	// A tagged scalar read into an incompatible type errors instead of
	// silently misdecoding.
	var s string
	if err := p.Get("a", &s); err == nil {
		t.Error("int param decoded into string")
	}
	// Non-scalar values still round-trip via gob.
	type blob struct{ X, Y int }
	p.Set("blob", blob{X: 1, Y: 2})
	var bl blob
	if err := p.Get("blob", &bl); err != nil || bl.X != 1 || bl.Y != 2 {
		t.Errorf("struct param = %+v, %v", bl, err)
	}
}

// TestParamsGobRoundTripTagged: tagged params survive the container's gob
// encoding (they are opaque []byte values inside the map).
func TestParamsGobRoundTripTagged(t *testing.T) {
	in := NewParams().Set("amt", int64(-12)).Set("who", "alice").Set("raw", []byte{9, 8})
	data, err := wire.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Params
	if err := wire.Decode(data, &out); err != nil {
		t.Fatal(err)
	}
	var amt int64
	var who string
	var raw []byte
	if err := out.Get("amt", &amt); err != nil || amt != -12 {
		t.Errorf("amt = %d, %v", amt, err)
	}
	if err := out.Get("who", &who); err != nil || who != "alice" {
		t.Errorf("who = %q, %v", who, err)
	}
	if err := out.Get("raw", &raw); err != nil || len(raw) != 2 {
		t.Errorf("raw = %v, %v", raw, err)
	}
}

func TestEncodedSizeGrowsPerEntry(t *testing.T) {
	var l Log
	prev := 0
	for s := 0; s < 16; s++ {
		sampleStep(&l, s)
		sz, err := l.EncodedSize()
		if err != nil {
			t.Fatal(err)
		}
		if sz <= prev {
			t.Fatalf("size %d at step %d did not grow from %d", sz, s, prev)
		}
		prev = sz
	}
}
