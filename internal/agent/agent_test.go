package agent

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/itinerary"
	"repro/internal/wire"
)

func testItinerary(t *testing.T) *itinerary.Itinerary {
	t.Helper()
	it, err := itinerary.New(&itinerary.Sub{ID: "s", Entries: []itinerary.Entry{
		itinerary.Step{Method: "m1", Loc: "n1"},
		itinerary.Step{Method: "m2", Loc: "n2"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return it
}

func TestSpaceSetGet(t *testing.T) {
	s := NewSpace()
	if err := s.Set("n", int64(42)); err != nil {
		t.Fatal(err)
	}
	var n int64
	ok, err := s.Get("n", &n)
	if err != nil || !ok || n != 42 {
		t.Errorf("Get = %d, %v, %v", n, ok, err)
	}
	if ok, err := s.Get("missing", &n); err != nil || ok {
		t.Errorf("missing key: %v, %v", ok, err)
	}
	if err := s.MustGet("missing", &n); err == nil {
		t.Error("MustGet on missing key succeeded")
	}
	if has, _ := s.Has("n"); !has {
		t.Error("Has(n) = false")
	}
	if err := s.Delete("n"); err != nil {
		t.Fatal(err)
	}
	if has, _ := s.Has("n"); has {
		t.Error("key survived Delete")
	}
}

func TestSpaceKeysSorted(t *testing.T) {
	s := NewSpace()
	for _, k := range []string{"c", "a", "b"} {
		if err := s.Set(k, k); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := s.Keys()
	if err != nil || !reflect.DeepEqual(keys, []string{"a", "b", "c"}) {
		t.Errorf("Keys = %v, %v", keys, err)
	}
}

func TestSpaceSnapshotRestoreDeepCopy(t *testing.T) {
	s := NewSpace()
	if err := s.Set("k", "original"); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if err := s.Set("k", "changed"); err != nil {
		t.Fatal(err)
	}
	// Snapshot unaffected by later writes.
	s2 := NewSpace()
	s2.Restore(snap)
	var v string
	if err := s2.MustGet("k", &v); err != nil || v != "original" {
		t.Errorf("restored = %q, %v", v, err)
	}
	// Mutating the snapshot after Restore must not affect the space.
	snap["k"][0] = 'X'
	if err := s2.MustGet("k", &v); err != nil || v != "original" {
		t.Errorf("restore aliases snapshot: %q", v)
	}
}

func TestSpaceFreeze(t *testing.T) {
	s := NewSpace()
	if err := s.Set("k", 1); err != nil {
		t.Fatal(err)
	}
	s.Freeze(true)
	var n int
	if _, err := s.Get("k", &n); !errors.Is(err, ErrFrozen) {
		t.Errorf("Get while frozen: %v, want ErrFrozen", err)
	}
	if err := s.Set("k", 2); !errors.Is(err, ErrFrozen) {
		t.Errorf("Set while frozen: %v, want ErrFrozen", err)
	}
	if err := s.Delete("k"); !errors.Is(err, ErrFrozen) {
		t.Errorf("Delete while frozen: %v, want ErrFrozen", err)
	}
	if _, err := s.Keys(); !errors.Is(err, ErrFrozen) {
		t.Errorf("Keys while frozen: %v, want ErrFrozen", err)
	}
	// Snapshot is a system operation and still works.
	if snap := s.Snapshot(); len(snap) != 1 {
		t.Error("Snapshot blocked by freeze")
	}
	s.Freeze(false)
	if _, err := s.Get("k", &n); err != nil {
		t.Errorf("Get after unfreeze: %v", err)
	}
}

func TestAgentNew(t *testing.T) {
	a, entered, err := New("a1", "owner", testItinerary(t))
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != "a1" || a.Owner != "owner" {
		t.Errorf("agent = %+v", a)
	}
	if !reflect.DeepEqual(entered, []string{"s"}) {
		t.Errorf("entered = %v", entered)
	}
	if _, _, err := New("", "o", testItinerary(t)); err == nil {
		t.Error("empty ID accepted")
	}
}

func TestSystemImageRoundTrip(t *testing.T) {
	a, _, err := New("a1", "o", testItinerary(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SRO.Set("user", "data"); err != nil {
		t.Fatal(err)
	}
	a.StepSeq = 7
	img, err := a.SystemImage()
	if err != nil {
		t.Fatal(err)
	}

	// Diverge, then restore.
	if err := a.SRO.Set("user", "changed"); err != nil {
		t.Fatal(err)
	}
	if err := a.SRO.Set("extra", 1); err != nil {
		t.Fatal(err)
	}
	a.StepSeq = 99
	a.Cursor = itinerary.Cursor{Done: true}

	if err := a.RestoreSystemImage(img); err != nil {
		t.Fatal(err)
	}
	var v string
	if err := a.SRO.MustGet("user", &v); err != nil || v != "data" {
		t.Errorf("user = %q, %v", v, err)
	}
	if has, _ := a.SRO.Has("extra"); has {
		t.Error("extra key survived restore")
	}
	if a.StepSeq != 7 {
		t.Errorf("StepSeq = %d, want 7", a.StepSeq)
	}
	if a.Cursor.Done {
		t.Error("cursor not restored")
	}
	step, err := a.Itin.StepAt(a.Cursor)
	if err != nil || step.Method != "m1" {
		t.Errorf("restored cursor at %+v, %v", step, err)
	}
}

func TestSystemImageWithWRO(t *testing.T) {
	a, _, err := New("a1", "o", testItinerary(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WRO.Set("cash", 500); err != nil {
		t.Fatal(err)
	}
	img, err := a.SystemImageWithWRO()
	if err != nil {
		t.Fatal(err)
	}
	// Change the WRO, then restore the saga-style image: the WRO is
	// (wrongly, per §4.1 — this mode exists for the baseline) reset.
	if err := a.WRO.Set("cash", 1); err != nil {
		t.Fatal(err)
	}
	if err := a.RestoreSystemImage(img); err != nil {
		t.Fatal(err)
	}
	var cash int
	if err := a.WRO.MustGet("cash", &cash); err != nil || cash != 500 {
		t.Errorf("cash = %d, %v; want 500 (image restored)", cash, err)
	}

	// A plain SystemImage must NOT touch the WRO on restore.
	img2, err := a.SystemImage()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WRO.Set("cash", 7); err != nil {
		t.Fatal(err)
	}
	if err := a.RestoreSystemImage(img2); err != nil {
		t.Fatal(err)
	}
	if err := a.WRO.MustGet("cash", &cash); err != nil || cash != 7 {
		t.Errorf("cash = %d, %v; want 7 (WRO untouched by normal restore)", cash, err)
	}
}

func TestSystemImageRejectsReservedKeys(t *testing.T) {
	a, _, err := New("a1", "o", testItinerary(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SRO.Set("__sys/evil", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SystemImage(); err == nil {
		t.Error("reserved key accepted in SRO")
	}
}

func TestRestoreSystemImageRejectsPlainImage(t *testing.T) {
	a, _, err := New("a1", "o", testItinerary(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.RestoreSystemImage(map[string][]byte{"k": []byte("v")}); err == nil {
		t.Error("image without system state accepted")
	}
}

func TestAgentEncodeDecode(t *testing.T) {
	a, _, err := New("a1", "owner", testItinerary(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SRO.Set("s", "sro"); err != nil {
		t.Fatal(err)
	}
	if err := a.WRO.Set("w", "wro"); err != nil {
		t.Fatal(err)
	}
	a.StepSeq = 3
	// Scalars are stored under the value codec's tags, not as gob.
	if raw := a.WRO.Data["w"]; len(raw) == 0 || raw[0] != wire.TagString {
		t.Errorf("string stored as % x, want a tagged scalar", raw)
	}
	data, _, err := a.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(data)
	got := Read(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if got.ID != "a1" || got.StepSeq != 3 {
		t.Errorf("decoded = %+v", got)
	}
	var v string
	if err := got.SRO.MustGet("s", &v); err != nil || v != "sro" {
		t.Errorf("SRO lost: %q, %v", v, err)
	}
	if err := got.WRO.MustGet("w", &v); err != nil || v != "wro" {
		t.Errorf("WRO lost: %q, %v", v, err)
	}
	step, err := got.Itin.StepAt(got.Cursor)
	if err != nil || step.Method != "m1" {
		t.Errorf("itinerary lost: %+v, %v", step, err)
	}
}

func TestRegistryDuplicates(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterStep("s", func(StepContext) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterStep("s", func(StepContext) error { return nil }); err == nil {
		t.Error("duplicate step accepted")
	}
	if err := r.RegisterComp("c", func(CompContext) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterComp("c", func(CompContext) error { return nil }); err == nil {
		t.Error("duplicate comp accepted")
	}
	if _, ok := r.Step("s"); !ok {
		t.Error("registered step not found")
	}
	if _, ok := r.Comp("missing"); ok {
		t.Error("unregistered comp found")
	}
}

func TestRollbackRequestError(t *testing.T) {
	err := error(&RollbackRequest{SpID: "sp1"})
	var rr *RollbackRequest
	if !errors.As(err, &rr) || rr.SpID != "sp1" {
		t.Errorf("errors.As failed: %v", err)
	}
}

func TestRegistryStepHints(t *testing.T) {
	r := NewRegistry()
	if r.HasHints() {
		t.Error("empty registry claims hints")
	}
	if err := r.RegisterStepHints("nope", StaticHint("bank")); err == nil {
		t.Error("hint for unregistered step accepted")
	}
	if err := r.RegisterStep("s", func(StepContext) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterStepHints("s", StaticHint("bank", "shop")); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterStepHints("s", StaticHint("bank")); err == nil {
		t.Error("duplicate hint accepted")
	}
	if !r.HasHints() {
		t.Error("HasHints false after registration")
	}
	h, ok := r.StepHintFor("s")
	if !ok {
		t.Fatal("hint not resolvable")
	}
	keys := h(nil, itinerary.Step{})
	if len(keys) != 2 || keys[0] != "bank" || keys[1] != "shop" {
		t.Errorf("hint keys = %v", keys)
	}
	if _, ok := r.StepHintFor("other"); ok {
		t.Error("hint resolved for unknown method")
	}
}
