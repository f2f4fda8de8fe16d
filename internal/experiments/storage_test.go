package experiments

import (
	"testing"

	"repro/internal/stable"
)

// TestStoreSpecBackends covers the backend selector used by the cluster
// harnesses: every registered engine resolves to a Spec that opens through
// the unified stable.Open path.
func TestStoreSpecBackends(t *testing.T) {
	if spec, err := StoreSpec("", "", nil); err != nil || spec.Engine != "mem" {
		t.Errorf("empty backend: spec=%+v err=%v (want the mem default)", spec, err)
	}
	dir := t.TempDir()
	for _, backend := range stable.Engines() {
		spec, err := StoreSpec(backend, dir, nil)
		if err != nil {
			t.Fatalf("%s spec: %v", backend, err)
		}
		s, err := stable.Open(spec.ForNode("n0-" + backend))
		if err != nil {
			t.Fatalf("%s store: %v", backend, err)
		}
		if err := s.Apply(); err != nil {
			t.Errorf("%s store unusable: %v", backend, err)
		}
		_ = stable.Close(s)
	}
	if _, err := StoreSpec("papyrus", dir, nil); err == nil {
		t.Error("unknown backend accepted")
	}
}
