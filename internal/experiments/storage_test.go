package experiments

import (
	"path/filepath"
	"testing"

	"repro/internal/stable"
)

// TestApplyBenchBackends smoke-runs the durable-throughput harness for
// both engines and sanity-checks the group-commit and fsync accounting.
func TestApplyBenchBackends(t *testing.T) {
	for _, backend := range []string{"file", "wal"} {
		res, err := RunApplyBench(ApplyBenchConfig{
			Backend:   backend,
			Workers:   2,
			Batches:   24,
			ValueSize: 64,
			Dir:       filepath.Join(t.TempDir(), backend),
		})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if res.BatchesPerS <= 0 {
			t.Errorf("%s: non-positive throughput", backend)
		}
		if res.GroupCommits <= 0 || res.GroupCommits > 24 {
			t.Errorf("%s: group commits = %d", backend, res.GroupCommits)
		}
		if res.Fsyncs <= 0 {
			t.Errorf("%s: no fsyncs counted on the durable path", backend)
		}
	}
}

// TestRecoveryBenchBackends runs the recovery harness small and checks
// the shape of the claim: the checkpointed WAL replays less than the
// checkpoint-less one, and every backend recovers the same live set.
func TestRecoveryBenchBackends(t *testing.T) {
	const history = 512
	results := map[string]RecoveryBenchResult{}
	for _, backend := range []string{"file", "wal", "wal-nockpt"} {
		res, err := RunRecoveryBench(RecoveryBenchConfig{
			Backend: backend,
			History: history,
			Dir:     filepath.Join(t.TempDir(), backend),
		})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if res.LiveKeys != history/4 {
			t.Errorf("%s: live keys = %d, want %d", backend, res.LiveKeys, history/4)
		}
		results[backend] = res
	}
	if results["wal"].BytesReplayed >= results["wal-nockpt"].BytesReplayed {
		t.Errorf("checkpoint did not bound the replay: ckpt %d >= nockpt %d",
			results["wal"].BytesReplayed, results["wal-nockpt"].BytesReplayed)
	}
}

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
