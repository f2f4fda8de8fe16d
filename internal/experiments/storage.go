package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/stable"
	"repro/internal/stable/wal" // linked for the engine registration; typed asserts below
)

// StoreSpec builds the cluster storage Spec for one backend of the
// sweep. Durable backends root per-node directories under baseDir (the
// cluster derives them with Spec.ForNode); Sync is left off — the
// simulation convention, matching MemStore semantics — while the `stor`
// experiment measures the Sync-on path explicitly.
func StoreSpec(backend, baseDir string, counters *metrics.Counters) (stable.Spec, error) {
	if backend == "" {
		backend = "mem"
	}
	if !slices.Contains(stable.Engines(), backend) {
		return stable.Spec{}, fmt.Errorf("unknown store backend %q (want one of %v)", backend, stable.Engines())
	}
	return stable.Spec{Engine: backend, Dir: baseDir, Counters: counters}, nil
}

// --- grouped Apply throughput (durable path) --------------------------

// ApplyBenchConfig drives concurrent committers against one store with
// fsync on — the durable group-commit path every step transaction pays.
type ApplyBenchConfig struct {
	Backend   string // "file" or "wal"
	Workers   int    // concurrent Apply callers
	Batches   int    // total batches across all workers
	ValueSize int
	Dir       string
}

// ApplyBenchResult reports one durable-throughput run.
type ApplyBenchResult struct {
	Elapsed      time.Duration
	BatchesPerS  float64
	GroupCommits int64
	Fsyncs       int64
	FsyncMeanMS  float64
}

// RunApplyBench measures grouped Apply throughput with Sync on.
func RunApplyBench(cfg ApplyBenchConfig) (ApplyBenchResult, error) {
	switch cfg.Backend {
	case "file", "wal":
	default:
		return ApplyBenchResult{}, fmt.Errorf("apply bench: unsupported backend %q", cfg.Backend)
	}
	counters := &metrics.Counters{}
	store, err := stable.Open(stable.Spec{Engine: cfg.Backend, Dir: cfg.Dir, Sync: true, Counters: counters})
	if err != nil {
		return ApplyBenchResult{}, err
	}
	defer stable.Close(store)
	grouped, ok := store.(interface{ GroupCommits() int64 })
	if !ok {
		return ApplyBenchResult{}, fmt.Errorf("apply bench: engine %q does not report group commits", cfg.Backend)
	}
	groupCommits := grouped.GroupCommits

	val := make([]byte, cfg.ValueSize)
	perWorker := cfg.Batches / cfg.Workers
	var wg sync.WaitGroup
	errs := make(chan error, cfg.Workers)
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("w%d/k%d", w, i%64)
				if err := store.Apply(stable.Put(key, val), stable.Put(key+"/meta", val[:16])); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return ApplyBenchResult{}, err
	}
	elapsed := time.Since(start)

	snap := counters.Snapshot()
	res := ApplyBenchResult{
		Elapsed:      elapsed,
		BatchesPerS:  float64(cfg.Workers*perWorker) / elapsed.Seconds(),
		GroupCommits: groupCommits(),
		Fsyncs:       snap.Fsyncs,
	}
	if snap.Fsyncs > 0 {
		res.FsyncMeanMS = float64(snap.FsyncNanos) / float64(snap.Fsyncs) / 1e6
	}
	return res, nil
}

// --- recovery time vs history --------------------------------------

// RecoveryBenchConfig writes a batch history (churning over a growing
// live key set), "crashes" (abandons the store), and measures how long a
// fresh incarnation takes to become useful again: engine recovery (open:
// journal/checkpoint load + log replay) plus the §4.3-style full scan of
// the live keys (the input-queue replay reads every queued container).
type RecoveryBenchConfig struct {
	Backend   string // "file", "wal", "wal-nockpt"
	History   int    // total batches written before the crash
	ValueSize int
	Dir       string
}

// RecoveryBenchResult reports one recovery measurement.
type RecoveryBenchResult struct {
	LiveKeys      int
	OpenMS        float64 // engine recovery: open + replay to ready
	ScanMS        float64 // list + read every live key (queue replay)
	BytesReplayed int64   // wal: log bytes scanned during open
}

func (cfg RecoveryBenchConfig) open(dir string) (stable.Store, error) {
	switch cfg.Backend {
	case "file":
		return stable.Open(stable.Spec{Engine: "file", Dir: dir})
	case "wal":
		return stable.Open(stable.Spec{Engine: "wal", Dir: dir,
			WAL: stable.WALSpec{CheckpointEvery: 256 << 10, NoBackground: true}})
	case "wal-nockpt":
		return stable.Open(stable.Spec{Engine: "wal", Dir: dir,
			WAL: stable.WALSpec{CheckpointEvery: -1, NoBackground: true}})
	default:
		return nil, fmt.Errorf("recovery bench: unsupported backend %q", cfg.Backend)
	}
}

// RunRecoveryBench builds the history and measures recovery.
func RunRecoveryBench(cfg RecoveryBenchConfig) (RecoveryBenchResult, error) {
	if cfg.ValueSize == 0 {
		cfg.ValueSize = 256
	}
	s, err := cfg.open(cfg.Dir)
	if err != nil {
		return RecoveryBenchResult{}, err
	}
	// The live set grows with history (completed-agent records, queue
	// entries): 1 new key every 4 batches, the rest churn existing keys.
	liveKeys := cfg.History / 4
	if liveKeys == 0 {
		liveKeys = 1
	}
	val := make([]byte, cfg.ValueSize)
	for i := 0; i < cfg.History; i++ {
		key := fmt.Sprintf("q/e/%010d", i%liveKeys)
		if err := s.Apply(stable.Put(key, val)); err != nil {
			return RecoveryBenchResult{}, err
		}
	}
	// For the checkpointing wal backend the final checkpoint is driven
	// explicitly (NoBackground keeps the write phase deterministic),
	// followed by a fixed-size tail — the "data written since the last
	// checkpoint" that bounds the replay regardless of total history.
	if w, ok := s.(*wal.Store); ok && cfg.Backend == "wal" {
		if err := w.Checkpoint(); err != nil {
			return RecoveryBenchResult{}, err
		}
		const tailBatches = 256
		for i := 0; i < tailBatches; i++ {
			key := fmt.Sprintf("q/e/%010d", i%liveKeys)
			if err := s.Apply(stable.Put(key, val)); err != nil {
				return RecoveryBenchResult{}, err
			}
		}
	}
	// Crash: abandon the instance without shutdown (handles leak until
	// process exit, exactly like a kill -9's).

	start := time.Now()
	r, err := cfg.open(cfg.Dir)
	if err != nil {
		return RecoveryBenchResult{}, err
	}
	openD := time.Since(start)

	scanStart := time.Now()
	keys, err := r.Keys("q/e/")
	if err != nil {
		return RecoveryBenchResult{}, err
	}
	for _, k := range keys {
		if _, ok, err := r.Get(k); err != nil || !ok {
			return RecoveryBenchResult{}, fmt.Errorf("recovery bench: lost key %q: %v", k, err)
		}
	}
	scanD := time.Since(scanStart)

	res := RecoveryBenchResult{
		LiveKeys: len(keys),
		OpenMS:   float64(openD.Microseconds()) / 1000,
		ScanMS:   float64(scanD.Microseconds()) / 1000,
	}
	if w, ok := r.(*wal.Store); ok {
		res.BytesReplayed = w.Recovery().BytesReplayed
	}
	_ = stable.Close(r)
	_ = stable.Close(s)
	return res, nil
}

// Storage is the `stor` experiment: the pluggable-engine comparison.
// Part 1 measures the durable (fsync-on) grouped Apply path — the cost
// every step-transaction commit pays — for the file engine vs the WAL
// engine. Part 2 measures time-to-recover after a crash as the total
// history grows: the WAL's checkpoint bounds its replay (roughly flat),
// while scanning a per-key-file store grows linearly with the live set,
// and a WAL without checkpoints grows linearly with the whole history.
func Storage() (*Table, error) {
	t := &Table{
		Title: "STOR: stable-storage engines — durable Apply throughput and crash-recovery time",
		Note: "apply: 4 committers, 512 B values, fsync on; recovery: history of 1-op batches, live set = history/4,\n" +
			"wal checkpoint interval 256 KiB; open = engine recovery, scan = read back every live key (§4.3 queue replay)",
		Header: []string{"backend", "phase", "history", "live keys", "batches/s",
			"commits", "fsyncs", "fsync ms", "open ms", "scan ms", "replayed KiB"},
	}

	tmp, err := os.MkdirTemp("", "stor")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	for _, backend := range []string{"file", "wal"} {
		res, err := RunApplyBench(ApplyBenchConfig{
			Backend:   backend,
			Workers:   4,
			Batches:   400,
			ValueSize: 512,
			Dir:       filepath.Join(tmp, "apply-"+backend),
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(backend, "apply", "-", "-", res.BatchesPerS,
			res.GroupCommits, res.Fsyncs, fmt.Sprintf("%.3f", res.FsyncMeanMS),
			"-", "-", "-")
	}

	for _, backend := range []string{"file", "wal", "wal-nockpt"} {
		for _, history := range []int{1024, 4096, 16384} {
			res, err := RunRecoveryBench(RecoveryBenchConfig{
				Backend: backend,
				History: history,
				Dir:     filepath.Join(tmp, fmt.Sprintf("rec-%s-%d", backend, history)),
			})
			if err != nil {
				return nil, err
			}
			t.AddRow(backend, "recovery", history, res.LiveKeys, "-", "-", "-", "-",
				fmt.Sprintf("%.2f", res.OpenMS), fmt.Sprintf("%.2f", res.ScanMS),
				res.BytesReplayed>>10)
		}
	}
	return t, nil
}
