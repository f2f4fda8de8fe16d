package chaos_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/stable"
)

// The chaos sweep is driven by flags so CI can fan it out over seed
// ranges × store engines × worker counts, and so any failing seed is
// replayed with one command:
//
//	go test ./internal/chaos -run 'TestChaos$' -chaos-seed=<N> \
//	    -chaos-store=<engine> -chaos-workers=<W>
var (
	chaosSeeds   = flag.Int("chaos-seeds", 3, "number of consecutive seeds to sweep")
	chaosSeed    = flag.Int64("chaos-seed", -1, "replay exactly this seed (prints its schedule)")
	chaosBase    = flag.Int64("chaos-base-seed", 1, "first seed of the sweep")
	chaosStore   = flag.String("chaos-store", "mem", fmt.Sprintf("stable engine per node, one of %v", stable.Engines()))
	chaosWorkers = flag.Int("chaos-workers", 1, "scheduler workers per node")
	chaosChurn   = flag.Int("chaos-churn", 0, "membership churn draws per seed (joins + leaves; 0 disables)")
	chaosRepl    = flag.Int("chaos-repl", 0, "follower replicas per shard (0 disables replication)")
	chaosAcks    = flag.String("chaos-repl-acks", "quorum", "replication ack mode: quorum|async")
	chaosKill    = flag.Int("chaos-kill", 0, "permanent-kill draws per seed (requires -chaos-repl with quorum acks)")
)

func chaosOptions(seed int64) chaos.Options {
	return chaos.Options{
		Seed:     seed,
		Store:    *chaosStore,
		Workers:  *chaosWorkers,
		Churn:    *chaosChurn,
		Repl:     *chaosRepl,
		ReplAcks: *chaosAcks,
		Kills:    *chaosKill,
	}
}

// runSeed executes one seed and fails the test on any invariant
// violation, printing the exact schedule and the one-line repro command.
func runSeed(t *testing.T, seed int64, verbose bool) {
	t.Helper()
	res, err := chaos.Run(chaosOptions(seed))
	if err != nil {
		t.Fatalf("seed %d: harness error: %v", seed, err)
	}
	if verbose {
		t.Logf("\n%s", res.Schedule.String())
	}
	t.Logf("%s", res.Summary())
	if !res.Failed() {
		return
	}
	report := fmt.Sprintf("chaos seed %d (store=%s workers=%d) violated %d invariant(s):\n",
		seed, *chaosStore, *chaosWorkers, len(res.Violations))
	for _, v := range res.Violations {
		report += "  " + v.String() + "\n"
	}
	report += "\n" + res.Schedule.String()
	repro := fmt.Sprintf("go test ./internal/chaos -run 'TestChaos$' -chaos-seed=%d -chaos-store=%s -chaos-workers=%d",
		seed, *chaosStore, *chaosWorkers)
	if *chaosRepl > 0 {
		repro += fmt.Sprintf(" -chaos-repl=%d -chaos-repl-acks=%s -chaos-kill=%d", *chaosRepl, *chaosAcks, *chaosKill)
	}
	report += fmt.Sprintf("\nreproduce with:\n  %s\n", repro)
	writeArtifact(t, seed, report)
	t.Errorf("%s", report)
}

// writeArtifact saves the failure report where CI uploads artifacts from
// (CHAOS_ARTIFACT_DIR), so failing seeds + schedules outlive the job log.
func writeArtifact(t *testing.T, seed int64, report string) {
	t.Helper()
	dir := os.Getenv("CHAOS_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("chaos artifact dir: %v", err)
		return
	}
	name := filepath.Join(dir, fmt.Sprintf("seed-%d-%s-w%d.txt", seed, *chaosStore, *chaosWorkers))
	if err := os.WriteFile(name, []byte(report), 0o644); err != nil {
		t.Logf("chaos artifact write: %v", err)
	}
}

// TestChaos sweeps -chaos-seeds consecutive seeds (or replays the one
// seed given with -chaos-seed) on the engine × worker combination from
// the flags, checking every global invariant per seed.
func TestChaos(t *testing.T) {
	if *chaosSeed >= 0 {
		runSeed(t, *chaosSeed, true)
		return
	}
	n := *chaosSeeds
	if testing.Short() && n > 2 {
		n = 2
	}
	for seed := *chaosBase; seed < *chaosBase+int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runSeed(t, seed, false)
		})
	}
}

// TestChaosScheduleDeterministic: the same seed must expand to the same
// schedule, byte for byte — the replay contract.
func TestChaosScheduleDeterministic(t *testing.T) {
	cfg := chaos.GenConfig{Nodes: []string{"w0", "w1", "w2"}}
	a := chaos.Generate(77, cfg)
	b := chaos.Generate(77, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed expanded differently:\n%s\nvs\n%s", a.String(), b.String())
	}
	if len(a.Events) == 0 {
		t.Fatal("seed 77 generated an empty schedule")
	}
	if a.String() != b.String() {
		t.Error("schedule rendering diverged")
	}
	c := chaos.Generate(78, cfg)
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Error("different seeds produced identical schedules")
	}
	// Every opening event has its closing event.
	open := map[string]int{}
	for _, e := range a.Events {
		switch e.Op {
		case chaos.OpCrash:
			open["c"+e.Node]++
		case chaos.OpRecover:
			open["c"+e.Node]--
		case chaos.OpPartition:
			open["p"+e.A+e.B]++
		case chaos.OpHeal:
			open["p"+e.A+e.B]--
		case chaos.OpFaults:
			open["f"+e.A+e.B]++
		case chaos.OpClearFaults:
			open["f"+e.A+e.B]--
		}
	}
	for k, n := range open {
		if n != 0 {
			t.Errorf("unbalanced window %q: %d", k, n)
		}
	}
}

// TestChaosDetectsInjectedViolation: a deliberately skipped compensation
// must surface as a conservation violation, the run must produce a
// causal per-agent post-mortem (written to CHAOS_ARTIFACT_DIR), and the
// failing seed must reproduce the identical schedule and verdict — the
// property the CI repro command relies on.
func TestChaosDetectsInjectedViolation(t *testing.T) {
	artifacts := t.TempDir()
	t.Setenv("CHAOS_ARTIFACT_DIR", artifacts)
	opts := chaos.Options{
		Seed:             9,
		Agents:           4,
		Steps:            3,
		RollbackRatio:    1.0, // every agent rolls back, so every deposit must be compensated
		SkipCompensation: true,
		Gen:              chaos.GenConfig{Faults: 2, Horizon: 300 * time.Millisecond},
		Timeout:          time.Minute,
	}
	first, err := chaos.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Failed() {
		t.Fatal("skipped compensation went undetected")
	}
	found := false
	for _, v := range first.Violations {
		if v.Invariant == "conservation" {
			found = true
		}
	}
	if !found {
		t.Errorf("no conservation violation among %v", first.Violations)
	}

	// The violated run must carry a causal post-mortem naming, for each
	// implicated agent, its last transaction and last protocol state
	// edge, and the same text must land as a timeline artifact.
	if first.PostMortem == "" {
		t.Fatal("violated run produced no post-mortem")
	}
	// Transaction IDs are "<node>#<seq>", so "last txn w" pins an
	// actual offending txn ID, not just the label.
	for _, want := range []string{"agent chaos0000", "last txn w", "#", "last edge", "→"} {
		if !strings.Contains(first.PostMortem, want) {
			t.Errorf("post-mortem missing %q:\n%s", want, first.PostMortem)
		}
	}
	data, err := os.ReadFile(filepath.Join(artifacts, "seed-9-mem-w1-timeline.txt"))
	if err != nil {
		t.Fatalf("timeline artifact not written: %v", err)
	}
	if string(data) != first.PostMortem {
		t.Error("timeline artifact differs from Result.PostMortem")
	}

	second, err := chaos.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Schedule, second.Schedule) {
		t.Errorf("replay expanded a different schedule:\n%s\nvs\n%s",
			first.Schedule.String(), second.Schedule.String())
	}
	if !second.Failed() {
		t.Error("replay of the failing seed did not reproduce the violation")
	}
}

// TestChaosChurn runs seeds whose schedules include membership churn:
// nodes join (and some drain back out) while crashes, partitions and
// message faults fire, so live agents migrate under fire. Conservation
// and exactly-once must hold across the migrations.
func TestChaosChurn(t *testing.T) {
	for _, seed := range []int64{11, 12} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			res, err := chaos.Run(chaos.Options{
				Seed:    seed,
				Churn:   2,
				Agents:  10,
				Steps:   4,
				Gen:     chaos.GenConfig{Faults: 4, Horizon: 900 * time.Millisecond},
				Timeout: time.Minute,
			})
			if err != nil {
				t.Fatalf("harness error: %v", err)
			}
			joins := 0
			for _, e := range res.Schedule.Events {
				if e.Op == chaos.OpJoin {
					joins++
				}
			}
			if joins == 0 {
				t.Fatalf("churn run drew no joins:\n%s", res.Schedule.String())
			}
			t.Logf("%s migrations=%d aborts=%d refusals=%d",
				res.Summary(), res.Metrics.Migrations, res.Metrics.MigrationAborts, res.Metrics.AdoptionRefusals)
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
			if t.Failed() {
				t.Logf("\n%s", res.Schedule.String())
			}
		})
	}
}

// TestChaosKillPermanent runs seeds whose schedules include permanent
// kills — machine death with the disk — on a replicated cluster with
// quorum acks. The killed node's agents must complete on the promoted
// replica with zero lost or duplicated steps; the executor restores the
// replication factor between kills, so a seed may kill several machines.
func TestChaosKillPermanent(t *testing.T) {
	for _, tc := range []struct {
		store string
		seed  int64
	}{
		{"mem", 21}, {"wal", 22},
	} {
		tc := tc
		t.Run(fmt.Sprintf("%s/seed=%d", tc.store, tc.seed), func(t *testing.T) {
			res, err := chaos.Run(chaos.Options{
				Seed:    tc.seed,
				Store:   tc.store,
				Repl:    2,
				Kills:   2,
				Agents:  10,
				Steps:   4,
				Gen:     chaos.GenConfig{Faults: 4, Horizon: 900 * time.Millisecond},
				Timeout: time.Minute,
			})
			if err != nil {
				t.Fatalf("harness error: %v", err)
			}
			kills := 0
			for _, e := range res.Schedule.Events {
				if e.Op == chaos.OpKillPermanent {
					kills++
				}
			}
			if kills == 0 {
				t.Fatalf("kill run drew no kills:\n%s", res.Schedule.String())
			}
			t.Logf("%s", res.Summary())
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
			if t.Failed() {
				t.Logf("\n%s", res.Schedule.String())
			}
		})
	}
}

// TestChaosKillRequiresQuorum: the harness must refuse the combinations
// a permanent kill genuinely cannot survive, instead of reporting the
// resulting data loss as a protocol violation.
func TestChaosKillRequiresQuorum(t *testing.T) {
	if _, err := chaos.Run(chaos.Options{Seed: 1, Kills: 1, Repl: 2, ReplAcks: "async"}); err == nil {
		t.Error("async acks + permanent kills was not rejected")
	}
	if _, err := chaos.Run(chaos.Options{Seed: 1, Kills: 1}); err == nil {
		t.Error("permanent kills without replication was not rejected")
	}
	if _, err := chaos.Run(chaos.Options{Seed: 1, Kills: 1, Repl: 2, Churn: 1}); err == nil {
		t.Error("permanent kills + churn was not rejected")
	}
}

// TestChaosDurableEngines runs one seed per durable engine so the store
// reopen path (real crash recovery of a durable Options.Store) is
// exercised even without the CI matrix.
func TestChaosDurableEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("durable chaos runs")
	}
	for _, store := range []string{"file", "wal"} {
		store := store
		t.Run(store, func(t *testing.T) {
			res, err := chaos.Run(chaos.Options{
				Seed:   3,
				Store:  store,
				Agents: 8,
				Steps:  4,
				Gen:    chaos.GenConfig{Faults: 4, Horizon: 800 * time.Millisecond},
			})
			if err != nil {
				t.Fatalf("harness error: %v", err)
			}
			t.Logf("%s", res.Summary())
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
		})
	}
}
