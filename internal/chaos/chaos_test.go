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
)

func chaosOptions(seed int64) chaos.Options {
	return chaos.Options{
		Seed:    seed,
		Store:   stable.Spec{Engine: *chaosStore},
		Workers: *chaosWorkers,
		Churn:   *chaosChurn,
	}
}

// reproLine is the one command that replays seed: TestChaos with every
// -chaos-* flag this run was given, so the replay draws the same schedule.
func reproLine(seed int64) string {
	line := fmt.Sprintf("go test ./internal/chaos -run 'TestChaos$' -chaos-seed=%d", seed)
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "chaos-seed", "chaos-seeds", "chaos-base-seed":
		default:
			if strings.HasPrefix(f.Name, "chaos-") {
				line += fmt.Sprintf(" -%s=%s", f.Name, f.Value)
			}
		}
	})
	return line
}

// runSeed executes one seed and fails the test on any invariant
// violation, printing the exact schedule and the one-line repro command.
func runSeed(t *testing.T, seed int64, verbose bool) {
	t.Helper()
	opts := chaosOptions(seed)
	res, err := chaos.Run(opts)
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
	report += fmt.Sprintf("\nreproduce with:\n  %s\n", reproLine(seed))
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

// TestChaosReproLine: a failing seed's repro line names every -chaos-*
// flag the sweep was given. Without -chaos-churn, a churn cell's replay
// would draw no joins or leaves and turn rollbacks back on.
func TestChaosReproLine(t *testing.T) {
	old := flag.Lookup("chaos-churn").Value.String()
	if err := flag.Set("chaos-churn", "2"); err != nil {
		t.Fatal(err)
	}
	defer flag.Set("chaos-churn", old)
	line := reproLine(7)
	for _, want := range []string{"-run 'TestChaos$'", " -chaos-seed=7", " -chaos-churn=2"} {
		if !strings.Contains(line, want) {
			t.Errorf("repro line %q lacks %q", line, want)
		}
	}
	if strings.Contains(line, "-chaos-seeds") || strings.Contains(line, "-chaos-base-seed") {
		t.Errorf("repro line %q names a sweep flag", line)
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

// TestChaosKillPermanent runs the seeds that once drew permanent machine
// kills over replicated stores. A node that loses its disk is outside
// §4.3's model, so the seeds now draw only the faults the paper allows:
// every node that crashes is recovered on its own store, and the run
// must hold every invariant on both engines. Seed 22 draws only message
// faults; seed 21 crashes a node.
func TestChaosKillPermanent(t *testing.T) {
	crashes := 0
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
				Store:   stable.Spec{Engine: tc.store},
				Agents:  10,
				Steps:   4,
				Gen:     chaos.GenConfig{Faults: 4, Horizon: 900 * time.Millisecond},
				Timeout: time.Minute,
			})
			if err != nil {
				t.Fatalf("harness error: %v", err)
			}
			down := map[string]int{}
			for _, e := range res.Schedule.Events {
				switch e.Op {
				case chaos.OpCrash:
					crashes++
					down[e.Node]++
				case chaos.OpRecover:
					down[e.Node]--
				}
			}
			for n, d := range down {
				if d != 0 {
					t.Errorf("node %s: %d crash(es) without a recover", n, d)
				}
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
	if crashes == 0 {
		t.Error("neither seed drew a crash")
	}
}

// TestChaosKillRequiresQuorum: a permanent kill was only survivable over
// quorum-replicated stores, and both are gone. A replay line that still
// asks for them must fail on the unknown flag rather than quietly run a
// sweep without kills or replicas.
func TestChaosKillRequiresQuorum(t *testing.T) {
	for _, name := range []string{"chaos-kill", "chaos-repl", "chaos-repl-acks"} {
		if flag.Lookup(name) != nil {
			t.Errorf("-%s is still defined", name)
		}
	}
}

// TestChaosDurableEngines runs one seed on the durable engine so the store
// reopen path (real crash recovery of a durable Options.Store) is
// exercised even without the CI matrix.
func TestChaosDurableEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("durable chaos runs")
	}
	t.Run("wal", func(t *testing.T) {
		res, err := chaos.Run(chaos.Options{
			Seed:   3,
			Store:  stable.Spec{Engine: "wal"},
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
