// Command loadgen drives one open-loop burst of load against a simulated
// cluster — K agents over M nodes with a configurable conflict ratio — and
// prints a summary of the run. It is the driver for the cluster smokes
// (mid-run join, replication, storage engines, chaos) and for profiles and
// traces; timing numbers come from `go run ./bench`, not from here.
//
// Usage:
//
//	loadgen                                  # defaults: 64 agents, 4 nodes, 1 worker
//	loadgen -workers 8                       # 8 scheduler workers per node
//	loadgen -workers 8 -conflict 0.5         # half the agents pinned to one bank
//	loadgen -store wal                       # nodes on the log-structured WAL engine
//	loadgen -ring                            # consistent-hash placement (@ring steps)
//	loadgen -join -workers 4                 # boot a 5th node mid-run; live agents migrate to it
//	loadgen -repl 2                          # replicate every shard to 2 followers (quorum acks)
//	loadgen -repl 2 -repl-acks async         # replicate asynchronously (primary-only durability)
//	loadgen -profile shard-saturate          # two runs, 1x and 10x in-flight agents
//	loadgen -trace t.json -cpuprofile p      # causal trace (chrome://tracing) and pprof CPU profile
//	loadgen -chaos -chaos-seeds 20           # chaos sweep: 20 seeded fault schedules
//	loadgen -chaos -chaos-seed 7 -store wal  # replay one failing seed, print its schedule
//	loadgen -chaos -repl 2 -chaos-kill 2     # chaos with permanent machine kills + failover
//	loadgen -chaos -json chaos.json          # also write the per-seed chaos reports as JSON
//
// The per-step service time (-stepwork) is spent inside the step
// transaction with the bank lock held; it is what makes the workload
// wait-dominated, so throughput scales with -workers until conflicts
// serialize it.
//
// With -chaos the tool runs the deterministic fault-injection harness
// (internal/chaos) instead of the plain load: each seed expands into a
// schedule of node crashes, partitions, message drop/duplicate/reorder
// faults and latency spikes, executed against the workload while the
// §4.3 invariants are checked. A failing CI seed is replayed exactly with
// `-chaos -chaos-seed=N -store=<engine> -workers=<W>`; the exact schedule
// is printed and the exit status reflects the verdict. The chaos workload
// is the harness's own: a plain-load flag under -chaos, or a -chaos-*
// flag or -json without it, is an error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/experiments"
	"repro/internal/stable"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	nodes := fs.Int("nodes", 4, "number of cluster nodes")
	workers := fs.Int("workers", 1, "scheduler workers per node")
	agents := fs.Int("agents", 64, "number of agents to launch")
	steps := fs.Int("steps", 8, "steps per agent (round-robin over nodes)")
	banks := fs.Int("banks", 8, "bank resources per node")
	conflict := fs.Float64("conflict", 0, "fraction of agents pinned to one bank [0,1]")
	stepwork := fs.Duration("stepwork", 8*time.Millisecond, "per-step service time inside the transaction")
	latency := fs.Duration("latency", 200*time.Microsecond, "one-way network latency")
	optimized := fs.Bool("optimized", false, "use the Figure-5 optimized rollback algorithm")
	sflags := stable.BindFlags(fs, stable.Spec{Engine: "mem"})
	profileName := fs.String("profile", "", `named load profile: "shard-saturate" saturates GOMAXPROCS across the shards and runs 1x then 10x in-flight agents (p99 should stay flat)`)
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile covering the whole run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile at the end of the run to this file")
	tracePath := fs.String("trace", "", "write the final run's causal trace as Chrome trace_event JSON (open in chrome://tracing or Perfetto)")
	ring := fs.Bool("ring", false, "place steps by consistent hash (membership layer on) instead of static round-robin wiring")
	joinMid := fs.Bool("join", false, "boot one extra node mid-run and let the rebalancer migrate its ring share of live agents over (implies -ring)")
	chaosMode := fs.Bool("chaos", false, "run the seeded fault-injection harness instead of the plain load")
	chaosSeed := fs.Int64("chaos-seed", -1, "chaos: replay exactly this seed (prints the schedule)")
	chaosSeeds := fs.Int("chaos-seeds", 5, "chaos: number of consecutive seeds to sweep")
	chaosBase := fs.Int64("chaos-base-seed", 1, "chaos: first seed of the sweep")
	chaosKill := fs.Int("chaos-kill", 0, "chaos: permanent machine kills per schedule (requires -repl with quorum acks)")
	jsonPath := fs.String("json", "", "chaos: write the per-seed reports as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// -chaos runs the harness's own workload: a flag only the other mode
	// reads is an error, not silently dropped.
	plainOnly := map[string]bool{
		"agents": true, "steps": true, "banks": true, "conflict": true, "stepwork": true, "latency": true,
		"optimized": true, "profile": true, "trace": true, "ring": true, "join": true,
	}
	var modeErr error
	fs.Visit(func(f *flag.Flag) {
		switch {
		case modeErr != nil:
		case *chaosMode && plainOnly[f.Name]:
			modeErr = fmt.Errorf("-%s is a plain-load flag: the -chaos workload would ignore it", f.Name)
		case !*chaosMode && (f.Name == "json" || strings.HasPrefix(f.Name, "chaos-")):
			modeErr = fmt.Errorf("-%s requires -chaos", f.Name)
		}
	})
	if modeErr != nil {
		return modeErr
	}

	spec, err := sflags.Spec()
	if err != nil {
		return err
	}
	replAcks := ""
	if spec.Repl.Enabled() {
		switch spec.Repl.Acks {
		case 1:
			replAcks = "async"
		case stable.AcksQuorum:
			replAcks = "quorum"
		default:
			return fmt.Errorf("loadgen supports -repl-acks async or quorum (got %d explicit copies)", spec.Repl.Acks)
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "loadgen: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "loadgen: -memprofile:", err)
			}
		}()
	}

	if *chaosMode {
		return runChaos(chaosConfig{
			seed: *chaosSeed, seeds: *chaosSeeds, base: *chaosBase,
			store: spec.Engine, workers: *workers, nodes: *nodes,
			repl:     spec.Repl.Followers,
			replAcks: replAcks,
			kills:    *chaosKill,
			jsonPath: *jsonPath,
		})
	}

	cfg := experiments.ThroughputConfig{
		Nodes:         *nodes,
		Workers:       *workers,
		Agents:        *agents,
		Steps:         *steps,
		Banks:         *banks,
		ConflictRatio: *conflict,
		StepWork:      *stepwork,
		Latency:       *latency,
		Optimized:     *optimized,
		Store:         spec.Engine,
		Repl:          spec.Repl,
		CollectTrace:  *tracePath != "",
		Ring:          *ring || *joinMid,
		JoinMidRun:    *joinMid,
	}
	var last experiments.ThroughputResult
	switch *profileName {
	case "":
		if last, err = runLoad(cfg, replAcks); err != nil {
			return err
		}
	case "shard-saturate":
		// Saturate the machine: enough workers per node to keep every
		// core busy, then 10x the in-flight agent backlog while holding
		// everything else fixed. With the control plane batched per peer
		// the p99 step latency should stay flat across the two runs —
		// the timers, GC writes and acks no longer scale with the number
		// of in-flight transactions.
		cfg.Workers = max((runtime.GOMAXPROCS(0)+*nodes-1) / *nodes, 2)
		base, err := runLoad(cfg, replAcks)
		if err != nil {
			return err
		}
		cfg.Agents *= 10
		if last, err = runLoad(cfg, replAcks); err != nil {
			return err
		}
		fmt.Printf("shard-saturate: 10x in-flight agents (%d→%d) = p99 %.2fms → %.2fms (%.2fx)\n",
			*agents, cfg.Agents, ms(base.P99), ms(last.P99), safeDiv(last.P99.Microseconds(), base.P99.Microseconds()))
	default:
		return fmt.Errorf("unknown -profile %q (want shard-saturate)", *profileName)
	}
	if *tracePath != "" {
		if err := writeChromeTrace(*tracePath, last.TraceRecords); err != nil {
			return err
		}
		fmt.Printf("wrote %d trace records to %s (open in chrome://tracing)\n", len(last.TraceRecords), *tracePath)
	}
	return nil
}

// runLoad executes one load run and prints its summary lines.
func runLoad(cfg experiments.ThroughputConfig, replAcks string) (experiments.ThroughputResult, error) {
	res, err := experiments.RunThroughput(cfg)
	if err != nil {
		return res, err
	}
	m := res.Metrics
	fmt.Printf("workers=%-3d agents=%-5d store=%-4s agents/s=%-8.1f steps/s=%-8.1f p50=%6.2fms p99=%7.2fms elapsed=%7.1fms inflight=%-3d goroutines=%-4d claimConf=%-4d lockAborts=%-3d retries=%-4d msgs=%-6d avgBatch=%.2f\n",
		cfg.Workers, cfg.Agents, cfg.Store, res.AgentsPerSec, res.StepsPerSec, ms(res.P50), ms(res.P99), ms(res.Elapsed),
		m.SchedInFlightPeak, res.GoroutinePeak, m.SchedClaimConflicts, m.SchedLockAborts, m.SchedRetries, m.Messages,
		safeDiv(m.NetBatchedMsgs, m.NetBatches))
	// Control-plane batching: stable group commits per step transaction
	// that retired decision/done GC ops (< 1.0 is the coalescing win),
	// replies that rode existing outbound batches, timer arms per txn.
	fmt.Printf("control plane: decision_commits/txn=%.3f decision_ops/commit=%.2f piggybacked=%d timers/txn=%.3f\n",
		safeDiv(m.DecisionBatches, m.StepTxns), safeDiv(m.DecisionOps, m.DecisionBatches), m.AckPiggybacked,
		safeDiv(m.TimersArmed, m.StepTxns))
	if cfg.Ring {
		fmt.Printf("ring placement: join_mid_run=%v migrations=%d\n", cfg.JoinMidRun, m.Migrations)
	}
	if cfg.Repl.Enabled() {
		fmt.Printf("replication: followers=%d acks=%s batches=%d\n", cfg.Repl.Followers, replAcks, m.ReplBatches)
	}
	return res, nil
}

// writeChromeTrace exports the run's causal trace in Chrome trace_event
// format and re-validates the written bytes, so a malformed export fails
// the run instead of silently producing a file chrome://tracing rejects.
func writeChromeTrace(path string, rs []trace.Record) error {
	if len(rs) == 0 {
		return fmt.Errorf("-trace: run produced no trace records")
	}
	var buf strings.Builder
	if err := trace.WriteChromeTrace(&buf, rs); err != nil {
		return fmt.Errorf("-trace: %w", err)
	}
	if err := trace.ValidateChromeTrace([]byte(buf.String())); err != nil {
		return fmt.Errorf("-trace: generated file failed validation: %w", err)
	}
	return os.WriteFile(path, []byte(buf.String()), 0o644)
}

// ms renders a duration in fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// safeDiv returns a/b as a float, 0 when b is 0.
func safeDiv(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

type chaosConfig struct {
	seed     int64 // >= 0: replay exactly this seed
	seeds    int
	base     int64
	store    string
	workers  int
	nodes    int
	repl     int    // follower replicas per shard (0 disables)
	replAcks string // "quorum" or "async"
	kills    int    // permanent machine kills per schedule
	jsonPath string
}

type chaosReport struct {
	Seed       int64    `json:"seed"`
	Store      string   `json:"store"`
	Workers    int      `json:"workers"`
	Repl       int      `json:"repl,omitempty"`
	Kills      int      `json:"kills,omitempty"`
	Crashes    int      `json:"crashes"`
	Partitions int      `json:"partitions"`
	FaultWins  int      `json:"fault_windows"`
	Drops      int64    `json:"drops"`
	Dups       int64    `json:"dups"`
	Reorders   int64    `json:"reorders"`
	RolledBack int      `json:"rolled_back"`
	ElapsedMS  float64  `json:"elapsed_ms"`
	Violations []string `json:"violations,omitempty"`
}

// runChaos sweeps (or replays) chaos seeds; the exit status reflects the
// verdict so CI can gate on it.
func runChaos(cfg chaosConfig) error {
	seeds := make([]int64, 0, cfg.seeds)
	verbose := false
	if cfg.seed >= 0 {
		seeds, verbose = append(seeds, cfg.seed), true
	} else {
		for s := cfg.base; s < cfg.base+int64(cfg.seeds); s++ {
			seeds = append(seeds, s)
		}
	}
	var reports []chaosReport
	failed := 0
	for _, seed := range seeds {
		res, err := chaos.Run(chaos.Options{
			Seed:     seed,
			Store:    cfg.store,
			Workers:  cfg.workers,
			Nodes:    cfg.nodes,
			Repl:     cfg.repl,
			ReplAcks: cfg.replAcks,
			Kills:    cfg.kills,
		})
		if err != nil {
			return err
		}
		if verbose || res.Failed() {
			fmt.Print(res.Schedule.String())
		}
		fmt.Println(res.Summary())
		r := chaosReport{
			Seed: seed, Store: cfg.store, Workers: cfg.workers,
			Repl: cfg.repl, Kills: cfg.kills,
			Drops: res.Faults.Drops, Dups: res.Faults.Dups, Reorders: res.Faults.Reorders,
			RolledBack: res.RolledBack,
			ElapsedMS:  ms(res.Elapsed),
		}
		r.Crashes, r.Partitions, r.FaultWins = res.Schedule.Counts()
		for _, v := range res.Violations {
			r.Violations = append(r.Violations, v.String())
		}
		reports = append(reports, r)
		if res.Failed() {
			failed++
			for _, v := range res.Violations {
				fmt.Printf("  violation: %s\n", v)
			}
			repro := fmt.Sprintf("go run ./cmd/loadgen -chaos -chaos-seed=%d -store=%s -workers=%d",
				seed, cfg.store, cfg.workers)
			if cfg.repl > 0 {
				repro += fmt.Sprintf(" -repl=%d -repl-acks=%s -chaos-kill=%d", cfg.repl, cfg.replAcks, cfg.kills)
			}
			fmt.Printf("  reproduce: %s\n", repro)
		}
	}
	if cfg.jsonPath != "" {
		data, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %d chaos report(s) to %s\n", len(reports), cfg.jsonPath)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d chaos seeds violated invariants", failed, len(seeds))
	}
	return nil
}
