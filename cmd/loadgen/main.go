// Command loadgen drives the throughput load harness against a simulated
// cluster: K agents over M nodes with a configurable conflict ratio,
// reporting agents/sec and step-latency percentiles.
//
// Usage:
//
//	loadgen                                  # defaults: 64 agents, 4 nodes, 1 worker
//	loadgen -workers 8                       # 8 scheduler workers per node
//	loadgen -workers 8 -conflict 0.5         # half the agents pinned to one bank
//	loadgen -sweep 1,2,4,8 -json out.json    # worker sweep, machine-readable
//	loadgen -store wal                       # nodes on the log-structured WAL engine
//	loadgen -storesweep -workers 4           # backend sweep: mem vs file vs wal
//	loadgen -ring                            # consistent-hash placement (@ring steps)
//	loadgen -join -workers 4                 # boot a 5th node mid-run; live agents migrate to it
//	loadgen -repl 2                          # replicate every shard to 2 followers (quorum acks)
//	loadgen -repl 2 -repl-acks async         # replicate asynchronously (primary-only durability)
//	loadgen -chaos -chaos-seeds 20           # chaos sweep: 20 seeded fault schedules
//	loadgen -chaos -chaos-seed 7 -store wal  # replay one failing seed, print its schedule
//	loadgen -chaos -repl 2 -chaos-kill 2     # chaos with permanent machine kills + failover
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
// is printed and the exit status reflects the verdict.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/stable"
	"repro/internal/trace"
)

type runReport struct {
	Workers       int     `json:"workers"`
	Nodes         int     `json:"nodes"`
	Agents        int     `json:"agents"`
	Steps         int     `json:"steps"`
	Store         string  `json:"store"`
	Repl          int     `json:"repl,omitempty"`
	ReplAcks      string  `json:"repl_acks,omitempty"`
	Ring          bool    `json:"ring,omitempty"`
	JoinMidRun    bool    `json:"join_mid_run,omitempty"`
	Migrations    int64   `json:"migrations,omitempty"`
	ConflictRatio float64 `json:"conflict_ratio"`
	StepWorkMS    float64 `json:"step_work_ms"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	AgentsPerSec  float64 `json:"agents_per_sec"`
	StepsPerSec   float64 `json:"steps_per_sec"`
	P50MS         float64 `json:"p50_ms"`
	P90MS         float64 `json:"p90_ms"`
	P99MS         float64 `json:"p99_ms"`
	P999MS        float64 `json:"p999_ms"`
	InFlightPeak  int64   `json:"inflight_peak"`
	GoroutinePeak int     `json:"goroutine_peak"`
	ClaimConflict int64   `json:"claim_conflicts"`
	LockAborts    int64   `json:"lock_aborts"`
	Retries       int64   `json:"retries"`
	StableWrites  int64   `json:"stable_writes"`
	Fsyncs        int64   `json:"fsyncs"`
	ReplBatches   int64   `json:"repl_batches,omitempty"`
	Messages      int64   `json:"messages"`
	BytesSent     int64   `json:"bytes_sent"`
	// NetBatches / NetBatchedMsgs summarize per-link coalescing: how
	// many endpoint deliveries carried how many protocol messages.
	NetBatches     int64   `json:"net_batches"`
	NetBatchedMsgs int64   `json:"net_batched_msgs"`
	AvgBatchSize   float64 `json:"avg_batch_size"`
	// NetBatchSize is the frames-per-batch histogram, keyed by bucket
	// label ("1", "2-2", "3-4", ..., ">64").
	NetBatchSize map[string]int64 `json:"net_batch_size,omitempty"`
	// Control-plane batching effectiveness: how many stable group
	// commits retired how many decision/done GC ops
	// (decision_commits_per_txn < 1.0 is the coalescing win), how many
	// replies rode existing outbound batches, and how the timer-arm
	// volume relates to committed step transactions (per-peer coalesced
	// timers keep timers_per_txn far below the per-txn timer model).
	DecisionBatches      int64   `json:"decision_batches"`
	DecisionOps          int64   `json:"decision_ops"`
	DecisionCommitsPerTx float64 `json:"decision_commits_per_txn"`
	AckPiggybacked       int64   `json:"ack_piggybacked"`
	TimersArmed          int64   `json:"timers_armed"`
	TimersPerTxn         float64 `json:"timers_per_txn"`
	// StepLatencyBuckets is the raw step-latency reservoir histogram,
	// keyed by bucket label ("le_1ms", ..., "inf"); empty cells omitted.
	StepLatencyBuckets map[string]int64 `json:"step_latency_buckets,omitempty"`
	// WireBytesByKind is payload bytes on the wire per message kind;
	// WireMsgsByKind the matching message counts.
	WireBytesByKind map[string]int64 `json:"wire_bytes_by_kind,omitempty"`
	WireMsgsByKind  map[string]int64 `json:"wire_msgs_by_kind,omitempty"`
}

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
	profileName := fs.String("profile", "", `named load profile: "shard-saturate" saturates GOMAXPROCS across the shards and sweeps 1x/10x in-flight agents (p99 should stay flat)`)
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile covering the whole run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile at the end of the run to this file")
	storeSweep := fs.Bool("storesweep", false, "run the sweep over every registered engine (stable.Engines) per worker count")
	sweep := fs.String("sweep", "", "comma-separated worker counts to sweep (overrides -workers)")
	jsonPath := fs.String("json", "", "write the reports as JSON to this file")
	tracePath := fs.String("trace", "", "write the final run's causal trace as Chrome trace_event JSON (open in chrome://tracing or Perfetto)")
	noTrace := fs.Bool("notrace", false, "disable the per-node trace rings (tracing is on by default; used to measure its overhead)")
	ring := fs.Bool("ring", false, "place steps by consistent hash (membership layer on) instead of static round-robin wiring")
	joinMid := fs.Bool("join", false, "boot one extra node mid-run and let the rebalancer migrate its ring share of live agents over (implies -ring)")
	migrateBurst := fs.Int("migrateburst", 0, "max live-agent migrations per rebalancer sweep (0 = node default, negative = unbounded) — A/B the join-spike throttle")
	chaosMode := fs.Bool("chaos", false, "run the seeded fault-injection harness instead of the plain load")
	chaosSeed := fs.Int64("chaos-seed", -1, "chaos: replay exactly this seed (prints the schedule)")
	chaosSeeds := fs.Int("chaos-seeds", 5, "chaos: number of consecutive seeds to sweep")
	chaosBase := fs.Int64("chaos-base-seed", 1, "chaos: first seed of the sweep")
	chaosKill := fs.Int("chaos-kill", 0, "chaos: permanent machine kills per schedule (requires -repl with quorum acks)")
	if err := fs.Parse(args); err != nil {
		return err
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
	if *chaosKill > 0 {
		return fmt.Errorf("-chaos-kill requires -chaos")
	}

	counts := []int{*workers}
	if *sweep != "" {
		counts = counts[:0]
		for _, f := range strings.Split(*sweep, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 1 {
				return fmt.Errorf("bad -sweep element %q", f)
			}
			counts = append(counts, n)
		}
	}

	backends := []string{spec.Engine}
	if *storeSweep {
		backends = stable.Engines()
	}

	// A load point is one (workers, agents) cell; the plain worker sweep
	// holds agents fixed, a named profile may vary both.
	type loadPoint struct{ workers, agents int }
	points := make([]loadPoint, 0, len(counts)+1)
	for _, w := range counts {
		points = append(points, loadPoint{workers: w, agents: *agents})
	}
	switch *profileName {
	case "":
	case "shard-saturate":
		// Saturate the machine: enough workers per node to keep every
		// core busy, then 10x the in-flight agent backlog while holding
		// everything else fixed. With the control plane batched per peer
		// the p99 step latency should stay flat across the two points —
		// the timers, GC writes and acks no longer scale with the number
		// of in-flight transactions.
		if *sweep != "" {
			return fmt.Errorf("-profile shard-saturate and -sweep are mutually exclusive")
		}
		w := (runtime.GOMAXPROCS(0) + *nodes - 1) / *nodes
		if w < 2 {
			w = 2
		}
		points = []loadPoint{
			{workers: w, agents: *agents},
			{workers: w, agents: *agents * 10},
		}
	default:
		return fmt.Errorf("unknown -profile %q (want shard-saturate)", *profileName)
	}

	traceRing := 0
	if *noTrace {
		if *tracePath != "" {
			return fmt.Errorf("-trace and -notrace are mutually exclusive")
		}
		traceRing = -1
	}

	var reports []runReport
	var lastTrace []trace.Record
	for _, pt := range points {
		for _, backend := range backends {
			res, err := experiments.RunThroughput(experiments.ThroughputConfig{
				Nodes:         *nodes,
				Workers:       pt.workers,
				Agents:        pt.agents,
				Steps:         *steps,
				Banks:         *banks,
				ConflictRatio: *conflict,
				StepWork:      *stepwork,
				Latency:       *latency,
				Optimized:     *optimized,
				Store:         backend,
				Repl:          spec.Repl,
				TraceRing:     traceRing,
				CollectTrace:  *tracePath != "",
				Ring:          *ring || *joinMid,
				JoinMidRun:    *joinMid,
				MigrateBurst:  *migrateBurst,
			})
			if err != nil {
				return err
			}
			r := runReport{
				Workers:        pt.workers,
				Nodes:          *nodes,
				Agents:         pt.agents,
				Steps:          *steps,
				Store:          backend,
				Repl:           spec.Repl.Followers,
				ReplAcks:       replAcks,
				Ring:           *ring || *joinMid,
				JoinMidRun:     *joinMid,
				Migrations:     res.Metrics.Migrations,
				ConflictRatio:  *conflict,
				StepWorkMS:     float64(stepwork.Microseconds()) / 1000,
				ElapsedMS:      float64(res.Elapsed.Microseconds()) / 1000,
				AgentsPerSec:   res.AgentsPerSec,
				StepsPerSec:    res.StepsPerSec,
				P50MS:          float64(res.P50.Microseconds()) / 1000,
				P90MS:          float64(res.Latency.P90.Microseconds()) / 1000,
				P99MS:          float64(res.P99.Microseconds()) / 1000,
				P999MS:         float64(res.Latency.P999.Microseconds()) / 1000,
				InFlightPeak:   res.Metrics.SchedInFlightPeak,
				GoroutinePeak:  res.GoroutinePeak,
				ClaimConflict:  res.Metrics.SchedClaimConflicts,
				LockAborts:     res.Metrics.SchedLockAborts,
				Retries:        res.Metrics.SchedRetries,
				StableWrites:   res.Metrics.StableWrites,
				Fsyncs:         res.Metrics.Fsyncs,
				ReplBatches:    res.Metrics.ReplBatches,
				Messages:       res.Metrics.Messages,
				BytesSent:      res.Metrics.BytesSent,
				NetBatches:     res.Metrics.NetBatches,
				NetBatchedMsgs: res.Metrics.NetBatchedMsgs,
			}
			if r.NetBatches > 0 {
				r.AvgBatchSize = float64(r.NetBatchedMsgs) / float64(r.NetBatches)
			}
			r.DecisionBatches = res.Metrics.DecisionBatches
			r.DecisionOps = res.Metrics.DecisionOps
			r.AckPiggybacked = res.Metrics.AckPiggybacked
			r.TimersArmed = res.Metrics.TimersArmed
			if st := res.Metrics.StepTxns; st > 0 {
				r.DecisionCommitsPerTx = float64(r.DecisionBatches) / float64(st)
				r.TimersPerTxn = float64(r.TimersArmed) / float64(st)
			}
			r.NetBatchSize = make(map[string]int64)
			for i, n := range res.Metrics.NetBatchSize {
				if n > 0 {
					r.NetBatchSize[metrics.BatchBucketLabel(i)] = n
				}
			}
			r.StepLatencyBuckets = make(map[string]int64)
			for i, n := range res.Latency.Buckets {
				if n > 0 {
					r.StepLatencyBuckets[metrics.LatencyBucketLabel(i)] = n
				}
			}
			r.WireBytesByKind = res.Metrics.WireBytesByKind
			r.WireMsgsByKind = res.Metrics.WireMsgsByKind
			lastTrace = res.TraceRecords
			reports = append(reports, r)
			fmt.Printf("workers=%-3d agents=%-5d store=%-4s agents/s=%-8.1f steps/s=%-8.1f p50=%6.2fms p99=%7.2fms elapsed=%7.1fms inflight=%-3d goroutines=%-4d claimConf=%-4d lockAborts=%-3d retries=%-4d msgs=%-6d avgBatch=%.2f\n",
				r.Workers, r.Agents, r.Store, r.AgentsPerSec, r.StepsPerSec, r.P50MS, r.P99MS, r.ElapsedMS,
				r.InFlightPeak, r.GoroutinePeak, r.ClaimConflict, r.LockAborts, r.Retries, r.Messages, r.AvgBatchSize)
			fmt.Printf("control plane: decision_commits/txn=%.3f decision_ops/commit=%.2f piggybacked=%d timers/txn=%.3f\n",
				r.DecisionCommitsPerTx, safeDiv(r.DecisionOps, r.DecisionBatches), r.AckPiggybacked, r.TimersPerTxn)
			if r.Ring {
				fmt.Printf("ring placement: join_mid_run=%v migrations=%d\n", r.JoinMidRun, r.Migrations)
			}
			if r.Repl > 0 {
				fmt.Printf("replication: followers=%d acks=%s batches=%d\n", r.Repl, r.ReplAcks, r.ReplBatches)
			}
		}
	}
	if *profileName == "shard-saturate" && len(reports) == 2 {
		base, top := reports[0], reports[1]
		ratio := 0.0
		if base.P99MS > 0 {
			ratio = top.P99MS / base.P99MS
		}
		fmt.Printf("shard-saturate: %dx in-flight agents (%d→%d) = p99 %.2fms → %.2fms (%.2fx)\n",
			top.Agents/max(base.Agents, 1), base.Agents, top.Agents, base.P99MS, top.P99MS, ratio)
	} else if len(reports) > 1 && len(backends) == 1 {
		base, top := reports[0], reports[len(reports)-1]
		fmt.Printf("scaling: %d→%d workers = %.2fx agents/sec\n",
			base.Workers, top.Workers, top.AgentsPerSec/base.AgentsPerSec)
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %d report(s) to %s\n", len(reports), *jsonPath)
	}
	if *tracePath != "" {
		if err := writeChromeTrace(*tracePath, lastTrace); err != nil {
			return err
		}
		fmt.Printf("wrote %d trace records to %s (open in chrome://tracing)\n", len(lastTrace), *tracePath)
	}
	return nil
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
			ElapsedMS:  float64(res.Elapsed.Microseconds()) / 1000,
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
