// Command loadgen drives one burst of load against a simulated cluster
// and prints a summary of the run. Every run is a run of the chaos
// harness (internal/chaos): K agents over M nodes, each depositing into
// one of B banks per node, one in three partially rolling back, checked
// against the §4.3 invariants — exactly-once steps, FIFO step traces,
// compensated rollbacks, drained queues and a clean store reopen. A plain
// load is a chaos run with an empty schedule, -join schedules one node
// join mid-run, and -chaos draws each seed's fault schedule. It is the
// driver for the cluster smokes (mid-run join, storage engines, chaos)
// and for profiles and traces; timing numbers come from `go run ./bench`,
// not from here.
//
// Usage:
//
//	loadgen                                  # the harness's workload: 12 agents, 3 nodes, 1 worker
//	loadgen -workers 8                       # 8 scheduler workers per node
//	loadgen -workers 8 -banks 4              # spread the agents over 4 banks (-banks 1 is all-conflict)
//	loadgen -store wal -wal-segment 4096     # nodes on the WAL engine, 4 KiB segments
//	loadgen -join -workers 4                 # consistent-hash placement, one node booted mid-run takes its share
//	loadgen -profile shard-saturate          # two runs, 1x and 10x in-flight agents
//	loadgen -trace t.json -cpuprofile p      # causal trace (chrome://tracing) and pprof CPU profile
//	loadgen -chaos -chaos-seeds 20           # chaos sweep: 20 seeded fault schedules
//	loadgen -chaos -chaos-seed 7 -store wal  # replay one failing seed, print its schedule
//
// The per-step service time (-stepwork) is spent inside the step
// transaction with the bank lock held; it is what makes the workload
// wait-dominated, so throughput scales with -workers until conflicts
// serialize it.
//
// The workload flags default to the harness's own defaults, so a seed
// that failed `go test ./internal/chaos -run 'TestChaos$' -chaos-seed=N
// -chaos-store=E -chaos-workers=W` replays exactly with `-chaos
// -chaos-seed=N -store=E -workers=W`; a failing seed here prints its own
// repro line, and the exit status reflects the verdict. Any -chaos-* flag
// implies -chaos; -join and -profile are refused with it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/stable"
	"repro/internal/trace"
)

func main() {
	if _, err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// run parses args, runs the load they ask for and returns its last run.
func run(args []string) (*chaos.Result, error) {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	def := chaos.Defaults()
	nodes := fs.Int("nodes", def.Nodes, "number of cluster nodes")
	workers := fs.Int("workers", def.Workers, "scheduler workers per node")
	agents := fs.Int("agents", def.Agents, "number of agents to launch")
	steps := fs.Int("steps", def.Steps, "work steps per agent (round-robin over nodes) before its decide step")
	banks := fs.Int("banks", def.Banks, "bank resources per node: agent i deposits into bank i mod banks")
	stepwork := fs.Duration("stepwork", def.StepWork, "per-step service time inside the transaction")
	sflags := stable.BindFlags(fs, stable.Spec{Engine: "mem"})
	profileName := fs.String("profile", "", `named load profile: "shard-saturate" saturates GOMAXPROCS across the shards and runs 1x then 10x in-flight agents (p99 should stay flat)`)
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile covering the whole run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile at the end of the run to this file")
	tracePath := fs.String("trace", "", "write the final run's causal trace as Chrome trace_event JSON (open in chrome://tracing or Perfetto)")
	joinMid := fs.Bool("join", false, "place steps by consistent hash (membership layer on) and boot one extra node mid-run: each live agent it now owns is forwarded to it at its next claim")
	chaosMode := fs.Bool("chaos", false, "draw each seed's fault schedule instead of running fault-free")
	chaosSeed := fs.Int64("chaos-seed", -1, "chaos: replay exactly this seed (prints the schedule)")
	chaosSeeds := fs.Int("chaos-seeds", 5, "chaos: number of consecutive seeds to sweep")
	chaosBase := fs.Int64("chaos-base-seed", 1, "chaos: first seed of the sweep")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "chaos-") {
			*chaosMode = true
		}
	})
	if *chaosMode && (*joinMid || *profileName != "") {
		return nil, errors.New("-join and -profile cannot be combined with -chaos: the seed draws the schedule")
	}
	opts := chaos.Options{
		Nodes: *nodes, Workers: *workers, Agents: *agents, Steps: *steps, Banks: *banks,
		StepWork: *stepwork, Store: sflags.Spec(),
	}
	var sched chaos.Schedule
	if *joinMid {
		// Land the join mid-run: late enough that the load is spread out,
		// early enough that plenty of steps remain to forward.
		at := max(time.Duration(*steps)**stepwork/3, 25*time.Millisecond)
		sched.Events = []chaos.Event{{At: at, Op: chaos.OpJoin, Node: "j0"}}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
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

	var last *chaos.Result
	var err error
	switch {
	case *chaosMode:
		seeds := []int64{*chaosSeed}
		if *chaosSeed < 0 {
			seeds = seeds[:0]
			for s := *chaosBase; s < *chaosBase+int64(*chaosSeeds); s++ {
				seeds = append(seeds, s)
			}
		}
		last, err = runChaos(fs, opts, seeds, *chaosSeed >= 0)
	case *profileName == "":
		last, err = runLoad(opts, sched)
	case *profileName == "shard-saturate":
		// Saturate the machine: enough workers per node to keep every
		// core busy, then 10x the in-flight agent backlog while holding
		// everything else fixed. With the control plane batched per peer
		// the p99 step latency should stay flat across the two runs —
		// the timers, GC writes and acks no longer scale with the number
		// of in-flight transactions.
		opts.Workers = max((runtime.GOMAXPROCS(0)+*nodes-1) / *nodes, 2)
		base, err := runLoad(opts, sched)
		if err != nil {
			return nil, err
		}
		opts.Agents *= 10
		if last, err = runLoad(opts, sched); err != nil {
			return nil, err
		}
		fmt.Printf("shard-saturate: 10x in-flight agents (%d→%d) = p99 %.2fms → %.2fms (%.2fx)\n",
			*agents, opts.Agents, ms(base.P99), ms(last.P99), safeDiv(last.P99.Microseconds(), base.P99.Microseconds()))
	default:
		err = fmt.Errorf("unknown -profile %q (want shard-saturate)", *profileName)
	}
	if err != nil {
		return nil, err
	}
	if *tracePath != "" {
		if err := writeChromeTrace(*tracePath, last.Trace); err != nil {
			return nil, err
		}
		fmt.Printf("wrote %d trace records to %s (open in chrome://tracing)\n", len(last.Trace), *tracePath)
	}
	return last, nil
}

// runLoad runs one fault-free load and prints its summary; a violated
// invariant fails the run.
func runLoad(opts chaos.Options, sched chaos.Schedule) (*chaos.Result, error) {
	res, err := chaos.RunSchedule(opts, sched)
	if err != nil {
		return nil, err
	}
	report(opts, res)
	if res.Failed() {
		return nil, fmt.Errorf("%d invariant violation(s)", len(res.Violations))
	}
	return res, nil
}

// runChaos sweeps (or replays) seeded fault schedules; the error reflects
// the verdict so CI can gate on it.
func runChaos(fs *flag.FlagSet, opts chaos.Options, seeds []int64, verbose bool) (*chaos.Result, error) {
	var res *chaos.Result
	failed := 0
	for _, seed := range seeds {
		opts.Seed = seed
		var err error
		if res, err = chaos.Run(opts); err != nil {
			return nil, err
		}
		if verbose || res.Failed() {
			fmt.Print(res.Schedule.String())
		}
		report(opts, res)
		if res.Failed() {
			failed++
			fmt.Printf("  reproduce: %s\n", reproLine(fs, seed))
		}
	}
	if failed > 0 {
		return nil, fmt.Errorf("%d of %d chaos seeds violated invariants", failed, len(seeds))
	}
	return res, nil
}

// reproLine is the one command that replays seed: -chaos with every flag
// this invocation was given, bar the sweep's and the output files'.
func reproLine(fs *flag.FlagSet, seed int64) string {
	line := fmt.Sprintf("go run ./cmd/loadgen -chaos -chaos-seed=%d", seed)
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "chaos", "chaos-seed", "chaos-seeds", "chaos-base-seed", "cpuprofile", "memprofile", "trace":
		default:
			line += fmt.Sprintf(" -%s=%s", f.Name, f.Value)
		}
	})
	return line
}

// report prints one run's summary lines and its violations.
func report(opts chaos.Options, res *chaos.Result) {
	m := res.Metrics
	fmt.Println(res.Summary())
	fmt.Printf("workers=%-3d agents=%-5d store=%-4s p50=%6.2fms p99=%7.2fms inflight=%-3d goroutines=%-4d claimConf=%-4d lockAborts=%-3d retries=%-4d msgs=%-6d avgBatch=%.2f migrations=%d\n",
		opts.Workers, opts.Agents, opts.Store.Engine, ms(res.P50), ms(res.P99),
		m.SchedInFlightPeak, res.GoroutinePeak, m.SchedClaimConflicts, m.SchedLockAborts, m.SchedRetries, m.Messages,
		safeDiv(m.NetBatchedMsgs, m.NetBatches), m.Migrations)
	// Control-plane batching: stable group commits per step transaction
	// that retired decision/done GC ops (< 1.0 is the coalescing win),
	// replies that rode existing outbound batches, timer arms per txn.
	fmt.Printf("control plane: decision_commits/txn=%.3f decision_ops/commit=%.2f piggybacked=%d timers/txn=%.3f\n",
		safeDiv(m.DecisionBatches, m.StepTxns), safeDiv(m.DecisionOps, m.DecisionBatches), m.AckPiggybacked,
		safeDiv(m.TimersArmed, m.StepTxns))
	for _, v := range res.Violations {
		fmt.Printf("  violation: %s\n", v)
	}
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
