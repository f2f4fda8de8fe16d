package experiments

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/agent"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/itinerary"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/resource"
	"repro/internal/stable"
	"repro/internal/trace"
	"repro/internal/txn"
)

// ThroughputConfig configures the multi-agent load workload driving the
// concurrent step scheduler: Agents agents, each executing Steps step
// transactions round-robin over Nodes nodes, every step depositing into
// one of Banks bank resources per node. ConflictRatio pins that fraction
// of the agents to bank 0, so their step transactions contend on one 2PL
// lock; the rest spread over the remaining banks.
type ThroughputConfig struct {
	Nodes   int
	Workers int
	Agents  int
	Steps   int
	Banks   int
	// ConflictRatio in [0,1]: fraction of agents pinned to bank0.
	ConflictRatio float64
	// StepWork is simulated per-step service time, spent *inside* the
	// step transaction while the bank lock is held (the paper's steps
	// are long-running transactions). It is what makes the workload
	// wait-dominated: scheduler workers overlap this held time, so
	// throughput scales with Workers even on one core — except where
	// conflicting agents serialize on the lock.
	StepWork  time.Duration
	Latency   time.Duration
	Optimized bool
	// Store selects the stable-storage backend under every node: "mem"
	// (default) or any other stable.Engines() name. Durable backends root
	// their files under StoreDir (RunThroughput provisions a temp dir
	// when empty).
	Store    string
	StoreDir string
	// Repl replicates every node's store (stable.Spec.Repl): Followers
	// replicas per shard, Acks selecting async vs quorum durability.
	Repl stable.ReplSpec
	// Timeout bounds the whole run; zero uses the experiment default
	// (large load points under the race detector need more).
	Timeout time.Duration
	// CollectTrace copies the merged trace records into
	// ThroughputResult.TraceRecords after the run (they are dropped
	// otherwise).
	CollectTrace bool
	// Ring runs the cluster with the membership layer on and places
	// every step by consistent hash (@ring itinerary locations) instead
	// of static round-robin wiring.
	Ring bool
	// JoinMidRun boots one extra node partway through the run (Ring
	// only): every node's rebalancer migrates the new node's ring share
	// of live agents over while the load keeps flowing, and the
	// exactly-once sink check at the end covers the migrated steps.
	JoinMidRun bool
}

func (cfg *ThroughputConfig) fillDefaults() {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 4
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Agents <= 0 {
		cfg.Agents = 64
	}
	if cfg.Steps <= 0 {
		cfg.Steps = 8
	}
	if cfg.Banks <= 0 {
		cfg.Banks = 8
	}
}

// ThroughputResult reports one load run.
type ThroughputResult struct {
	Elapsed      time.Duration
	AgentsPerSec float64
	StepsPerSec  float64
	P50, P99     time.Duration // successful step-attempt latency
	// GoroutinePeak is the peak runtime.NumGoroutine observed while the
	// agents were in flight. The event-driven protocol core keeps it
	// O(nodes × workers) — independent of the number of in-flight
	// agents/transactions, which previously each cost a polling cycle.
	GoroutinePeak int
	Metrics       metrics.Snapshot
	// TraceRecords is the merged causal trace of the run, populated only
	// when ThroughputConfig.CollectTrace is set.
	TraceRecords []trace.Record
}

const tputDeposit = 1

// bankName returns the bank resource an agent uses, honouring the
// conflict pinning (the flag vector is spread evenly, like MixedFlags).
func tputBank(i int, cfg ThroughputConfig, conflicted []bool) string {
	if conflicted[i] {
		return "bank0"
	}
	return fmt.Sprintf("bank%d", i%cfg.Banks)
}

// BuildThroughputCluster assembles the cluster: Nodes nodes, Banks bank
// resources each, the load step (with its scheduler conflict hint) and a
// matching compensation registered.
func BuildThroughputCluster(cfg ThroughputConfig) (*cluster.Cluster, error) {
	counters := &metrics.Counters{}
	if cfg.Store != "" && cfg.Store != "mem" && cfg.StoreDir == "" {
		return nil, fmt.Errorf("throughput: backend %q needs a StoreDir", cfg.Store)
	}
	spec, err := StoreSpec(cfg.Store, cfg.StoreDir, counters)
	if err != nil {
		return nil, err
	}
	spec.Repl = cfg.Repl
	cl := cluster.New(cluster.Options{
		Optimized:   cfg.Optimized,
		Latency:     cfg.Latency,
		Workers:     cfg.Workers,
		RetryDelay:  2 * time.Millisecond,
		AckTimeout:  2 * time.Second,
		MaxAttempts: 100,
		Counters:    counters,
		Store:       spec,
		Membership:  cfg.Ring,
	})
	for i := 0; i < cfg.Nodes; i++ {
		if err := cl.AddNode(workerName(i), tputFactories(cfg)...); err != nil {
			return nil, err
		}
	}
	reg := cl.Registry()
	if err := reg.RegisterStep("tput.work", func(ctx agent.StepContext) error {
		var bank string
		if _, err := ctx.WRO().Get("bank", &bank); err != nil {
			return err
		}
		r, ok := ctx.Resource(bank)
		if !ok {
			return errors.New("tput.work: no bank " + bank)
		}
		if err := r.(*resource.Bank).Deposit(ctx.Tx(), sinkAccount, tputDeposit); err != nil {
			return err
		}
		if cfg.StepWork > 0 {
			time.Sleep(cfg.StepWork) // service time, lock held
		}
		ctx.LogComp(core.OpResource, "tput.comp", core.NewParams().
			Set("bank", bank).Set("amt", int64(tputDeposit)))
		return nil
	}); err != nil {
		return nil, err
	}
	if err := reg.RegisterStepHints("tput.work",
		func(a *agent.Agent, _ itinerary.Step) []string {
			var bank string
			if _, err := a.WRO.Get("bank", &bank); err != nil {
				return nil
			}
			return []string{bank}
		}); err != nil {
		return nil, err
	}
	if err := reg.RegisterComp("tput.comp", func(ctx agent.CompContext) error {
		var bank string
		if err := ctx.Params().Get("bank", &bank); err != nil {
			return err
		}
		var amt int64
		if err := ctx.Params().Get("amt", &amt); err != nil {
			return err
		}
		r, err := ctx.Resource(bank)
		if err != nil {
			return err
		}
		return r.(*resource.Bank).Withdraw(ctx.Tx(), sinkAccount, amt)
	}); err != nil {
		return nil, err
	}
	if err := cl.Start(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Nodes; i++ {
		if err := tputOpenSinks(cl, workerName(i), cfg.Banks); err != nil {
			return nil, err
		}
	}
	return cl, nil
}

// tputFactories builds the per-node bank resource set (shared by the
// initial nodes and any node joined mid-run).
func tputFactories(cfg ThroughputConfig) []node.ResourceFactory {
	var factories []node.ResourceFactory
	for b := 0; b < cfg.Banks; b++ {
		name := fmt.Sprintf("bank%d", b)
		factories = append(factories, func(store stable.Store) (resource.Resource, error) {
			return resource.NewBank(store, name, true)
		})
	}
	return factories
}

// tputOpenSinks opens the sink account in every bank on one node.
func tputOpenSinks(cl *cluster.Cluster, name string, banks int) error {
	nd, ok := cl.Node(name)
	if !ok {
		return fmt.Errorf("throughput: node %s missing", name)
	}
	return cl.WithTx(name, func(tx *txn.Tx, _ *node.Node) error {
		for b := 0; b < banks; b++ {
			r, _ := nd.Resource(fmt.Sprintf("bank%d", b))
			if err := r.(*resource.Bank).OpenAccount(tx, sinkAccount, 0); err != nil {
				return err
			}
		}
		return nil
	})
}

// tputItinerary builds one agent's itinerary: Steps steps round-robin over
// the nodes, starting at node start.
func tputItinerary(id string, start int, cfg ThroughputConfig) (*itinerary.Itinerary, error) {
	sub := &itinerary.Sub{ID: "load-" + id}
	for s := 0; s < cfg.Steps; s++ {
		loc := workerName((start + s) % cfg.Nodes)
		if cfg.Ring {
			// A distinct ring key per step spreads the agent's steps over
			// the owners (and hands a mid-run joiner its fair share of the
			// remaining steps) instead of pinning each agent to one node.
			loc = fmt.Sprintf("%s:%s-s%d", node.RingLoc, id, s)
		}
		sub.Entries = append(sub.Entries, itinerary.Step{Method: "tput.work", Loc: loc})
	}
	return itinerary.New(sub)
}

// RunThroughput launches cfg.Agents agents concurrently, waits for every
// completion, verifies the deposit invariant and reports throughput and
// step-latency percentiles.
func RunThroughput(cfg ThroughputConfig) (ThroughputResult, error) {
	cfg.fillDefaults()
	if cfg.JoinMidRun && !cfg.Ring {
		return ThroughputResult{}, errors.New("throughput: JoinMidRun needs Ring placement (a joiner owns nothing under static wiring)")
	}
	if cfg.Store != "" && cfg.Store != "mem" && cfg.StoreDir == "" {
		dir, err := os.MkdirTemp("", "tput-"+cfg.Store)
		if err != nil {
			return ThroughputResult{}, err
		}
		defer os.RemoveAll(dir)
		cfg.StoreDir = dir
	}
	cl, err := BuildThroughputCluster(cfg)
	if err != nil {
		return ThroughputResult{}, err
	}
	defer cl.Close()

	conflicted := MixedFlags(cfg.Agents, cfg.ConflictRatio)
	type launch struct {
		a       *agent.Agent
		entered []string
		at      string
	}
	launches := make([]launch, cfg.Agents)
	for i := 0; i < cfg.Agents; i++ {
		id := fmt.Sprintf("load%04d", i)
		start := i % cfg.Nodes
		it, err := tputItinerary(id, start, cfg)
		if err != nil {
			return ThroughputResult{}, err
		}
		a, entered, err := agent.NewAt(id, "", it, workerName(start))
		if err != nil {
			return ThroughputResult{}, err
		}
		if err := a.WRO.Set("bank", tputBank(i, cfg, conflicted)); err != nil {
			return ThroughputResult{}, err
		}
		launches[i] = launch{a: a, entered: entered, at: workerName(start)}
	}

	before := cl.Counters().Snapshot()
	start := time.Now()
	// Sample the process goroutine count while the load is in flight:
	// the steady-state count must track workers, not in-flight agents.
	gorSamples := make(chan int, 1)
	gorStop := make(chan struct{})
	go func() {
		peak := runtime.NumGoroutine()
		ticker := time.NewTicker(2 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-gorStop:
				gorSamples <- peak
				return
			case <-ticker.C:
				if n := runtime.NumGoroutine(); n > peak {
					peak = n
				}
			}
		}
	}()
	chans := make([]<-chan cluster.Result, cfg.Agents)
	for i, l := range launches {
		ch, err := cl.Launch(l.a, l.entered, l.at)
		if err != nil {
			close(gorStop)
			<-gorSamples
			return ThroughputResult{}, err
		}
		chans[i] = ch
	}
	joinErr := make(chan error, 1)
	if cfg.JoinMidRun {
		go func() {
			// Land the join mid-run: late enough that the load is spread
			// out, early enough that plenty of steps remain to migrate.
			delay := time.Duration(cfg.Steps) * cfg.StepWork / 3
			if delay < 25*time.Millisecond {
				delay = 25 * time.Millisecond
			}
			time.Sleep(delay)
			name := workerName(cfg.Nodes)
			if err := cl.Join(name, tputFactories(cfg)...); err != nil {
				joinErr <- err
				return
			}
			// Steps migrated here before the sinks open fail and retry.
			joinErr <- tputOpenSinks(cl, name, cfg.Banks)
		}()
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = runTimeout
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	var runErr error
	for _, ch := range chans {
		select {
		case res := <-ch:
			if res.Failed {
				runErr = fmt.Errorf("throughput: agent %s failed: %s", res.AgentID, res.Reason)
			}
		case <-deadline.C:
			runErr = errors.New("throughput: agents timed out")
		}
		if runErr != nil {
			break
		}
	}
	elapsed := time.Since(start)
	close(gorStop)
	gorPeak := <-gorSamples
	if runErr == nil && cfg.JoinMidRun {
		if err := <-joinErr; err != nil {
			runErr = fmt.Errorf("throughput: mid-run join: %w", err)
		}
	}
	if runErr != nil {
		return ThroughputResult{}, runErr
	}

	// Invariant: every step deposited exactly once. NodeNames covers the
	// mid-run joiner too — migrated steps deposited into its banks.
	var total int64
	for _, name := range cl.NodeNames() {
		nd, _ := cl.Node(name)
		if err := cl.WithTx(name, func(tx *txn.Tx, _ *node.Node) error {
			for b := 0; b < cfg.Banks; b++ {
				r, _ := nd.Resource(fmt.Sprintf("bank%d", b))
				bal, err := r.(*resource.Bank).Balance(tx, sinkAccount)
				if err != nil {
					return err
				}
				total += bal
			}
			return nil
		}); err != nil {
			return ThroughputResult{}, err
		}
	}
	if want := int64(cfg.Agents * cfg.Steps * tputDeposit); total != want {
		return ThroughputResult{}, fmt.Errorf("throughput: sink total %d, want %d (exactly-once violated)", total, want)
	}

	var recs []trace.Record
	if cfg.CollectTrace {
		recs = cl.TraceRecords()
	}
	lat := cl.Counters().StepLatency()
	sec := elapsed.Seconds()
	return ThroughputResult{
		Elapsed:       elapsed,
		AgentsPerSec:  float64(cfg.Agents) / sec,
		StepsPerSec:   float64(cfg.Agents*cfg.Steps) / sec,
		P50:           lat.P50,
		P99:           lat.P99,
		GoroutinePeak: gorPeak,
		Metrics:       cl.Counters().Snapshot().Sub(before),
		TraceRecords:  recs,
	}, nil
}
