package experiments

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/agent"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/itinerary"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/resource"
	"repro/internal/stable"
	"repro/internal/txn"
)

// runTimeout bounds every experiment agent run.
const runTimeout = 60 * time.Second

// PipelineConfig configures the generic workload used by most figures: an
// agent executes Steps steps round-robin over Nodes nodes; every step
// deposits into the node-local bank, optionally stores PayloadBytes of
// data in a strongly reversible object, and logs compensating operations —
// a mixed entry when the step's Mixed flag is set, otherwise a resource
// entry plus an agent entry. A final step triggers a partial rollback of
// the whole sub-itinerary (first pass only); the second pass completes.
type PipelineConfig struct {
	Nodes        int
	Steps        int
	Mixed        []bool // per-step mixed flag; nil means all false
	PayloadBytes int
	Optimized    bool
	LogMode      core.LogMode
	Latency      time.Duration
	Rollback     bool
	// SavepointEveryStep makes every step constitute a manual savepoint
	// (the flat-log variant of the Fig. 6 experiment).
	SavepointEveryStep bool
	// TopLevelGroup splits the steps into top-level sub-itineraries of
	// this size (0 = single sub). Completing each group discards the
	// rollback log (§4.4.2). Only valid with Rollback=false.
	TopLevelGroup int
}

// PipelineResult reports one run.
type PipelineResult struct {
	Elapsed time.Duration
	Metrics metrics.Snapshot
	Agent   *agent.Agent
	Failed  bool
	Reason  string
}

const (
	depositPerStep = 10
	sinkAccount    = "sink"
)

func workerName(i int) string { return fmt.Sprintf("w%d", i) }

// BuildPipelineCluster assembles the cluster and registers the workload.
func BuildPipelineCluster(cfg PipelineConfig) (*cluster.Cluster, error) {
	cl := cluster.New(cluster.Options{
		Optimized:   cfg.Optimized,
		LogMode:     cfg.LogMode,
		Latency:     cfg.Latency,
		RetryDelay:  2 * time.Millisecond,
		AckTimeout:  2 * time.Second,
		MaxAttempts: 100,
	})
	for i := 0; i < cfg.Nodes; i++ {
		bank := func(store stable.Store) (resource.Resource, error) {
			return resource.NewBank(store, "bank", true)
		}
		if err := cl.AddNode(workerName(i), node.ResourceFactory(bank)); err != nil {
			return nil, err
		}
	}
	reg := cl.Registry()

	if err := reg.RegisterStep("exp.work", func(ctx agent.StepContext) error {
		seq := ctx.StepSeq()
		var mixed []bool
		if _, err := ctx.WRO().Get("mixedflags", &mixed); err != nil {
			return err
		}
		var payload int
		if _, err := ctx.WRO().Get("payload", &payload); err != nil {
			return err
		}
		if payload > 0 {
			if err := ctx.SRO().Set(fmt.Sprintf("data%d", seq), make([]byte, payload)); err != nil {
				return err
			}
		}
		r, ok := ctx.Resource("bank")
		if !ok {
			return errors.New("exp.work: no bank")
		}
		if err := r.(*resource.Bank).Deposit(ctx.Tx(), sinkAccount, depositPerStep); err != nil {
			return err
		}
		if cfg.SavepointEveryStep {
			ctx.Savepoint(fmt.Sprintf("sp%d", seq))
		}
		if seq < len(mixed) && mixed[seq] {
			ctx.LogComp(core.OpMixed, "exp.comp.mixed", core.NewParams().
				Set("amt", int64(depositPerStep)))
			return nil
		}
		ctx.LogComp(core.OpResource, "exp.comp.res", core.NewParams().
			Set("amt", int64(depositPerStep)))
		ctx.LogComp(core.OpAgent, "exp.comp.agent", core.NewParams())
		return nil
	}); err != nil {
		return nil, err
	}

	if err := reg.RegisterStep("exp.decide", func(ctx agent.StepContext) error {
		rolled, err := ctx.WRO().Has("rolled")
		if err != nil {
			return err
		}
		if rolled {
			return ctx.SRO().Set("ok", true)
		}
		return ctx.RollbackCurrentSub()
	}); err != nil {
		return nil, err
	}

	withdraw := func(ctx agent.CompContext) error {
		var amt int64
		if err := ctx.Params().Get("amt", &amt); err != nil {
			return err
		}
		r, err := ctx.Resource("bank")
		if err != nil {
			return err
		}
		return r.(*resource.Bank).Withdraw(ctx.Tx(), sinkAccount, amt)
	}
	markRolled := func(ctx agent.CompContext) error {
		wro, err := ctx.WRO()
		if err != nil {
			return err
		}
		return wro.Set("rolled", true)
	}
	if err := reg.RegisterComp("exp.comp.res", withdraw); err != nil {
		return nil, err
	}
	if err := reg.RegisterComp("exp.comp.agent", markRolled); err != nil {
		return nil, err
	}
	if err := reg.RegisterComp("exp.comp.mixed", func(ctx agent.CompContext) error {
		if err := withdraw(ctx); err != nil {
			return err
		}
		return markRolled(ctx)
	}); err != nil {
		return nil, err
	}

	if err := cl.Start(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Nodes; i++ {
		name := workerName(i)
		nd, ok := cl.Node(name)
		if !ok {
			return nil, fmt.Errorf("experiments: node %s missing", name)
		}
		if err := cl.WithTx(name, func(tx *txn.Tx, _ *node.Node) error {
			r, _ := nd.Resource("bank")
			return r.(*resource.Bank).OpenAccount(tx, sinkAccount, 0)
		}); err != nil {
			return nil, err
		}
	}
	return cl, nil
}

// pipelineItinerary builds the itinerary for cfg.
func pipelineItinerary(cfg PipelineConfig) (*itinerary.Itinerary, error) {
	step := func(i int) itinerary.Entry {
		return itinerary.Step{Method: "exp.work", Loc: workerName(i % cfg.Nodes)}
	}
	if cfg.TopLevelGroup > 0 {
		if cfg.Rollback {
			return nil, errors.New("experiments: TopLevelGroup with Rollback is not supported")
		}
		var subs []*itinerary.Sub
		for start := 0; start < cfg.Steps; start += cfg.TopLevelGroup {
			end := start + cfg.TopLevelGroup
			if end > cfg.Steps {
				end = cfg.Steps
			}
			sub := &itinerary.Sub{ID: fmt.Sprintf("part%d", start)}
			for i := start; i < end; i++ {
				sub.Entries = append(sub.Entries, step(i))
			}
			subs = append(subs, sub)
		}
		subs = append(subs, &itinerary.Sub{ID: "final", Entries: []itinerary.Entry{
			itinerary.Step{Method: "exp.decide", Loc: workerName(0)},
		}})
		return itinerary.New(subs...)
	}
	sub := &itinerary.Sub{ID: "job"}
	for i := 0; i < cfg.Steps; i++ {
		sub.Entries = append(sub.Entries, step(i))
	}
	sub.Entries = append(sub.Entries, itinerary.Step{Method: "exp.decide", Loc: workerName(0)})
	return itinerary.New(sub)
}

// launchPipeline builds and launches the pipeline agent on cl.
func launchPipeline(cl *cluster.Cluster, cfg PipelineConfig, id string) (<-chan cluster.Result, error) {
	it, err := pipelineItinerary(cfg)
	if err != nil {
		return nil, err
	}
	a, entered, err := agent.New(id, "", it)
	if err != nil {
		return nil, err
	}
	mixed := cfg.Mixed
	if mixed == nil {
		mixed = make([]bool, cfg.Steps)
	}
	if err := a.WRO.Set("mixedflags", mixed); err != nil {
		return nil, err
	}
	if err := a.WRO.Set("payload", cfg.PayloadBytes); err != nil {
		return nil, err
	}
	if !cfg.Rollback {
		if err := a.WRO.Set("rolled", true); err != nil {
			return nil, err
		}
	}
	return cl.Launch(a, entered, workerName(0))
}

// RunPipeline executes one pipeline agent to completion and returns
// duration, metric deltas and the final agent.
func RunPipeline(cfg PipelineConfig) (PipelineResult, error) {
	cl, err := BuildPipelineCluster(cfg)
	if err != nil {
		return PipelineResult{}, err
	}
	defer cl.Close()
	return RunPipelineOn(cl, cfg, "exp-agent")
}

func RunPipelineOn(cl *cluster.Cluster, cfg PipelineConfig, id string) (PipelineResult, error) {
	before := cl.Counters().Snapshot()
	start := time.Now()
	ch, err := launchPipeline(cl, cfg, id)
	if err != nil {
		return PipelineResult{}, err
	}
	timer := time.NewTimer(runTimeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		elapsed := time.Since(start)
		// The source of the last hand-off settles after the agent
		// completed; its writes belong to this run.
		if err := cl.AwaitSettled(runTimeout); err != nil {
			return PipelineResult{}, err
		}
		out := PipelineResult{
			Elapsed: elapsed,
			Metrics: cl.Counters().Snapshot().Sub(before),
			Agent:   res.Agent,
			Failed:  res.Failed,
			Reason:  res.Reason,
		}
		if !res.Failed {
			if err := verifyPipeline(cl, cfg); err != nil {
				return out, err
			}
		}
		return out, nil
	case <-timer.C:
		return PipelineResult{}, fmt.Errorf("experiments: agent %s timed out", id)
	}
}

// verifyPipeline checks the money invariant: the sum over all sink
// accounts equals Steps×deposit — forward runs deposit once, rollback runs
// deposit, compensate, and deposit again.
func verifyPipeline(cl *cluster.Cluster, cfg PipelineConfig) error {
	var total int64
	for i := 0; i < cfg.Nodes; i++ {
		name := workerName(i)
		nd, ok := cl.Node(name)
		if !ok {
			return fmt.Errorf("experiments: node %s missing", name)
		}
		if err := cl.WithTx(name, func(tx *txn.Tx, _ *node.Node) error {
			r, _ := nd.Resource("bank")
			bal, err := r.(*resource.Bank).Balance(tx, sinkAccount)
			total += bal
			return err
		}); err != nil {
			return err
		}
	}
	want := int64(cfg.Steps) * depositPerStep
	if total != want {
		return fmt.Errorf("experiments: sink total %d, want %d (compensation incorrect)", total, want)
	}
	return nil
}

// MixedFlags returns a Steps-length flag vector with the given fraction of
// mixed-compensation steps, spread evenly.
func MixedFlags(steps int, fraction float64) []bool {
	out := make([]bool, steps)
	if fraction <= 0 {
		return out
	}
	want := int(fraction*float64(steps) + 0.5)
	if want > steps {
		want = steps
	}
	if want == 0 {
		return out
	}
	stride := float64(steps) / float64(want)
	for k := 0; k < want; k++ {
		out[int(float64(k)*stride)] = true
	}
	return out
}
