package experiments

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/itinerary"
	"repro/internal/node"
	"repro/internal/resource"
	"repro/internal/stable"
	"repro/internal/txn"
)

// expLatency is the simulated one-way network latency used by the
// cluster-based experiments; it makes transfer counts visible in elapsed
// times without slowing the suite down.
const expLatency = 200 * time.Microsecond

// Fig1 measures the normal (forward) execution of Figure 1: per-step cost
// and agent transfer volume as the agent's strongly reversible payload
// grows. The paper's model predicts transfer size — and with it per-step
// latency — to grow with the agent state the protocol must move and log.
func Fig1() (*Table, error) {
	t := &Table{
		Title:  "F1 (Figure 1): step execution cost vs agent payload",
		Note:   "8 steps over 4 nodes, forward execution only (no rollback)",
		Header: []string{"payload B/step", "elapsed ms", "ms/step", "transfers", "transfer KB", "stable KB"},
	}
	for _, payload := range []int{0, 1 << 10, 8 << 10, 32 << 10} {
		res, err := RunPipeline(PipelineConfig{
			Nodes: 4, Steps: 8, PayloadBytes: payload,
			Latency: expLatency,
		})
		if err != nil {
			return nil, err
		}
		if res.Failed {
			return nil, errors.New("fig1: " + res.Reason)
		}
		ms := float64(res.Elapsed.Microseconds()) / 1000
		t.AddRow(payload, ms, ms/8,
			res.Metrics.AgentTransfers,
			float64(res.Metrics.AgentTransferByte)/1024,
			float64(res.Metrics.StableBytes)/1024)
	}
	return t, nil
}

// Fig2 reproduces the rollback-log layout of Figure 2 and measures the
// encoded log size as the number of operation entries per step grows.
func Fig2() (*Table, error) {
	t := &Table{
		Title:  "F2 (Figure 2): rollback log layout and size vs operation entries per step",
		Header: []string{"OEs/step", "steps", "entries", "encoded KB", "B/entry"},
	}
	for _, p := range []int{1, 4, 16, 64} {
		var l core.Log
		if err := l.AppendSavepoint("k", map[string][]byte{"v": make([]byte, 64)}, core.StateLogging, true); err != nil {
			return nil, err
		}
		const steps = 8
		for s := 0; s < steps; s++ {
			l.Append(&core.BeginStepEntry{Node: "n", Seq: s})
			for i := 0; i < p; i++ {
				l.Append(&core.OpEntry{
					Kind:   core.OpResource,
					Op:     "bank.untransfer",
					Params: core.NewParams().Set("from", "a").Set("to", "b").Set("amt", int64(i)),
				})
			}
			l.Append(&core.EndStepEntry{Node: "n", Seq: s})
		}
		size, err := l.EncodedSize()
		if err != nil {
			return nil, err
		}
		t.AddRow(p, steps, l.Len(), float64(size)/1024, float64(size)/float64(l.Len()))
	}
	// Layout check: the exact Figure-2 sequence.
	var l core.Log
	if err := l.AppendSavepoint("k", nil, core.StateLogging, true); err != nil {
		return nil, err
	}
	l.Append(&core.BeginStepEntry{Node: "n", Seq: 0})
	l.Append(&core.OpEntry{Kind: core.OpResource, Op: "oe1", Params: core.NewParams()})
	l.Append(&core.OpEntry{Kind: core.OpResource, Op: "oe2", Params: core.NewParams()})
	l.Append(&core.EndStepEntry{Node: "n", Seq: 0})
	t.Note = "layout: " + l.String()
	return t, nil
}

// Fig3 measures partial-rollback cost (Figure 3/4 mechanism) as a function
// of the number of committed steps rolled back: the rollback revisits every
// step's node in reverse, so cost should grow linearly with rollback depth.
func Fig3() (*Table, error) {
	t := &Table{
		Title:  "F3 (Figures 3-4): rollback cost vs steps rolled back (basic algorithm)",
		Note:   "forward column is the same workload without the rollback; diff isolates the rollback",
		Header: []string{"steps", "forward ms", "with-rollback ms", "rollback ms", "comp txns", "comp ops", "transfers"},
	}
	for _, k := range []int{2, 4, 8, 16} {
		fwd, err := RunPipeline(PipelineConfig{
			Nodes: 4, Steps: k, Latency: expLatency,
		})
		if err != nil {
			return nil, err
		}
		rb, err := RunPipeline(PipelineConfig{
			Nodes: 4, Steps: k, Latency: expLatency, Rollback: true,
		})
		if err != nil {
			return nil, err
		}
		if fwd.Failed || rb.Failed {
			return nil, fmt.Errorf("fig3: failed: %s %s", fwd.Reason, rb.Reason)
		}
		fms := float64(fwd.Elapsed.Microseconds()) / 1000
		rms := float64(rb.Elapsed.Microseconds()) / 1000
		t.AddRow(k, fms, rms, rms-2*fms, rb.Metrics.CompTxns, rb.Metrics.CompOps, rb.Metrics.AgentTransfers)
	}
	return t, nil
}

// Fig4 injects a node crash into a running rollback and verifies the
// mechanism's eventual-completion guarantee (Figure 4 discussion, §4.3):
// the agent and its log survive in stable input queues, the crashed node
// recovers, the compensation transaction restarts, and the rollback still
// produces exactly-once compensation.
func Fig4() (*Table, error) {
	t := &Table{
		Title:  "F4 (Figure 4): rollback completion under node crash + recovery",
		Note:   "8 steps over 4 nodes, basic algorithm; w2 crashes after the first compensation commits and recovers 25 ms later",
		Header: []string{"variant", "completed", "elapsed ms", "comp txns", "comp txn aborts", "step txn aborts"},
	}
	for _, crash := range []bool{false, true} {
		cfg := PipelineConfig{Nodes: 4, Steps: 8, Latency: expLatency, Rollback: true}
		cl, err := BuildPipelineCluster(cfg)
		if err != nil {
			return nil, err
		}
		if crash {
			go func() {
				deadline := time.Now().Add(runTimeout)
				for time.Now().Before(deadline) {
					if cl.Counters().Snapshot().CompTxns >= 1 {
						if err := cl.Crash("w2"); err == nil {
							time.Sleep(25 * time.Millisecond)
							_ = cl.Recover("w2")
						}
						return
					}
					time.Sleep(time.Millisecond)
				}
			}()
		}
		res, err := RunPipelineOn(cl, cfg, "fig4-agent")
		cl.Close()
		if err != nil {
			return nil, err
		}
		variant := "no crash"
		if crash {
			variant = "crash w2 during rollback"
		}
		t.AddRow(variant, !res.Failed,
			float64(res.Elapsed.Microseconds())/1000,
			res.Metrics.CompTxns, res.Metrics.CompTxnAborts, res.Metrics.StepTxnAborts)
	}
	return t, nil
}

// Fig5 is the headline comparison: the basic rollback algorithm (Figure 4)
// against the optimized one (Figure 5) across the fraction of steps whose
// compensation contains a mixed entry. Prose claim (§4.4.1): the
// optimization avoids agent transfers and reduces network load whenever no
// mixed entry forces the agent to the resource node; the two algorithms
// converge as the mixed fraction approaches 1.
func Fig5() (*Table, error) {
	t := &Table{
		Title:  "F5 (Figure 5): basic vs optimized rollback vs mixed-compensation fraction",
		Note:   "12 steps over 5 nodes, all rolled back; transfers/bytes cover the whole run (forward legs are identical)",
		Header: []string{"mixed frac", "algorithm", "agent transfers", "transfer KB", "RCE batches", "messages", "elapsed ms"},
	}
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1} {
		for _, optimized := range []bool{false, true} {
			res, err := RunPipeline(PipelineConfig{
				Nodes: 5, Steps: 12,
				Mixed:     MixedFlags(12, frac),
				Optimized: optimized,
				Latency:   expLatency,
				Rollback:  true,
			})
			if err != nil {
				return nil, err
			}
			if res.Failed {
				return nil, errors.New("fig5: " + res.Reason)
			}
			alg := "basic (Fig. 4)"
			if optimized {
				alg = "optimized (Fig. 5)"
			}
			t.AddRow(fmt.Sprintf("%.2f", frac), alg,
				res.Metrics.AgentTransfers,
				float64(res.Metrics.AgentTransferByte)/1024,
				res.Metrics.RemoteCompBatches,
				res.Metrics.Messages,
				float64(res.Elapsed.Microseconds())/1000)
		}
	}
	return t, nil
}

// Fig6 measures the log-size reduction of the itinerary integration
// (Figure 6, §4.4.2): flat per-step savepoints versus hierarchical
// top-level sub-itineraries that discard the log on completion, under both
// state and transition logging.
func Fig6() (*Table, error) {
	t := &Table{
		Title:  "F6 (Figure 6): rollback-log size — flat savepoints vs itinerary-managed",
		Note:   "24 steps, 512 B of new SRO data per step; peak = largest encoded log observed",
		Header: []string{"structure", "logging", "savepoints", "peak log KB"},
	}
	type variant struct {
		name  string
		group int
		spAll bool
		mode  core.LogMode
	}
	variants := []variant{
		{"flat, savepoint every step", 0, true, core.StateLogging},
		{"flat, savepoint every step", 0, true, core.TransitionLogging},
		{"4 top-level subs of 6", 6, false, core.StateLogging},
		{"4 top-level subs of 6", 6, false, core.TransitionLogging},
	}
	for _, v := range variants {
		res, err := RunPipeline(PipelineConfig{
			Nodes: 4, Steps: 24,
			PayloadBytes:       512,
			LogMode:            v.mode,
			Latency:            expLatency,
			SavepointEveryStep: v.spAll,
			TopLevelGroup:      v.group,
		})
		if err != nil {
			return nil, err
		}
		if res.Failed {
			return nil, errors.New("fig6: " + res.Reason)
		}
		mode := "state"
		if v.mode == core.TransitionLogging {
			mode = "transition"
		}
		t.AddRow(v.name, mode, res.Metrics.Savepoints, float64(res.Metrics.LogBytesPeak)/1024)
	}
	return t, nil
}

// TLog compares state and transition logging of strongly reversible
// objects (§4.2) in isolation: savepoint-entry sizes for an SRO set of
// fixed size with a varying mutation fraction between savepoints.
func TLog() (*Table, error) {
	t := &Table{
		Title:  "T-log (§4.2): savepoint size — state vs transition logging",
		Note:   "64 SRO objects x 512 B, 8 savepoints; fraction of objects mutated between savepoints varies",
		Header: []string{"mutated frac", "state log KB", "transition log KB", "ratio"},
	}
	const (
		objects = 64
		objSize = 512
		spCount = 8
	)
	for _, frac := range []float64{0.05, 0.25, 1.0} {
		sizes := make(map[core.LogMode]int, 2)
		for _, mode := range []core.LogMode{core.StateLogging, core.TransitionLogging} {
			sro := make(map[string][]byte, objects)
			for i := 0; i < objects; i++ {
				sro[fmt.Sprintf("obj%02d", i)] = make([]byte, objSize)
			}
			var l core.Log
			mutate := int(frac * objects)
			for sp := 0; sp < spCount; sp++ {
				for i := 0; i < mutate; i++ {
					key := fmt.Sprintf("obj%02d", (sp*mutate+i)%objects)
					buf := make([]byte, objSize)
					buf[0] = byte(sp + 1)
					sro[key] = buf
				}
				if err := l.AppendSavepoint(fmt.Sprintf("sp%d", sp), sro, mode, true); err != nil {
					return nil, err
				}
				// Sanity: reconstruction matches the captured state.
				got, err := l.ReconstructSRO(fmt.Sprintf("sp%d", sp))
				if err != nil {
					return nil, err
				}
				if len(got) != len(sro) {
					return nil, errors.New("tlog: reconstruction mismatch")
				}
			}
			size, err := l.EncodedSize()
			if err != nil {
				return nil, err
			}
			sizes[mode] = size
		}
		state := float64(sizes[core.StateLogging]) / 1024
		trans := float64(sizes[core.TransitionLogging]) / 1024
		t.AddRow(fmt.Sprintf("%.2f", frac), state, trans, trans/state)
	}
	return t, nil
}

// TFT demonstrates the §4.3 discussion: a rollback whose compensation node
// is permanently unreachable blocks, while alternative nodes recorded in
// the end-of-step entry let the fault-tolerant variant complete.
func TFT() (*Table, error) {
	t := &Table{
		Title:  "T-ft (§4.3): rollback with a permanently unreachable node",
		Note:   "the payment node dies after the step commits; 'alt' names an alternative node in the step entry",
		Header: []string{"variant", "outcome", "waited ms"},
	}
	for _, withAlt := range []bool{false, true} {
		outcome, waited, err := runUnreachable(withAlt)
		if err != nil {
			return nil, err
		}
		variant := "no alternatives"
		if withAlt {
			variant = "alternative node in EOS"
		}
		t.AddRow(variant, outcome, float64(waited.Microseconds())/1000)
	}
	return t, nil
}

// runUnreachable builds the three-node pay/decide scenario, kills the
// payment node permanently after its step committed, and reports whether
// the agent completes.
func runUnreachable(withAlt bool) (string, time.Duration, error) {
	cl := cluster.New(cluster.Options{
		Optimized:   true,
		Latency:     expLatency,
		RetryDelay:  2 * time.Millisecond,
		AckTimeout:  50 * time.Millisecond,
		MaxAttempts: 60,
	})
	defer cl.Close()
	bank := func(store stable.Store) (resource.Resource, error) {
		return resource.NewBank(store, "bank", true)
	}
	for _, n := range []string{"home", "res", "alt"} {
		var fs []node.ResourceFactory
		if n != "home" {
			fs = append(fs, node.ResourceFactory(bank))
		}
		if err := cl.AddNode(n, fs...); err != nil {
			return "", 0, err
		}
	}
	var decideStarted atomic.Bool
	reg := cl.Registry()
	if err := reg.RegisterStep("tft.pay", func(ctx agent.StepContext) error {
		if again, err := ctx.WRO().Has("second"); err != nil || again {
			return err
		}
		r, _ := ctx.Resource("bank")
		if err := r.(*resource.Bank).Deposit(ctx.Tx(), "m", 100); err != nil {
			return err
		}
		ctx.LogComp(core.OpResource, "tft.comp.pay", core.NewParams().Set("amt", int64(100)))
		ctx.LogComp(core.OpAgent, "tft.comp.mark", core.NewParams())
		return nil
	}); err != nil {
		return "", 0, err
	}
	if err := reg.RegisterStep("tft.decide", func(ctx agent.StepContext) error {
		decideStarted.Store(true)
		if done, err := ctx.WRO().Has("second"); err != nil {
			return err
		} else if done {
			return nil
		}
		return ctx.RollbackCurrentSub()
	}); err != nil {
		return "", 0, err
	}
	if err := reg.RegisterComp("tft.comp.pay", func(ctx agent.CompContext) error {
		r, err := ctx.Resource("bank")
		if err != nil {
			return err
		}
		var amt int64
		if err := ctx.Params().Get("amt", &amt); err != nil {
			return err
		}
		return r.(*resource.Bank).Withdraw(ctx.Tx(), "m", amt)
	}); err != nil {
		return "", 0, err
	}
	if err := reg.RegisterComp("tft.comp.mark", func(ctx agent.CompContext) error {
		wro, err := ctx.WRO()
		if err != nil {
			return err
		}
		return wro.Set("second", true)
	}); err != nil {
		return "", 0, err
	}
	if err := cl.Start(); err != nil {
		return "", 0, err
	}
	for _, n := range []string{"res", "alt"} {
		name := n
		nd, _ := cl.Node(name)
		if err := cl.WithTx(name, func(tx *txn.Tx, _ *node.Node) error {
			r, _ := nd.Resource("bank")
			return r.(*resource.Bank).OpenAccount(tx, "m", 0)
		}); err != nil {
			return "", 0, err
		}
	}

	payStep := itinerary.Step{Method: "tft.pay", Loc: "res"}
	if withAlt {
		payStep.Alt = []string{"alt"}
	}
	it, err := itinerary.New(&itinerary.Sub{ID: "job", Entries: []itinerary.Entry{
		payStep,
		itinerary.Step{Method: "tft.decide", Loc: "home"},
	}})
	if err != nil {
		return "", 0, err
	}
	a, entered, err := agent.New("tft-agent", "", it)
	if err != nil {
		return "", 0, err
	}
	start := time.Now()
	ch, err := cl.Launch(a, entered, "res")
	if err != nil {
		return "", 0, err
	}
	// Kill the payment node once the agent safely moved past it.
	for !decideStarted.Load() {
		if time.Since(start) > runTimeout {
			return "", 0, errors.New("tft: decide never reached")
		}
		time.Sleep(time.Millisecond)
	}
	if err := cl.Crash("res"); err != nil {
		return "", 0, err
	}

	timeout := 2 * time.Second
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		if res.Failed {
			return "failed: " + res.Reason, time.Since(start), nil
		}
		return "completed via alternative", time.Since(start), nil
	case <-timer.C:
		return "blocked (still retrying)", timeout, nil
	}
}

// Experiment is one named experiment of the suite; Desc is its one-line
// description in `rollbacksim -list`.
type Experiment struct {
	Name string
	Desc string
	Run  func() (*Table, error)
}

// List returns every experiment in suite order.
func List() []Experiment {
	return []Experiment{
		{"f1", "Figure 1: step execution cost vs agent payload", Fig1},
		{"f2", "Figure 2: rollback log layout and size", Fig2},
		{"f3", "Figures 3-4: rollback cost vs steps rolled back", Fig3},
		{"f4", "Figure 4: rollback under node crash + recovery", Fig4},
		{"f5", "Figure 5: basic vs optimized rollback", Fig5},
		{"f6", "Figure 6: log size, flat vs itinerary-managed", Fig6},
		{"tlog", "§4.2: state vs transition logging", TLog},
		{"tft", "§4.3: rollback with an unreachable node", TFT},
		{"tperf", "§4.4.1: remote-compensation strategy model ([16])", TPerf},
		{"chaos", "seeded fault schedules vs §4.3 invariants (replay: loadgen -chaos)", Chaos},
	}
}
