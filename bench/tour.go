package main

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
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

// launchTimeout is how long an owner waits for a result before counting
// the agent as failed.
const launchTimeout = 30 * time.Second

// payloadBlock is the source of SRO payload bytes.
var payloadBlock = func() []byte {
	b := make([]byte, 1536)
	rand.New(rand.NewSource(1)).Read(b)
	return b
}()

// tourSystem is the in-process system under test: a 4-node cluster on
// network.Sim running tours of bench.work steps.
type tourSystem struct {
	w        workload
	rec      *recorder // nil in untraced runs
	cl       *cluster.Cluster
	counters *metrics.Counters
}

// newTourSystem builds the cluster and opens the sink accounts. dir
// holds durable engines' data; traced runs always get one (see the
// wrapper-engine quirk in README.md).
func newTourSystem(w workload, dir string, rec *recorder, probe *storeProbe) (*tourSystem, error) {
	counters := &metrics.Counters{}
	spec := stable.Spec{Engine: w.engine, Counters: counters}
	if probe != nil {
		spec.Engine = probe.engine
	}
	if spec.Durable() {
		spec.Dir = filepath.Join(dir, "store")
	}
	cl := cluster.New(cluster.Options{
		Optimized: true,
		Latency:   w.latency,
		Workers:   1,
		Counters:  counters,
		Store:     spec,
	})
	s := &tourSystem{w: w, rec: rec, cl: cl, counters: counters}
	for i := 0; i < tourNodes; i++ {
		var factories []node.ResourceFactory
		for b := 0; b < tourBanks; b++ {
			name := tourBank(b)
			factories = append(factories, func(store stable.Store) (resource.Resource, error) {
				return resource.NewBank(store, name, true)
			})
		}
		if err := cl.AddNode(tourNode(i), factories...); err != nil {
			cl.Close()
			return nil, err
		}
	}
	if err := s.register(); err != nil {
		cl.Close()
		return nil, err
	}
	if err := cl.Start(); err != nil {
		cl.Close()
		return nil, err
	}
	for i := 0; i < tourNodes; i++ {
		err := s.eachBank(tourNode(i), func(tx *txn.Tx, b *resource.Bank) error {
			return b.OpenAccount(tx, sinkAcct, 0)
		})
		if err != nil {
			cl.Close()
			return nil, err
		}
	}
	return s, nil
}

// eachBank runs fn on every bank of one node inside one transaction.
func (s *tourSystem) eachBank(nodeName string, fn func(*txn.Tx, *resource.Bank) error) error {
	return s.cl.WithTx(nodeName, func(tx *txn.Tx, n *node.Node) error {
		for b := 0; b < tourBanks; b++ {
			r, ok := n.Resource(tourBank(b))
			if !ok {
				return fmt.Errorf("node %s: no %s", nodeName, tourBank(b))
			}
			if err := fn(tx, r.(*resource.Bank)); err != nil {
				return err
			}
		}
		return nil
	})
}

// register installs the harness's own step and compensation functions.
// They are the seam for the agent and resource spans: with a nil recorder
// every now() is 0 and nothing is recorded.
func (s *tourSystem) register() error {
	rec := s.rec
	reg := s.cl.Registry()
	bankOf := func(sp *agent.Space) (string, error) {
		var bank string
		return bank, sp.MustGet("bank", &bank)
	}
	withdraw := func(ctx agent.CompContext) error {
		var bank string
		if err := ctx.Params().Get("bank", &bank); err != nil {
			return err
		}
		r, err := ctx.Resource(bank)
		if err != nil {
			return err
		}
		return r.(*resource.Bank).Withdraw(ctx.Tx(), sinkAcct, 1)
	}
	markRolled := func(ctx agent.CompContext) error {
		wro, err := ctx.WRO()
		if err != nil {
			return err
		}
		return wro.Set("rolled", true)
	}
	// comp wraps a compensation with its span; the agent ID travels in
	// the entry's parameters because CompContext does not expose it.
	comp := func(fn agent.CompFunc) agent.CompFunc {
		return func(ctx agent.CompContext) error {
			t0 := rec.now()
			err := fn(ctx)
			if t0 != 0 {
				var id string
				_ = ctx.Params().Get("id", &id)
				rec.add(id, spanComp, ctx.NodeName(), spanAgent, t0)
			}
			return err
		}
	}

	err := reg.RegisterStep("bench.work", func(ctx agent.StepContext) error {
		t0 := rec.now()
		defer func() { rec.add(ctx.AgentID(), spanStep, ctx.NodeName(), spanAgent, t0) }()
		bank, err := bankOf(ctx.WRO())
		if err != nil {
			return err
		}
		var mixed int
		if err := ctx.WRO().MustGet("mixed", &mixed); err != nil {
			return err
		}
		r, ok := ctx.Resource(bank)
		if !ok {
			return errors.New("bench.work: no " + bank + " on " + ctx.NodeName())
		}
		t1 := rec.now()
		err = r.(*resource.Bank).Deposit(ctx.Tx(), sinkAcct, 1)
		rec.add(ctx.AgentID(), spanResource, ctx.NodeName(), spanStep, t1)
		if err != nil {
			return err
		}
		seq := ctx.StepSeq()
		var sizes []int
		if ok, err := ctx.WRO().Get("sizes", &sizes); err != nil {
			return err
		} else if ok {
			if err := ctx.SRO().Set(fmt.Sprintf("p%d", seq), payloadBlock[:sizes[seq]]); err != nil {
				return err
			}
		}
		if mixed>>seq&1 == 1 {
			ctx.LogComp(core.OpMixed, "bench.comp.mixed",
				core.NewParams().Set("bank", bank).Set("id", ctx.AgentID()))
		} else {
			ctx.LogComp(core.OpResource, "bench.comp.resource",
				core.NewParams().Set("bank", bank).Set("id", ctx.AgentID()))
			ctx.LogComp(core.OpAgent, "bench.comp.agent",
				core.NewParams().Set("id", ctx.AgentID()))
		}
		return nil
	})
	if err != nil {
		return err
	}
	// The scheduler's conflict hint, as a deployment with banks would
	// register it (cmd/loadgen does).
	err = reg.RegisterStepHints("bench.work", func(a *agent.Agent, _ itinerary.Step) []string {
		bank, err := bankOf(a.WRO)
		if err != nil {
			return nil
		}
		return []string{bank}
	})
	if err != nil {
		return err
	}
	err = reg.RegisterStep("bench.decide", func(ctx agent.StepContext) error {
		t0 := rec.now()
		defer func() { rec.add(ctx.AgentID(), spanStep, ctx.NodeName(), spanAgent, t0) }()
		wantRollback, err := ctx.WRO().Has("rollback")
		if err != nil {
			return err
		}
		rolled, err := ctx.WRO().Has("rolled")
		if err != nil {
			return err
		}
		if wantRollback && !rolled {
			return ctx.RollbackCurrentSub()
		}
		return ctx.SRO().Set("ok", true)
	})
	if err != nil {
		return err
	}
	if err := reg.RegisterComp("bench.comp.resource", comp(withdraw)); err != nil {
		return err
	}
	if err := reg.RegisterComp("bench.comp.agent", comp(markRolled)); err != nil {
		return err
	}
	return reg.RegisterComp("bench.comp.mixed", comp(func(ctx agent.CompContext) error {
		if err := withdraw(ctx); err != nil {
			return err
		}
		return markRolled(ctx)
	}))
}

// buildAgent turns a generated spec into an agent: tourSteps bench.work
// steps round-robin over the nodes from spec.start, then bench.decide
// back at the start node.
func (s *tourSystem) buildAgent(spec tourSpec) (*agent.Agent, []string, error) {
	sub := &itinerary.Sub{ID: "tour"}
	for i := 0; i < tourSteps; i++ {
		sub.Entries = append(sub.Entries, itinerary.Step{Method: "bench.work", Loc: tourNode(spec.start + i)})
	}
	sub.Entries = append(sub.Entries, itinerary.Step{Method: "bench.decide", Loc: tourNode(spec.start)})
	it, err := itinerary.New(sub)
	if err != nil {
		return nil, nil, err
	}
	a, entered, err := agent.NewAt(spec.id, "", it, tourNode(spec.start))
	if err != nil {
		return nil, nil, err
	}
	if err := a.WRO.Set("bank", tourBank(spec.bank)); err != nil {
		return nil, nil, err
	}
	if err := a.WRO.Set("mixed", spec.mixed); err != nil {
		return nil, nil, err
	}
	if spec.sizes != nil {
		if err := a.WRO.Set("sizes", spec.sizes); err != nil {
			return nil, nil, err
		}
		if err := a.WRO.Set("rollback", true); err != nil {
			return nil, nil, err
		}
	}
	return a, entered, nil
}

// run launches one generated agent and waits for its result.
func (s *tourSystem) run(owner, n int, rng *rand.Rand) (id, problem string, err error) {
	spec := nextTourSpec(s.w, owner, n, rng)
	a, entered, err := s.buildAgent(spec)
	if err != nil {
		return spec.id, err.Error(), err
	}
	root := s.rec.now()
	defer func() { s.rec.add(spec.id, spanAgent, "owner", "", root) }()
	ch, err := s.cl.Launch(a, entered, tourNode(spec.start))
	s.rec.add(spec.id, spanLaunch, "owner", spanAgent, root)
	if err != nil {
		return spec.id, err.Error(), err
	}
	timer := time.NewTimer(launchTimeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		return spec.id, s.checkResult(res), nil
	case <-timer.C:
		return spec.id, "timed out", nil
	}
}

func (s *tourSystem) checkResult(res cluster.Result) string {
	switch {
	case res.Failed:
		return "failed: " + res.Reason
	case res.Agent == nil:
		return "result carries no agent"
	}
	if ok, err := res.Agent.SRO.Has("ok"); err != nil || !ok {
		return "no ok in SRO"
	}
	if s.w.rollback {
		if ok, err := res.Agent.WRO.Has("rolled"); err != nil || !ok {
			return "no rolled in WRO"
		}
	}
	return ""
}

func (s *tourSystem) scrape() (counts, error) {
	c := make(counts)
	return c, c.merge(renderCounters(s.counters))
}

func (s *tourSystem) wireBytes(delta counts) float64   { return delta.get("bytes_sent") }
func (s *tourSystem) stableBytes(delta counts) float64 { return delta.get("stable_bytes") }

// containers is empty: an in-process cluster's containers are captured
// at the store seam instead.
func (s *tourSystem) containers() [][]byte { return nil }

// cpu returns the CPU time of the system under test by process; the
// whole in-process cluster lives in this one.
func (s *tourSystem) cpu() (map[string]time.Duration, error) {
	return map[string]time.Duration{"self": selfCPU()}, nil
}

func (s *tourSystem) peakRSS() int64 { return peakRSS(0) }

// verify checks the exactly-once invariants over the whole run: every
// completed tour left exactly tourSteps deposits in the sinks (a rolled
// back tour deposits 16 and compensates 8), and the committed transaction
// counts are the exact per-tour multiples.
func (s *tourSystem) verify(completed int, delta counts) []string {
	var problems []string
	var total int64
	for i := 0; i < tourNodes; i++ {
		err := s.eachBank(tourNode(i), func(tx *txn.Tx, b *resource.Bank) error {
			bal, err := b.Balance(tx, sinkAcct)
			total += bal
			return err
		})
		if err != nil {
			problems = append(problems, "sink balance: "+err.Error())
		}
	}
	if want := int64(completed * tourSteps); total != want {
		problems = append(problems, fmt.Sprintf("sink total %d, want %d (exactly-once violated)", total, want))
	}
	steps, comps := tourSteps+1, 0
	if s.w.rollback {
		steps, comps = 2*tourSteps+1, tourSteps
	}
	if got, want := delta.get("step_txns"), float64(completed*steps); got != want {
		problems = append(problems, fmt.Sprintf("step txns %v, want %v", got, want))
	}
	if got, want := delta.get("comp_txns"), float64(completed*comps); got != want {
		problems = append(problems, fmt.Sprintf("comp txns %v, want %v", got, want))
	}
	return problems
}

func (s *tourSystem) close() error {
	s.cl.Close()
	return nil
}
