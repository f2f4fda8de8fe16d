package chaos

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/agent"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/itinerary"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/resource"
	"repro/internal/stable"
	_ "repro/internal/stable/wal" // registers the wal engine for stable.Open
	"repro/internal/trace"
	"repro/internal/txn"
)

// Options configures one chaos run. The zero value of every field picks a
// default; only Seed distinguishes runs.
type Options struct {
	Seed    int64
	Nodes   int // cluster size (default 3)
	Workers int // scheduler workers per node (default 1)
	Agents  int // concurrent agents (default 12)
	Steps   int // work steps per agent before the decide step (default 5)
	// Banks is the number of bank resources per node (default 1): agent i
	// deposits into bank i mod Banks, and the work step names its bank as
	// the scheduler's conflict hint. One bank is the all-conflict load.
	Banks int

	// Store configures every node's stable storage (Engine defaults to
	// mem). A durable engine roots its files under Store.Dir, a temp dir
	// when empty.
	Store stable.Spec

	// Ring places every step by consistent hash ("@ring:<key>" locations
	// instead of fixed node names) with the membership layer on. A join or
	// leave in the schedule implies it: a joiner owns nothing under static
	// wiring.
	Ring bool

	// RollbackRatio is the fraction of agents whose decide step triggers
	// a partial rollback of the whole sub-itinerary. Zero picks the
	// default 1/3; pass a negative value for a workload with no
	// rollbacks at all. Rolled-back agents must compensate every
	// deposit exactly once.
	RollbackRatio float64

	// StepWork is per-step service time spent inside the step
	// transaction (default 12ms). It stretches the workload across the
	// schedule horizon so fault windows actually intersect live traffic
	// — without it the agents finish before the first fault opens.
	StepWork time.Duration

	Gen     GenConfig     // generator bounds; Nodes is filled in
	Timeout time.Duration // workload-completion bound (default 2min)

	// SkipCompensation deliberately registers a no-op compensation for
	// the deposit — an injected protocol violation the invariant checker
	// must catch (used to validate the harness itself).
	SkipCompensation bool

	// Churn draws this many membership join (and ~half as many leave)
	// events into the schedule, so crashes and partitions fire while
	// live agents migrate between nodes. Churn cells run the workload
	// ring-placed and with rollbacks disabled: a compensation targets the
	// concrete node its step ran on, which may have permanently left.
	Churn int
}

// Defaults returns the Options a zero value runs with: the workload a
// plain Run makes, and the defaults of cmd/loadgen's workload flags.
func Defaults() Options {
	var o Options
	o.fillDefaults()
	return o
}

func (o *Options) fillDefaults() {
	if o.Nodes <= 0 {
		o.Nodes = 3
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Agents <= 0 {
		o.Agents = 12
	}
	if o.Steps <= 0 {
		o.Steps = 5
	}
	if o.Banks <= 0 {
		o.Banks = 1
	}
	if o.Store.Engine == "" {
		o.Store.Engine = "mem"
	}
	if o.Churn > 0 {
		o.RollbackRatio = -1 // see the Churn comment: no rollbacks under churn
	}
	if o.RollbackRatio == 0 {
		o.RollbackRatio = 1.0 / 3
	}
	if o.RollbackRatio < 0 {
		o.RollbackRatio = 0
	}
	if o.StepWork == 0 {
		o.StepWork = 12 * time.Millisecond
	}
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Minute
	}
}

// Violation is one detected invariant breach.
type Violation struct {
	Invariant string // short name: conservation, fifo, agent-failed, ...
	Detail    string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Result reports one executed chaos run.
type Result struct {
	Seed       int64
	Schedule   Schedule
	Elapsed    time.Duration
	Completed  int // agents that delivered a result
	RolledBack int // agents that went through a partial rollback
	Violations []Violation
	Metrics    metrics.Snapshot  // counter diff over the run
	Faults     network.LinkStats // injected message-fault totals
	P50, P99   time.Duration     // successful step-attempt latency
	// GoroutinePeak is the peak runtime.NumGoroutine sampled while the
	// agents were in flight. The event-driven protocol core keeps it
	// O(nodes × workers), independent of the number of in-flight agents.
	GoroutinePeak int
	// Trace is the cluster's merged causal trace; the per-node rings
	// outlive cluster shutdown.
	Trace []trace.Record
	// PostMortem is the causal per-agent timeline dump built from the
	// cluster's trace rings when any invariant was violated: one block
	// per implicated agent with its last transaction, last protocol
	// state edge and timeline tail. Empty on clean runs. It is derived
	// from wall-clock trace timestamps and therefore NOT part of the
	// deterministic replay contract (Schedule and Violations are).
	PostMortem string
}

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// Summary is a one-line digest for logs and tables.
func (r *Result) Summary() string {
	crashes, parts, faults := r.Schedule.Counts()
	verdict := "OK"
	if r.Failed() {
		verdict = fmt.Sprintf("VIOLATIONS=%d", len(r.Violations))
	}
	return fmt.Sprintf("seed=%d crashes=%d partitions=%d faultwins=%d drops=%d dups=%d reorders=%d agents=%d rolledback=%d elapsed=%s %s",
		r.Seed, crashes, parts, faults, r.Faults.Drops, r.Faults.Dups, r.Faults.Reorders,
		r.Completed, r.RolledBack, r.Elapsed.Round(time.Millisecond), verdict)
}

const (
	chaosDeposit = 1
	sinkAccount  = "sink"
)

func nodeName(i int) string { return fmt.Sprintf("w%d", i) }

func agentID(i int) string { return fmt.Sprintf("chaos%04d", i) }

func bankName(b int) string { return fmt.Sprintf("bank%d", b) }

// spreadFlags marks round(ratio*n) of n slots true, spread evenly.
func spreadFlags(n int, ratio float64) []bool {
	out := make([]bool, n)
	k := int(math.Round(ratio * float64(n)))
	if k > n {
		k = n
	}
	if k <= 0 {
		return out
	}
	stride := float64(n) / float64(k)
	for j := 0; j < k; j++ {
		out[int(float64(j)*stride)] = true
	}
	return out
}

// Run executes one seeded chaos run: build the cluster, launch the
// workload, execute the seed's fault schedule concurrently, quiesce, wait
// for every agent, then check the global invariants. An error return
// means the harness itself could not run; protocol misbehaviour is
// reported through Result.Violations instead.
func Run(opts Options) (*Result, error) {
	return run(opts, nil)
}

// RunSchedule executes a hand-crafted (or previously captured) schedule
// instead of expanding one from the seed; everything else matches Run.
func RunSchedule(opts Options, sched Schedule) (*Result, error) {
	return run(opts, &sched)
}

func run(opts Options, fixed *Schedule) (*Result, error) {
	opts.fillDefaults()

	names := make([]string, opts.Nodes)
	for i := range names {
		names[i] = nodeName(i)
	}
	sched := Schedule{}
	if fixed != nil {
		sched = *fixed
	} else {
		sched = Generate(opts.Seed, genConfig(opts, names))
	}
	for _, e := range sched.Events {
		if e.Op == OpJoin || e.Op == OpLeave {
			opts.Ring = true
		}
	}

	if opts.Store.Durable() && opts.Store.Dir == "" {
		dir, err := os.MkdirTemp("", "chaos-"+opts.Store.Engine)
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		opts.Store.Dir = dir
	}
	counters := &metrics.Counters{}
	cl := cluster.New(cluster.Options{
		Optimized:   true,
		Latency:     200 * time.Microsecond,
		RetryDelay:  2 * time.Millisecond,
		AckTimeout:  150 * time.Millisecond,
		MaxAttempts: 5000,
		Workers:     opts.Workers,
		Counters:    counters,
		Store:       opts.Store, // durable engines run real recovery on crash
		FaultSeed:   opts.Seed,  // probabilistic faults replay with the seed
		Membership:  opts.Ring,
	})
	for _, n := range names {
		if err := cl.AddNode(n, banks(opts)...); err != nil {
			return nil, err
		}
	}
	if err := registerWorkload(cl, opts); err != nil {
		return nil, err
	}
	if err := cl.Start(); err != nil {
		return nil, err
	}
	defer cl.Close()
	for _, n := range names {
		if err := openSinks(cl, n, opts); err != nil {
			return nil, err
		}
	}
	res := &Result{Seed: opts.Seed, Schedule: sched}

	rollback := spreadFlags(opts.Agents, opts.RollbackRatio)
	chans := make([]<-chan cluster.Result, opts.Agents)
	before := counters.Snapshot()
	goroutinePeak := sampleGoroutines()
	defer goroutinePeak()
	start := time.Now()
	for i := 0; i < opts.Agents; i++ {
		ch, err := launchAgent(cl, i, rollback[i], opts)
		if err != nil {
			return nil, err
		}
		chans[i] = ch
	}

	execDone := make(chan error, 1)
	go func() { execDone <- execute(cl, sched, start, opts) }()

	deadline := time.NewTimer(opts.Timeout)
	defer deadline.Stop()
	results := make([]cluster.Result, opts.Agents)
	got := make([]bool, opts.Agents)
	timedOut := false
	for i, ch := range chans {
		if timedOut {
			select { // non-blocking: pick up agents that did finish
			case r := <-ch:
				results[i], got[i] = r, true
				res.Completed++
			default:
			}
			continue
		}
	wait:
		select {
		case r := <-ch:
			results[i], got[i] = r, true
			res.Completed++
		case err := <-execDone:
			// A schedule step itself failed (e.g. a node would not
			// recover): fail fast with the real cause instead of
			// letting the workload run into the timeout.
			if err != nil {
				return nil, err
			}
			execDone = nil
			goto wait
		case <-deadline.C:
			timedOut = true
		}
	}
	var stuck []string
	if timedOut {
		for i, ok := range got {
			if !ok {
				stuck = append(stuck, agentID(i))
			}
		}
		res.Violations = append(res.Violations, Violation{
			Invariant: "progress",
			Detail: fmt.Sprintf("agents %v never completed within %s (crashes and partitions were all healed)",
				stuck, opts.Timeout),
		})
	}
	res.Elapsed = time.Since(start)
	res.GoroutinePeak = goroutinePeak()
	if execDone != nil {
		if err := <-execDone; err != nil {
			return nil, err
		}
	}
	// Recovered nodes load their resources in the background; the checks
	// below read them, so wait for every node to finish recovery.
	if err := cl.AwaitReady(30 * time.Second); err != nil {
		return nil, err
	}
	// An agent completes before the source of its last hand-off settles
	// (the node that receives a container decides, and the source hears
	// back afterwards): quiescence includes every branch's verdict.
	if err := cl.AwaitSettled(30 * time.Second); err != nil {
		res.Violations = append(res.Violations, Violation{Invariant: "progress", Detail: err.Error()})
	}

	checkAgents(res, results, got, rollback, opts)
	if err := checkConservation(res, cl, rollback, opts); err != nil {
		return nil, err
	}
	// cl.NodeNames(), not names: joined churn nodes (and drained-out
	// leavers, whose queues must have emptied) are checked too.
	if err := checkQueuesEmpty(res, cl, cl.NodeNames()); err != nil {
		return nil, err
	}
	res.Metrics = counters.Snapshot().Sub(before)
	lat := counters.StepLatency()
	res.P50, res.P99 = lat.P50, lat.P99
	res.Faults = cl.LinkFaultStats()
	cl.Close()
	res.Trace = cl.TraceRecords()
	if err := checkStoresReopen(res, opts.Store, names); err != nil {
		return nil, err
	}
	sortViolations(res.Violations)
	if res.Failed() {
		// A progress violation focuses the dump on the stuck agents;
		// any other violation dumps every agent with trace records.
		res.PostMortem = buildPostMortem(res, stuck)
		writeTimelineArtifact(opts, res)
	}
	return res, nil
}

// sampleGoroutines samples runtime.NumGoroutine every 2ms until the
// returned func is first called; every call returns the peak.
func sampleGoroutines() func() int {
	done := make(chan struct{})
	peak := make(chan int, 1)
	go func() {
		p := runtime.NumGoroutine()
		ticker := time.NewTicker(2 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				peak <- p
				return
			case <-ticker.C:
				p = max(p, runtime.NumGoroutine())
			}
		}
	}()
	return sync.OnceValue(func() int {
		close(done)
		return <-peak
	})
}

// buildPostMortem renders the causal per-agent timelines from the run's
// trace. agents nil means every agent that left records.
func buildPostMortem(res *Result, agents []string) string {
	if len(res.Trace) == 0 {
		return ""
	}
	pms := trace.BuildPostMortem(res.Trace, agents)
	if len(pms) == 0 {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "causal post-mortem: seed %d, %d violation(s)\n", res.Seed, len(res.Violations))
	for _, v := range res.Violations {
		sb.WriteString("  " + v.String() + "\n")
	}
	sb.WriteString("\n")
	trace.WritePostMortem(&sb, pms)
	return sb.String()
}

// writeTimelineArtifact saves the post-mortem next to the schedule
// artifact CI already collects (CHAOS_ARTIFACT_DIR), so a failing seed's
// causal timelines outlive the job log. Best-effort: artifact I/O must
// never mask the violation itself.
func writeTimelineArtifact(opts Options, res *Result) {
	dir := os.Getenv("CHAOS_ARTIFACT_DIR")
	if dir == "" || res.PostMortem == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	name := filepath.Join(dir, fmt.Sprintf("seed-%d-%s-w%d-timeline.txt", opts.Seed, opts.Store.Engine, opts.Workers))
	_ = os.WriteFile(name, []byte(res.PostMortem), 0o644)
}

// genConfig threads the run's node names into the generator bounds.
func genConfig(opts Options, names []string) GenConfig {
	g := opts.Gen
	g.Nodes = names
	if opts.Churn > 0 {
		g.Churn = opts.Churn
		for i := 0; i < opts.Churn; i++ {
			g.JoinNames = append(g.JoinNames, joinName(i))
		}
	}
	return g
}

func joinName(i int) string { return fmt.Sprintf("j%d", i) }

// banks builds one node's bank resources (the initial nodes' and every
// joiner's).
func banks(opts Options) []node.ResourceFactory {
	factories := make([]node.ResourceFactory, opts.Banks)
	for b := range factories {
		factories[b] = func(store stable.Store) (resource.Resource, error) {
			return resource.NewBank(store, bankName(b), true)
		}
	}
	return factories
}

// openSinks opens the sink account in every bank of one node.
func openSinks(cl *cluster.Cluster, name string, opts Options) error {
	nd, ok := cl.Node(name)
	if !ok {
		return fmt.Errorf("chaos: no node %q", name)
	}
	return cl.WithTx(name, func(tx *txn.Tx, _ *node.Node) error {
		for b := 0; b < opts.Banks; b++ {
			r, _ := nd.Resource(bankName(b))
			if err := r.(*resource.Bank).OpenAccount(tx, sinkAccount, 0); err != nil {
				return err
			}
		}
		return nil
	})
}

// registerWorkload registers the chaos steps and compensations: every
// work step deposits into the agent's bank on the local node and logs
// the withdrawing compensation; step 0 also logs the agent-side rollback
// marker. The decide step triggers a partial rollback once for flagged
// agents.
func registerWorkload(cl *cluster.Cluster, opts Options) error {
	reg := cl.Registry()
	if err := reg.RegisterStep("chaos.work", func(ctx agent.StepContext) error {
		// Per-agent FIFO trace: committed step order within the pass.
		var trace []int
		if _, err := ctx.SRO().Get("trace", &trace); err != nil {
			return err
		}
		trace = append(trace, ctx.StepSeq())
		if err := ctx.SRO().Set("trace", trace); err != nil {
			return err
		}
		// Post-rollback pass: the compensation marker tells the agent the
		// first pass was undone; it reacts by not re-buying (§3.2), so a
		// rolled-back agent's net deposit must be exactly zero.
		if noted, err := ctx.WRO().Has("note"); err != nil {
			return err
		} else if noted {
			return nil
		}
		var bank string
		if err := ctx.WRO().MustGet("bank", &bank); err != nil {
			return err
		}
		r, ok := ctx.Resource(bank)
		if !ok {
			return fmt.Errorf("chaos.work: no %s on %s", bank, ctx.NodeName())
		}
		if err := r.(*resource.Bank).Deposit(ctx.Tx(), sinkAccount, chaosDeposit); err != nil {
			return err
		}
		if opts.StepWork > 0 {
			time.Sleep(opts.StepWork) // service time, inside the transaction
		}
		ctx.LogComp(core.OpResource, "chaos.comp", core.NewParams().
			Set("bank", bank).Set("amt", int64(chaosDeposit)))
		if ctx.StepSeq() == 0 {
			// Rollback marker: the compensation records in the WRO that
			// the first pass was undone (survives the rollback, §3.2).
			ctx.LogComp(core.OpAgent, "chaos.mark", core.NewParams())
		}
		return nil
	}); err != nil {
		return err
	}
	// The scheduler's conflict hint: steps of agents sharing a bank
	// contend on one 2PL lock, so a worker does not claim them together.
	if err := reg.RegisterStepHints("chaos.work", func(a *agent.Agent, _ itinerary.Step) []string {
		var bank string
		if _, err := a.WRO.Get("bank", &bank); err != nil {
			return nil
		}
		return []string{bank}
	}); err != nil {
		return err
	}
	if err := reg.RegisterStep("chaos.decide", func(ctx agent.StepContext) error {
		var rb bool
		if _, err := ctx.WRO().Get("rb", &rb); err != nil {
			return err
		}
		if rb {
			if noted, err := ctx.WRO().Has("note"); err != nil {
				return err
			} else if !noted {
				return ctx.RollbackCurrentSub()
			}
		}
		return ctx.SRO().Set("done", true)
	}); err != nil {
		return err
	}
	if err := reg.RegisterComp("chaos.comp", func(ctx agent.CompContext) error {
		if opts.SkipCompensation {
			return nil // injected violation: the deposit is never undone
		}
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
		return err
	}
	return reg.RegisterComp("chaos.mark", func(ctx agent.CompContext) error {
		wro, err := ctx.WRO()
		if err != nil {
			return err
		}
		return wro.Set("note", true)
	})
}

// launchAgent builds and launches agent i: Steps work steps round-robin
// over the nodes plus a final decide step back at its start node, all
// depositing into bank i mod Banks.
func launchAgent(cl *cluster.Cluster, i int, rollback bool, opts Options) (<-chan cluster.Result, error) {
	id := agentID(i)
	start := i % opts.Nodes
	sub := &itinerary.Sub{ID: "job-" + id}
	for s := 0; s < opts.Steps; s++ {
		loc := nodeName((start + s) % opts.Nodes)
		if opts.Ring {
			// A distinct ring key per step spreads the agent's steps over
			// the owners, and a join or leave moves the step to whichever
			// node owns the key when the hand-off happens.
			loc = fmt.Sprintf("%s:%s-s%d", node.RingLoc, id, s)
		}
		sub.Entries = append(sub.Entries, itinerary.Step{Method: "chaos.work", Loc: loc})
	}
	decideLoc := nodeName(start)
	if opts.Ring {
		decideLoc = node.RingLoc
	}
	sub.Entries = append(sub.Entries, itinerary.Step{Method: "chaos.decide", Loc: decideLoc})
	it, err := itinerary.New(sub)
	if err != nil {
		return nil, err
	}
	a, entered, err := agent.New(id, "", it)
	if err != nil {
		return nil, err
	}
	if err := a.WRO.Set("rb", rollback); err != nil {
		return nil, err
	}
	if err := a.WRO.Set("bank", bankName(i%opts.Banks)); err != nil {
		return nil, err
	}
	return cl.Launch(a, entered, nodeName(start))
}

// execute applies the schedule against the cluster in real time, then
// quiesces: every crashed node is recovered, every partition healed and
// every fault cleared, so the workload is guaranteed to finish (§4.3
// assumes crashes and network failures are temporary). Leaves run
// asynchronously: a drain can only finish once the nodes holding the new
// owners are reachable again, which may require recover/heal events that
// come later in the schedule.
func execute(cl *cluster.Cluster, sched Schedule, start time.Time, opts Options) error {
	var leaves sync.WaitGroup
	leaveErr := make(chan error, len(sched.Events))
	for _, ev := range sched.Events {
		if d := time.Until(start.Add(ev.At)); d > 0 {
			time.Sleep(d)
		}
		switch ev.Op {
		case OpCrash:
			_ = cl.Crash(ev.Node) // already crashed: the window was skipped
		case OpRecover:
			if err := recoverNode(cl, ev.Node); err != nil {
				return err
			}
		case OpPartition:
			cl.SetLink(ev.A, ev.B, false)
		case OpHeal:
			cl.SetLink(ev.A, ev.B, true)
		case OpFaults:
			cl.SetLinkFaults(ev.A, ev.B, ev.Faults)
		case OpClearFaults:
			cl.SetLinkFaults(ev.A, ev.B, network.LinkFaults{})
		case OpJoin:
			if err := joinNode(cl, ev.Node, opts); err != nil {
				return err
			}
		case OpLeave:
			leaves.Add(1)
			go func(name string) {
				defer leaves.Done()
				if err := cl.Leave(name, time.Minute); err != nil {
					leaveErr <- fmt.Errorf("chaos: leave %s: %w", name, err)
				}
			}(ev.Node)
		}
	}
	for _, n := range cl.CrashedNodes() {
		if err := recoverNode(cl, n); err != nil {
			return err
		}
	}
	cl.HealAllLinks()
	cl.ClearLinkFaults()
	leaves.Wait()
	select {
	case err := <-leaveErr:
		return err
	default:
		return nil
	}
}

// joinNode boots one node mid-run with the workload's banks and sinks.
// Steps migrated there before the sinks open fail and retry.
func joinNode(cl *cluster.Cluster, name string, opts Options) error {
	if err := cl.Join(name, banks(opts)...); err != nil {
		return err
	}
	return openSinks(cl, name, opts)
}

// recoverNode recovers one crashed node, tolerating "not crashed".
func recoverNode(cl *cluster.Cluster, name string) error {
	if err := cl.Recover(name); err != nil {
		for _, c := range cl.CrashedNodes() {
			if c == name {
				return err // genuinely failed to come back: harness error
			}
		}
	}
	return nil
}

// checkAgents validates per-agent invariants: every agent completed
// without failure, committed its steps in FIFO order exactly once
// (trace == 0..Steps-1 even across a rollback, whose savepoint restore
// rewinds both the step counter and the trace), and took the rollback
// path it was assigned.
func checkAgents(res *Result, results []cluster.Result, got []bool, rollback []bool, opts Options) {
	want := make([]int, opts.Steps)
	for i := range want {
		want[i] = i
	}
	for i, r := range results {
		if !got[i] {
			continue // already a progress violation
		}
		if r.Failed {
			res.Violations = append(res.Violations, Violation{
				Invariant: "agent-failed",
				Detail:    fmt.Sprintf("agent %s: %s", r.AgentID, r.Reason),
			})
			continue
		}
		if r.Agent == nil {
			res.Violations = append(res.Violations, Violation{
				Invariant: "agent-lost",
				Detail:    fmt.Sprintf("agent %d: result without agent state", i),
			})
			continue
		}
		var trace []int
		if _, err := r.Agent.SRO.Get("trace", &trace); err != nil {
			res.Violations = append(res.Violations, Violation{Invariant: "fifo", Detail: err.Error()})
			continue
		}
		if !equalInts(trace, want) {
			res.Violations = append(res.Violations, Violation{
				Invariant: "fifo",
				Detail:    fmt.Sprintf("agent %s: committed step trace %v, want %v", r.AgentID, trace, want),
			})
		}
		noted, err := r.Agent.WRO.Has("note")
		if err != nil {
			res.Violations = append(res.Violations, Violation{Invariant: "rollback", Detail: err.Error()})
			continue
		}
		if noted != rollback[i] {
			res.Violations = append(res.Violations, Violation{
				Invariant: "rollback",
				Detail:    fmt.Sprintf("agent %s: rollback marker=%v, assigned rollback=%v", r.AgentID, noted, rollback[i]),
			})
		}
		if noted {
			res.RolledBack++
		}
		var done bool
		if err := r.Agent.SRO.MustGet("done", &done); err != nil || !done {
			res.Violations = append(res.Violations, Violation{
				Invariant: "completion",
				Detail:    fmt.Sprintf("agent %s: done flag missing (%v)", r.AgentID, err),
			})
		}
	}
}

// checkConservation sums the sink accounts: agents that completed without
// a rollback contribute Steps deposits, rolled-back agents exactly zero —
// any drift means a step executed twice, a compensation was lost, or a
// compensation ran twice.
func checkConservation(res *Result, cl *cluster.Cluster, rollback []bool, opts Options) error {
	var total int64
	for _, n := range cl.NodeNames() {
		nd, ok := cl.Node(n)
		if !ok {
			return fmt.Errorf("chaos: node %s missing after quiesce", n)
		}
		if err := cl.WithTx(n, func(tx *txn.Tx, _ *node.Node) error {
			for b := 0; b < opts.Banks; b++ {
				r, _ := nd.Resource(bankName(b))
				bal, err := r.(*resource.Bank).Balance(tx, sinkAccount)
				if err != nil {
					return err
				}
				total += bal
			}
			return nil
		}); err != nil {
			return err
		}
	}
	straight := 0
	for _, rb := range rollback {
		if !rb {
			straight++
		}
	}
	want := int64(straight * opts.Steps * chaosDeposit)
	if total != want {
		res.Violations = append(res.Violations, Violation{
			Invariant: "conservation",
			Detail: fmt.Sprintf("sink total %d, want %d (%d straight-through agents × %d steps; drift means a lost or duplicated step/compensation)",
				total, want, straight, opts.Steps),
		})
	}
	return nil
}

// checkQueuesEmpty asserts no agent container is stranded in any input
// queue after every result was delivered.
func checkQueuesEmpty(res *Result, cl *cluster.Cluster, names []string) error {
	for _, n := range names {
		nd, ok := cl.Node(n)
		if !ok {
			return fmt.Errorf("chaos: node %s missing after quiesce", n)
		}
		depth, err := nd.Queue().Len()
		if err != nil {
			return err
		}
		if depth != 0 {
			res.Violations = append(res.Violations, Violation{
				Invariant: "queue-drained",
				Detail:    fmt.Sprintf("node %s input queue holds %d entries after completion", n, depth),
			})
		}
	}
	return nil
}

// checkStoresReopen reopens every durable store after the cluster shut
// down — the cold-restart conformance check: the engine must recover
// (checkpoint load + tail replay for wal), and the recovered queue must
// be empty.
func checkStoresReopen(res *Result, spec stable.Spec, names []string) error {
	if !spec.Durable() {
		return nil // volatile engine: nothing to reopen
	}
	spec.Counters = nil
	for _, n := range names {
		st, err := stable.Open(spec.ForNode(n))
		if err != nil {
			res.Violations = append(res.Violations, Violation{
				Invariant: "store-recovery",
				Detail:    fmt.Sprintf("node %s: reopen after shutdown failed: %v", n, err),
			})
			continue
		}
		q := stable.NewQueue(st, "q/")
		depth, err := q.Len()
		if err != nil {
			res.Violations = append(res.Violations, Violation{
				Invariant: "store-recovery",
				Detail:    fmt.Sprintf("node %s: queue scan on reopened store failed: %v", n, err),
			})
		} else if depth != 0 {
			res.Violations = append(res.Violations, Violation{
				Invariant: "store-recovery",
				Detail:    fmt.Sprintf("node %s: reopened store holds %d queue entries", n, depth),
			})
		}
		_ = stable.Close(st)
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sortViolations orders violations by invariant then detail, for stable
// output.
func sortViolations(v []Violation) {
	sort.Slice(v, func(i, j int) bool {
		if v[i].Invariant != v[j].Invariant {
			return v[i].Invariant < v[j].Invariant
		}
		return v[i].Detail < v[j].Detail
	})
}
