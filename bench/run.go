package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// system is one cluster under test, in-process or TCP.
type system interface {
	// run launches one generated unit of work for an owner and blocks
	// until its result: a closed loop. problem is empty when the result
	// is correct; err reports that the system itself broke.
	run(owner, n int, rng *rand.Rand) (id, problem string, err error)
	// scrape reads the public counter surface, summed over nodes.
	scrape() (counts, error)
	// wireBytes and stableBytes read the two volume measures out of a
	// counter delta (see README.md for what trip-tcp can observe).
	wireBytes(delta counts) float64
	stableBytes(delta counts) float64
	// cpu returns user+system CPU time by process.
	cpu() (map[string]time.Duration, error)
	peakRSS() int64
	// containers returns containers captured from the workload for the
	// codec probes (traced runs).
	containers() [][]byte
	// verify checks the whole-run invariants against the number of
	// correctly completed units.
	verify(completed int, delta counts) []string
	close() error
}

// runConfig describes one run of one workload.
type runConfig struct {
	w      workload
	seed   int64
	warmup time.Duration
	// reference is a phase between warm-up and window in which a traced
	// run's interposers are installed but idle; its throughput is the
	// baseline of cluster.trace_overhead_pct. Zero in untraced runs.
	reference time.Duration
	window    time.Duration
	traced    bool
	setups    int    // cluster constructions timed for setup_s
	workDir   string // data dirs and child logs live under it
	agentnode string // binary, trip-tcp only
	traceDir  string // where the span file goes
}

// sample is one closed-loop iteration as its owner saw it.
type sample struct {
	id           string
	launch, done time.Duration // since the run started
	problem      string
}

func (s sample) within(from, to time.Duration) bool {
	return s.problem == "" && s.launch >= from && s.done <= to
}

// edge is the state of the system at one window boundary.
type edge struct {
	at  time.Duration
	cpu map[string]time.Duration
	c   counts
	mem runtime.MemStats
}

// runResult is everything one run measured.
type runResult struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	TraceFile string            `json:"trace_file,omitempty"`
}

// runClock returns the run's time origin. A traced run shares the
// recorder's, so samples and spans are on one clock.
func runClock(rec *recorder) time.Time {
	if rec != nil {
		return rec.base
	}
	return time.Now()
}

// build constructs the system under test in a fresh directory.
func (cfg runConfig) build(rec *recorder, probe *storeProbe) (system, string, error) {
	dir, err := os.MkdirTemp(cfg.workDir, cfg.w.name+"-")
	if err != nil {
		return nil, "", err
	}
	var sys system
	if cfg.w.tcp {
		// The nodes' ports are picked free and then handed to the
		// children, so another process can take one in between; a second
		// attempt picks fresh ones.
		for attempt := 0; attempt < 3; attempt++ {
			if sys, err = newTripSystem(cfg.w, dir, cfg.agentnode, rec); err == nil {
				break
			}
		}
	} else {
		sys, err = newTourSystem(cfg.w, dir, rec, probe)
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	return sys, dir, nil
}

// setupGap is the idle time before each timed cluster construction.
const setupGap = 20 * time.Millisecond

// sliceLen is the length of the slices a window is cut into. The
// timing metrics are reported for the best slice: see bestSlice.
const sliceLen = 500 * time.Millisecond

// cut is one slice boundary: when it was taken and the CPU time used so
// far, by process.
type cut struct {
	at  time.Duration
	cpu map[string]time.Duration
}

// plainCuts cuts [from, to] into sliceLen slices without CPU readings.
func plainCuts(from, to time.Duration) []cut {
	var cuts []cut
	for at := from; at <= to; at += sliceLen {
		cuts = append(cuts, cut{at: at})
	}
	return cuts
}

// bestSlice reports the timing figures of the window's best slices: the
// highest completion rate, the lowest median latency and the lowest CPU
// time per completion seen in any slice (the last two over slices with at
// least three completions).
//
// Why not the window mean: the benchmark runs on shared virtual machines
// whose host takes 5-35 % of the CPU away in bursts lasting from
// milliseconds to minutes, and stretches sub-millisecond timers to more
// than a millisecond. That noise only ever slows the program down, so the
// best slice is the closest a run gets to the undisturbed program, and it
// repeats across runs about twice as well as the mean (README.md,
// "Steadiness").
func bestSlice(all []sample, cuts []cut) (perS, p50MS, cpuMS float64) {
	for i := 0; i+1 < len(cuts); i++ {
		from, to := cuts[i], cuts[i+1]
		var lat []float64
		for _, s := range all {
			if s.problem == "" && s.done >= from.at && s.done < to.at {
				lat = append(lat, float64(s.done-s.launch)/float64(time.Millisecond))
			}
		}
		n := float64(len(lat))
		perS = max(perS, n/(to.at-from.at).Seconds())
		if n < 3 {
			continue
		}
		if m := median(lat); p50MS == 0 || m < p50MS {
			p50MS = m
		}
		var cpu time.Duration
		for proc, d := range to.cpu {
			cpu += d - from.cpu[proc]
		}
		if ms := float64(cpu) / float64(time.Millisecond) / n; ms > 0 && (cpuMS == 0 || ms < cpuMS) {
			cpuMS = ms
		}
	}
	return perS, p50MS, cpuMS
}

// runWorkload performs one run: timed set-ups, warm-up, the measured
// window, drain, invariant checks and (traced) probes and span analysis.
func runWorkload(cfg runConfig) (res *runResult, err error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	// Start this run's peak-RSS reading from the current RSS rather than
	// from an earlier workload's peak (best effort: Linux only).
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	var rec *recorder
	var probe *storeProbe
	if cfg.traced {
		rec = newRecorder()
		probe = newStoreProbe(rec, cfg.w.engine)
	}

	// Set-up, many times: setup_s is the lowest decile of the
	// constructions, for the reason bestSlice gives. The last system
	// built is the one measured.
	var sys system
	var dir string
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
		}
		// A pause first: a construction that starts on an idle machine, as
		// a user's would, takes longer than one of a tight loop but
		// repeats better from run to run.
		time.Sleep(setupGap)
		t0 := time.Now()
		if sys, dir, err = cfg.build(rec, probe); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer func() {
		if cerr := sys.close(); cerr != nil && err == nil {
			err = cerr
		}
		os.RemoveAll(dir)
	}()

	before, err := sys.scrape()
	if err != nil {
		return nil, err
	}

	// The closed loop: each owner launches its next agent only after the
	// previous one returned, until told to stop.
	var (
		start   = runClock(rec)
		stop    atomic.Bool
		broken  = make(chan error, cfg.w.owners)
		wg      sync.WaitGroup
		samples = make([][]sample, cfg.w.owners)
	)
	for o := 0; o < cfg.w.owners; o++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := ownerRand(cfg.seed, o)
			for n := 0; !stop.Load(); n++ {
				launch := time.Since(start)
				id, problem, err := sys.run(o, n, rng)
				samples[o] = append(samples[o], sample{id: id, launch: launch, done: time.Since(start), problem: problem})
				if err != nil {
					broken <- err
					return
				}
			}
		}()
	}
	// phase sleeps d unless the system breaks first.
	phase := func(d time.Duration) error {
		select {
		case err := <-broken:
			return err
		case <-time.After(d):
			return nil
		}
	}
	takeEdge := func() (e edge, err error) {
		e.at = time.Since(start)
		if e.cpu, err = sys.cpu(); err != nil {
			return e, err
		}
		if e.c, err = sys.scrape(); err != nil {
			return e, err
		}
		if cfg.traced {
			runtime.ReadMemStats(&e.mem)
		}
		return e, nil
	}
	// measure runs warm-up, reference phase and window, cutting the
	// window into slices.
	var from, to edge
	var refFrom, refTo time.Duration
	var cuts []cut
	measure := func() error {
		if err := phase(cfg.warmup); err != nil {
			return err
		}
		refFrom = time.Since(start)
		if err := phase(cfg.reference); err != nil {
			return err
		}
		refTo = time.Since(start)
		if rec != nil {
			rec.on.Store(true)
			defer rec.on.Store(false)
		}
		if from, err = takeEdge(); err != nil {
			return err
		}
		cuts = []cut{{from.at, from.cpu}}
		for time.Since(start)-from.at < cfg.window {
			if err := phase(sliceLen); err != nil {
				return err
			}
			cpu, err := sys.cpu()
			if err != nil {
				return err
			}
			cuts = append(cuts, cut{time.Since(start), cpu})
		}
		to, err = takeEdge()
		return err
	}
	err = measure()
	stop.Store(true)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	after, err := quiesce(sys)
	if err != nil {
		return nil, err
	}

	var all []sample
	for _, s := range samples {
		all = append(all, s...)
	}
	res = &runResult{Workload: cfg.w.name, Traced: cfg.traced, Attempted: len(all), Metrics: make(map[string]metric)}
	var completed int
	windowIDs := make(map[string]bool)
	var latMS []float64
	for _, s := range all {
		if s.problem != "" {
			res.Failed++
			if len(res.Problems) < 10 {
				res.Problems = append(res.Problems, "agent "+s.id+": "+s.problem)
			}
			continue
		}
		completed++
		if s.within(from.at, to.at) {
			windowIDs[s.id] = true
			latMS = append(latMS, float64(s.done-s.launch)/float64(time.Millisecond))
		}
	}
	whole := after.sub(before)
	res.Problems = append(res.Problems, sys.verify(completed, whole)...)
	if len(latMS) == 0 {
		res.Problems = append(res.Problems, "no agent completed inside the window")
	}

	// End-to-end metrics. The three timings are the window's best slice;
	// the two volumes cover the whole run divided by every completed
	// agent, so agents in flight at a window edge cannot skew them.
	perS, p50MS, cpuMS := bestSlice(all, cuts)
	put := func(defs []metricDef, values map[string]float64) {
		for _, d := range defs {
			res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
		}
	}
	put(endToEnd, map[string]float64{
		"agents_per_s":        perS,
		"agent_p50_ms":        p50MS,
		"cpu_ms_per_agent":    cpuMS,
		"wire_kb_per_agent":   ratio(sys.wireBytes(whole), float64(completed)) / 1024,
		"stable_kb_per_agent": ratio(sys.stableBytes(whole), float64(completed)) / 1024,
		"setup_s":             quantile(sortedCopy(setupS), 0.1),
	})
	if cfg.traced {
		in := layerInput{
			workers: tourNodes, window: (to.at - from.at).Seconds(), latMS: latMS, windowIDs: windowIDs,
			completed: float64(completed), whole: whole, inWin: to.c.sub(from.c),
			cpuByProc: make(map[string]float64), bestPerS: perS,
			spans: rootedSpans(rec.take()), probe: probe, peakRSS: sys.peakRSS(),
			containers: append(containersFrom(probe.taken()), containersFrom(sys.containers())...),
		}
		if cfg.w.tcp {
			in.workers = len(tripNodes)
		}
		for proc, d := range to.cpu {
			in.cpuByProc[proc] = ratio(float64(d-from.cpu[proc])/float64(time.Millisecond), float64(len(latMS)))
		}
		in.refPerS, _, _ = bestSlice(all, plainCuts(refFrom, refTo))
		if !cfg.w.tcp {
			in.allocBytes = float64(to.mem.TotalAlloc - from.mem.TotalAlloc)
			in.mallocs = float64(to.mem.Mallocs - from.mem.Mallocs)
		}
		layers, problems := layerMetrics(in)
		res.Problems = append(res.Problems, problems...)
		put(perLayer, layers)
		if res.TraceFile, err = writeJSONL(cfg.traceDir, cfg.w.name, in.spans); err != nil {
			return nil, err
		}
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// quiesce waits until the drained system's counters stop moving (late
// acknowledgements and staged garbage collection trail the last result)
// and returns the final scrape.
func quiesce(sys system) (counts, error) {
	activity := func(c counts) float64 {
		return c.get("protocol_transitions") + c.get("stable_writes") + c.get("timers_armed")
	}
	prev, err := sys.scrape()
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(5 * time.Second)
	for still := 0; still < 3 && time.Now().Before(deadline); {
		time.Sleep(50 * time.Millisecond)
		cur, err := sys.scrape()
		if err != nil {
			return nil, err
		}
		if activity(cur) == activity(prev) {
			still++
		} else {
			still = 0
		}
		prev = cur
	}
	return prev, nil
}

// rootedSpans keeps the spans of traces that have a root and gives every
// node trace a root spanning its storage spans. An agent launched before
// recording was switched on has child spans but no root; its figures
// would be partial, so it is dropped whole.
func rootedSpans(spans []span) []span {
	rooted := make(map[string]bool)
	nodes := make(map[string]span)
	for _, s := range spans {
		switch {
		case s.Name == spanAgent:
			rooted[s.Trace] = true
		case s.Parent == spanNode:
			r, ok := nodes[s.Trace]
			if !ok {
				r = span{Trace: s.Trace, Name: spanNode, Node: s.Node, Start: s.Start, End: s.End}
			}
			r.Start, r.End = min(r.Start, s.Start), max(r.End, s.End)
			nodes[s.Trace] = r
		}
	}
	out := spans[:0]
	for _, s := range spans {
		if rooted[s.Trace] || s.Parent == spanNode {
			out = append(out, s)
		}
	}
	for _, r := range nodes {
		out = append(out, r)
	}
	return out
}
