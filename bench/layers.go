package main

import (
	"runtime"
	"time"
)

// metricDef declares one reported metric. BENCHMARK.json repeats these
// tables; the smoke test keeps the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. The bounds follow the spreads observed over ten seeds on
// the development box (README.md, "Steadiness"): the three timings swing
// with the host, the two volumes are counts.
var endToEnd = []metricDef{
	{"agents_per_s", "1/s", "higher", 0.25},
	{"agent_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_agent", "ms", "lower", 0.25},
	{"wire_kb_per_agent", "KiB", "lower", 0.02},
	{"stable_kb_per_agent", "KiB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced run; the layer is
// the module name before the dot.
var perLayer = []metricDef{
	{name: "cluster.agents_per_s", unit: "1/s", better: "higher"},
	{name: "cluster.cpu_ms_per_agent", unit: "ms", better: "lower"},
	{name: "cluster.agent_p90_ms", unit: "ms", better: "lower"},
	{name: "cluster.agent_p99_ms", unit: "ms", better: "lower"},
	{name: "cluster.agent_samples", unit: "count", better: "higher"},
	{name: "cluster.agent_self_ms", unit: "ms", better: "lower"},
	{name: "cluster.launch_us", unit: "us", better: "lower"},
	{name: "cluster.alloc_kb_per_agent", unit: "KiB", better: "lower"},
	{name: "cluster.mallocs_per_agent", unit: "count", better: "lower"},
	{name: "cluster.peak_rss_mb", unit: "MiB", better: "lower"},
	{name: "cluster.cpu_utilisation", unit: "fraction", better: "lower"},
	{name: "cluster.runtime_cpu_share", unit: "fraction", better: "lower"},
	{name: "cluster.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "node.container_encode_us", unit: "us", better: "lower"},
	{name: "node.container_decode_us", unit: "us", better: "lower"},
	{name: "node.container_bytes", unit: "B", better: "lower"},
	{name: "node.step_txns_per_agent", unit: "count", better: "lower"},
	{name: "node.step_txn_aborts_per_agent", unit: "count", better: "lower"},
	{name: "node.comp_txns_per_agent", unit: "count", better: "lower"},
	{name: "node.agent_transfers_per_agent", unit: "count", better: "lower"},
	{name: "node.transfer_kb_per_agent", unit: "KiB", better: "lower"},
	{name: "node.rce_batches_per_agent", unit: "count", better: "lower"},
	{name: "node.decision_commits_per_step_txn", unit: "count", better: "lower"},
	{name: "node.ack_piggybacked_per_agent", unit: "count", better: "higher"},
	{name: "wire.container_share", unit: "fraction", better: "higher"},
	{name: "wire.bytes_per_msg", unit: "B", better: "higher"},
	{name: "network.msgs_per_agent", unit: "count", better: "lower"},
	{name: "network.batches_per_agent", unit: "count", better: "lower"},
	{name: "network.msgs_per_batch", unit: "count", better: "higher"},
	{name: "network.mailbox_drops", unit: "count", better: "lower"},
	{name: "network.sim_hop_us", unit: "us", better: "lower"},
	{name: "network.tcp_hop_us", unit: "us", better: "lower"},
	{name: "stable.applies_per_agent", unit: "count", better: "lower"},
	{name: "stable.ops_per_apply", unit: "count", better: "higher"},
	{name: "stable.apply_us", unit: "us", better: "lower"},
	{name: "stable.apply_busy_ms", unit: "ms", better: "lower"},
	{name: "stable.gets_per_agent", unit: "count", better: "lower"},
	{name: "stable.get_us", unit: "us", better: "lower"},
	{name: "stable.fsyncs_per_agent", unit: "count", better: "lower"},
	{name: "stable.fsync_us", unit: "us", better: "lower"},
	{name: "stable.wal_checkpoints", unit: "count", better: "lower"},
	{name: "stable.wal_rotations", unit: "count", better: "lower"},
	{name: "sched.claims_per_agent", unit: "count", better: "lower"},
	{name: "sched.claims_per_txn", unit: "count", better: "lower"},
	{name: "sched.claim_conflicts_per_agent", unit: "count", better: "lower"},
	{name: "sched.lock_aborts_per_agent", unit: "count", better: "lower"},
	{name: "sched.retries_per_agent", unit: "count", better: "lower"},
	{name: "sched.worker_busy_ms", unit: "ms", better: "lower"},
	{name: "sched.worker_utilisation", unit: "fraction", better: "lower"},
	{name: "sched.queue_depth_peak", unit: "count", better: "lower"},
	{name: "protocol.transitions_per_agent", unit: "count", better: "lower"},
	{name: "protocol.timers_armed_per_agent", unit: "count", better: "lower"},
	{name: "protocol.timers_fired_per_agent", unit: "count", better: "lower"},
	{name: "protocol.timers_canceled_per_agent", unit: "count", better: "lower"},
	{name: "agent.step_exec_us", unit: "us", better: "lower"},
	{name: "agent.step_busy_ms", unit: "ms", better: "lower"},
	{name: "agent.comp_exec_us", unit: "us", better: "lower"},
	{name: "agent.comp_busy_ms", unit: "ms", better: "lower"},
	{name: "agent.comp_ops_per_agent", unit: "count", better: "lower"},
	{name: "resource.op_us", unit: "us", better: "lower"},
	{name: "resource.ops_per_agent", unit: "count", better: "lower"},
	{name: "core.log_bytes_peak", unit: "B", better: "lower"},
	{name: "core.savepoints_per_agent", unit: "count", better: "lower"},
	{name: "ctl.launch_encode_us", unit: "us", better: "lower"},
	{name: "ctl.done_decode_us", unit: "us", better: "lower"},
	{name: "ctl.cpu_ms_node_a", unit: "ms", better: "lower"},
	{name: "ctl.cpu_ms_node_b", unit: "ms", better: "lower"},
	{name: "ctl.cpu_ms_node_c", unit: "ms", better: "lower"},
	{name: "ctl.cpu_ms_self", unit: "ms", better: "lower"},
}

// containerKinds are the message kinds whose payload is an agent
// container.
var containerKinds = []string{"q.prepare", "agent.launch", "agent.done"}

// layerInput is what one traced run hands to the attribution.
type layerInput struct {
	workers   int                // step workers in the system: one per node
	window    float64            // seconds
	latMS     []float64          // owner latency of the window's agents
	windowIDs map[string]bool    // the agents launched and completed inside the window
	completed float64            // agents completed in the whole run
	whole     counts             // counter delta, first launch to drained
	inWin     counts             // counter delta over the window
	cpuByProc map[string]float64 // CPU ms per agent by process
	bestPerS  float64            // best-slice agents/s of the window ...
	refPerS   float64            // ... and of the reference phase
	spans     []span
	probe     *storeProbe
	peakRSS   int64
	// containers captured from the workload, for the codec probes.
	containers [][]byte
	// Heap traffic of this process over the window (in-process only).
	allocBytes, mallocs float64
}

// layerMetrics derives every per-layer metric. A metric the workload
// cannot observe (step spans inside child processes, ctl spans of an
// in-process cluster) stays 0.
func layerMetrics(in layerInput) (map[string]float64, []string) {
	m := make(map[string]float64)
	var problems []string
	agents := float64(len(in.latMS)) // inside the window
	perAgent := func(field string) float64 { return ratio(in.whole.get(field), in.completed) }
	perWindowAgent := func(total float64) float64 { return ratio(total, agents) }
	const us, ms = time.Microsecond, time.Millisecond

	// cluster: the owner's view of the traced window.
	lat := sortedCopy(in.latMS)
	var cpuMS float64
	for _, ms := range in.cpuByProc {
		cpuMS += ms
	}
	m["cluster.agents_per_s"] = agents / in.window
	m["cluster.cpu_ms_per_agent"] = cpuMS
	m["cluster.agent_p90_ms"] = tail(lat, 0.90)
	m["cluster.agent_p99_ms"] = tail(lat, 0.99)
	m["cluster.agent_samples"] = agents
	m["cluster.alloc_kb_per_agent"] = perWindowAgent(in.allocBytes) / 1024
	m["cluster.mallocs_per_agent"] = perWindowAgent(in.mallocs)
	m["cluster.peak_rss_mb"] = float64(in.peakRSS) / (1 << 20)
	m["cluster.cpu_utilisation"] = cpuMS * agents / in.window / 1000 / float64(runtime.NumCPU())
	m["cluster.trace_overhead_pct"] = 100 * (1 - ratio(in.bestPerS, in.refPerS))

	// Spans of the window's agents, and storage spans (which belong to
	// no agent) by node.
	var agentSpans, nodeSpans []span
	for _, s := range in.spans {
		switch {
		case in.windowIDs[s.Trace]:
			agentSpans = append(agentSpans, s)
		case s.Parent == spanNode:
			nodeSpans = append(nodeSpans, s)
		}
	}
	var selfMS []float64
	for _, byName := range indexSpans(agentSpans) {
		for _, root := range byName[spanAgent] {
			selfMS = append(selfMS, float64(selfTime(root, byName))/float64(ms))
		}
	}
	m["cluster.agent_self_ms"] = median(selfMS)
	m["cluster.launch_us"] = median(durations(agentSpans, spanLaunch, us))

	sum := func(xs []float64) (t float64) {
		for _, x := range xs {
			t += x
		}
		return t
	}
	stepMS := durations(agentSpans, spanStep, ms)
	compMS := durations(agentSpans, spanComp, ms)
	applyMS := durations(nodeSpans, spanApply, ms)
	m["agent.step_exec_us"] = median(stepMS) * 1000
	m["agent.step_busy_ms"] = perWindowAgent(sum(stepMS))
	m["agent.comp_exec_us"] = median(compMS) * 1000
	m["agent.comp_busy_ms"] = perWindowAgent(sum(compMS))
	m["agent.comp_ops_per_agent"] = perAgent("comp_ops")
	resUS := durations(agentSpans, spanResource, us)
	m["resource.op_us"] = median(resUS)
	m["resource.ops_per_agent"] = perWindowAgent(float64(len(resUS)))
	m["ctl.launch_encode_us"] = median(durations(agentSpans, spanEncode, us))
	m["ctl.done_decode_us"] = median(durations(agentSpans, spanDecode, us))

	// stable: the interposer's spans and tallies cover the recorded
	// window; the fsync and WAL counters are the program's own.
	m["stable.applies_per_agent"] = perWindowAgent(float64(in.probe.applies.Load()))
	m["stable.ops_per_apply"] = ratio(float64(in.probe.ops.Load()), float64(in.probe.applies.Load()))
	m["stable.apply_us"] = median(applyMS) * 1000
	m["stable.apply_busy_ms"] = perWindowAgent(sum(applyMS))
	m["stable.gets_per_agent"] = perWindowAgent(float64(in.probe.gets.Load()))
	m["stable.get_us"] = median(durations(nodeSpans, spanGet, us))
	m["stable.fsyncs_per_agent"] = perAgent("fsyncs")
	m["stable.fsync_us"] = ratio(in.whole.get("fsync_nanos"), in.whole.get("fsyncs")) / 1000
	m["stable.wal_checkpoints"] = in.whole.get("wal_checkpoints")
	m["stable.wal_rotations"] = in.whole.get("wal_rotations")

	// The runtime's share of CPU is what is left after the user's step
	// and compensation code and the storage engine.
	busy := m["agent.step_busy_ms"] + m["agent.comp_busy_ms"] + m["stable.apply_busy_ms"]
	m["cluster.runtime_cpu_share"] = 1 - ratio(busy, cpuMS)

	// node, wire, network, sched, protocol, core: whole-run counter deltas.
	txns := in.whole.get("step_txns") + in.whole.get("comp_txns")
	m["node.step_txns_per_agent"] = perAgent("step_txns")
	m["node.step_txn_aborts_per_agent"] = perAgent("step_txn_aborts")
	m["node.comp_txns_per_agent"] = perAgent("comp_txns")
	m["node.agent_transfers_per_agent"] = perAgent("agent_transfers")
	m["node.transfer_kb_per_agent"] = perAgent("agent_transfer_byte") / 1024
	m["node.rce_batches_per_agent"] = perAgent("remote_comp_batches")
	m["node.decision_commits_per_step_txn"] = ratio(in.whole.get("decision_batches"), in.whole.get("step_txns"))
	m["node.ack_piggybacked_per_agent"] = perAgent("ack_piggybacked")
	m["wire.container_share"] = ratio(in.whole.kindSum("wire_bytes_by_kind", containerKinds...), in.whole.kindSum("wire_bytes_by_kind"))
	m["wire.bytes_per_msg"] = ratio(in.whole.get("bytes_sent"), in.whole.get("messages"))
	m["network.msgs_per_agent"] = perAgent("messages")
	m["network.batches_per_agent"] = perAgent("net_batches")
	m["network.msgs_per_batch"] = ratio(in.whole.get("net_batched_msgs"), in.whole.get("net_batches"))
	m["network.mailbox_drops"] = in.whole.get("mailbox_drops")
	m["sched.claims_per_agent"] = perAgent("sched_claims")
	m["sched.claims_per_txn"] = ratio(in.whole.get("sched_claims"), txns)
	m["sched.claim_conflicts_per_agent"] = perAgent("sched_claim_conflicts")
	m["sched.lock_aborts_per_agent"] = perAgent("sched_lock_aborts")
	m["sched.retries_per_agent"] = perAgent("sched_retries")
	busyMS := in.inWin.get("sched_worker_busy_nanos") / 1e6
	m["sched.worker_busy_ms"] = perWindowAgent(busyMS)
	m["sched.worker_utilisation"] = ratio(busyMS/1000, float64(in.workers)*in.window)
	m["sched.queue_depth_peak"] = in.whole.gauge("sched_queue_depth_peak")
	m["protocol.transitions_per_agent"] = perAgent("protocol_transitions")
	m["protocol.timers_armed_per_agent"] = perAgent("timers_armed")
	m["protocol.timers_fired_per_agent"] = perAgent("timers_fired")
	m["protocol.timers_canceled_per_agent"] = perAgent("timers_canceled")
	m["core.log_bytes_peak"] = in.whole.gauge("log_bytes_peak")
	m["core.savepoints_per_agent"] = perAgent("savepoints")

	// ctl: the per-process split of cpu_ms_per_agent (trip-tcp only; an
	// in-process cluster is all "self", which cluster.cpu_ms_per_agent
	// already says).
	if len(in.cpuByProc) > 1 {
		m["ctl.cpu_ms_node_a"] = in.cpuByProc["A"]
		m["ctl.cpu_ms_node_b"] = in.cpuByProc["B"]
		m["ctl.cpu_ms_node_c"] = in.cpuByProc["C"]
		m["ctl.cpu_ms_self"] = in.cpuByProc["self"]
	}

	// Probes: public functions timed on inputs captured from the workload.
	enc, dec, size, err := probeCodec(in.containers)
	if err != nil {
		problems = append(problems, err.Error())
	}
	m["node.container_encode_us"], m["node.container_decode_us"], m["node.container_bytes"] = enc, dec, size
	if m["network.sim_hop_us"], err = probeSimHop(); err != nil {
		problems = append(problems, err.Error())
	}
	if m["network.tcp_hop_us"], err = probeTCPHop(); err != nil {
		problems = append(problems, err.Error())
	}
	return m, problems
}
