package repro_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/itinerary"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/stable"
	"repro/internal/stable/wal"
	"repro/internal/trace"
	"repro/internal/wire"
)

// The benchmarks regenerate one experiment per paper figure (see
// EXPERIMENTS.md). Cluster-based benchmarks build a fresh simulated
// cluster per iteration — that cost is part of the measured scenario and
// identical across compared variants, so relative comparisons (the
// paper's claims) are unaffected. Custom metrics report the counters the
// corresponding figure is about.

func runPipelineBench(b *testing.B, cfg experiments.PipelineConfig) {
	b.Helper()
	var transfers, transferKB, compTxns float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunPipeline(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Failed {
			b.Fatal(res.Reason)
		}
		transfers += float64(res.Metrics.AgentTransfers)
		transferKB += float64(res.Metrics.AgentTransferByte) / 1024
		compTxns += float64(res.Metrics.CompTxns)
	}
	b.ReportMetric(transfers/float64(b.N), "transfers/op")
	b.ReportMetric(transferKB/float64(b.N), "transferKB/op")
	b.ReportMetric(compTxns/float64(b.N), "comptxns/op")
}

// BenchmarkFig1StepExecution: forward execution cost vs agent payload
// (Figure 1 model).
func BenchmarkFig1StepExecution(b *testing.B) {
	for _, payload := range []int{0, 1 << 10, 16 << 10} {
		b.Run(fmt.Sprintf("payload=%d", payload), func(b *testing.B) {
			runPipelineBench(b, experiments.PipelineConfig{
				Nodes: 4, Steps: 8, PayloadBytes: payload,
			})
		})
	}
}

// BenchmarkFig2LogAppend: cost of appending one step's worth of log
// entries (Figure 2 structure).
func BenchmarkFig2LogAppend(b *testing.B) {
	for _, p := range []int{1, 16} {
		b.Run(fmt.Sprintf("oes=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var l core.Log
				l.Append(&core.BeginStepEntry{Node: "n", Seq: 0})
				for j := 0; j < p; j++ {
					l.Append(&core.OpEntry{
						Kind:   core.OpResource,
						Op:     "op",
						Params: core.NewParams().Set("amt", int64(j)),
					})
				}
				l.Append(&core.EndStepEntry{Node: "n", Seq: 0})
			}
		})
	}
}

// BenchmarkFig2LogEncode: gob encoding cost of the migrating log.
func BenchmarkFig2LogEncode(b *testing.B) {
	var l core.Log
	if err := l.AppendSavepoint("sp", nil, map[string][]byte{"v": make([]byte, 1024)}, core.StateLogging, true); err != nil {
		b.Fatal(err)
	}
	for s := 0; s < 16; s++ {
		l.Append(&core.BeginStepEntry{Node: "n", Seq: s})
		for j := 0; j < 4; j++ {
			l.Append(&core.OpEntry{Kind: core.OpResource, Op: "op", Params: core.NewParams().Set("amt", int64(j))})
		}
		l.Append(&core.EndStepEntry{Node: "n", Seq: s})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.EncodedSize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireCodec: one protocol message round-trip through the wire
// layer. "standalone" is the per-value API (pooled scratch buffers, fresh
// gob streams — used for containers and stable-store records).
func BenchmarkWireCodec(b *testing.B) {
	msg := &network.Message{From: "n1", To: "n2", Kind: "q.prepare", Payload: make([]byte, 1024)}
	b.Run("standalone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := wire.Encode(msg)
			if err != nil {
				b.Fatal(err)
			}
			var out network.Message
			if err := wire.Decode(data, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The PR-6 fast path: a hand-rolled length-prefixed binary codec for
	// the high-volume protocol messages. Round-trips a 1 KiB prepare in
	// a reused buffer; the decode's []byte fields alias the input.
	b.Run("binary", func(b *testing.B) {
		pm := &protocol.PrepareMsg{TxnID: "agent-42#7", EntryID: "agent-42", Data: make([]byte, 1024)}
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = pm.AppendTo(buf[:0])
			var out protocol.PrepareMsg
			if err := out.DecodeFrom(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary-ack", func(b *testing.B) {
		ack := &protocol.AckMsg{TxnID: "agent-42#7", OK: true}
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = ack.AppendTo(buf[:0])
			var out protocol.AckMsg
			if err := out.DecodeFrom(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTransitionToWire: the full cost of moving one protocol
// transition's outbound fan-out (a 1 KiB prepare, an outcome, a mark
// and a party's acknowledgement to one destination) from in-memory structs onto the
// simulated wire and back into typed events at the peer — encode,
// endpoint delivery, and the receiving dispatcher's payload decode, the
// path a node pair takes around every Machine.Step. Variants match the
// node configurations: legacy gob with one send per message, the binary
// codec with one send per message, and binary with per-destination
// coalescing (one mailbox hop for the whole transition — the PR-6 fast
// path).
func BenchmarkTransitionToWire(b *testing.B) {
	prep := &protocol.PrepareMsg{TxnID: "agent-42#7", EntryID: "agent-42", Data: make([]byte, 1024)}
	out := &protocol.StatusMsg{TxnID: "agent-42#7", Committed: true}
	mark := &protocol.MarkMsg{Mark: 7}
	ack := &protocol.AckMsg{TxnID: "agent-42#7", OK: true}

	run := func(b *testing.B, gob, batch, traced bool) {
		// traced replays the node instrumentation around this path: a
		// wire-send record per outgoing message, a wire-recv per decoded
		// one, and a batch-flush per coalesced delivery, against live
		// per-side rings stamped from the wall clock (the default
		// agentnode configuration). Untraced variants measure the same
		// code with a nil tracer — the nil-safe no-op the sites compile
		// to when tracing is off.
		var srcTr, dstTr *trace.Tracer
		if traced {
			now := func() int64 { return time.Now().UnixNano() }
			srcTr = trace.New("src", 0, now)
			dstTr = trace.New("dst", 0, now)
		}
		sim := network.NewSim(network.SimConfig{})
		src, err := sim.Endpoint("src")
		if err != nil {
			b.Fatal(err)
		}
		dst, err := sim.Endpoint("dst")
		if err != nil {
			b.Fatal(err)
		}
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for msg := range dst.Recv() {
				var v wire.BinaryMessage
				switch msg.Kind {
				case protocol.KindEnqueuePrepare:
					v = &protocol.PrepareMsg{}
				case protocol.KindOutcome:
					v = &protocol.StatusMsg{}
				case protocol.KindOutcomeAck:
					v = &protocol.AckMsg{}
				case protocol.KindResolved:
					v = &protocol.MarkMsg{}
				default:
					b.Errorf("unexpected kind %q", msg.Kind)
					return
				}
				if err := protocol.Decode(msg.Payload, v); err != nil {
					b.Error(err)
					return
				}
				dstTr.Rec(trace.OpWireRecv, "", "", msg.Kind, msg.From, "", int64(len(msg.Payload)))
			}
		}()
		encode := func(v any) []byte {
			if gob {
				d, err := wire.Encode(v)
				if err != nil {
					b.Fatal(err)
				}
				return d
			}
			return v.(wire.BinaryMessage).AppendTo(nil)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			msgs := []network.Outgoing{
				{Kind: protocol.KindEnqueuePrepare, Payload: encode(prep)},
				{Kind: protocol.KindOutcome, Payload: encode(out)},
				{Kind: protocol.KindResolved, Payload: encode(mark)},
				{Kind: protocol.KindOutcomeAck, Payload: encode(ack)},
			}
			if batch {
				if err := src.SendBatch("dst", msgs); err != nil {
					b.Fatal(err)
				}
				srcTr.Rec(trace.OpBatchFlush, "", "", "", "dst", "", int64(len(msgs)))
			} else {
				for _, m := range msgs {
					if err := src.Send("dst", m.Kind, m.Payload); err != nil {
						b.Fatal(err)
					}
				}
			}
			for _, m := range msgs {
				srcTr.Rec(trace.OpWireSend, "", "", m.Kind, "dst", "", int64(len(m.Payload)))
			}
		}
		b.StopTimer()
		sim.Close()
		<-drained
	}
	b.Run("gob", func(b *testing.B) { run(b, true, false, false) })
	b.Run("binary", func(b *testing.B) { run(b, false, false, false) })
	b.Run("binary-traced", func(b *testing.B) { run(b, false, false, true) })
	b.Run("binary-batch", func(b *testing.B) { run(b, false, true, false) })
	b.Run("binary-batch-traced", func(b *testing.B) { run(b, false, true, true) })
}

// BenchmarkStoreApplyDurable: concurrent step commits against the fully
// durable (fsync-on) WAL engine. Group commit coalesces concurrent
// callers into one record append and one fsync, so commits/op < 1 under
// contention.
func BenchmarkStoreApplyDurable(b *testing.B) {
	b.Run("wal", func(b *testing.B) {
		s, err := wal.Open(b.TempDir(), wal.Options{Sync: true})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		val := make([]byte, 512)
		b.SetParallelism(4) // ensure concurrent committers even on one core
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				key := fmt.Sprintf("k%d", i%64)
				if err := s.Apply(stable.Put(key, val), stable.Put(key+"/meta", val[:16])); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
		b.ReportMetric(float64(s.GroupCommits())/float64(b.N), "commits/op")
	})
}

// BenchmarkWALRecovery: time to reopen a WAL store (checkpoint load +
// bounded tail replay) after ~4k batches of churn, with and without a
// checkpoint — the §4.3 "agent still resides in the input queue" replay
// cost the checkpoints bound.
func BenchmarkWALRecovery(b *testing.B) {
	build := func(b *testing.B, checkpoint bool) string {
		dir := b.TempDir()
		s, err := wal.Open(dir, wal.Options{NoBackground: true})
		if err != nil {
			b.Fatal(err)
		}
		val := make([]byte, 256)
		for i := 0; i < 4096; i++ {
			if err := s.Apply(stable.Put(fmt.Sprintf("k%d", i%512), val)); err != nil {
				b.Fatal(err)
			}
		}
		if checkpoint {
			if err := s.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		return dir
	}
	for _, ckpt := range []bool{true, false} {
		name := "checkpointed"
		if !ckpt {
			name = "full-replay"
		}
		b.Run(name, func(b *testing.B) {
			dir := build(b, ckpt)
			var replayed float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := wal.Open(dir, wal.Options{NoBackground: true})
				if err != nil {
					b.Fatal(err)
				}
				replayed += float64(s.Recovery().BytesReplayed) / 1024
				b.StopTimer()
				_ = s.Close()
				b.StartTimer()
			}
			b.ReportMetric(replayed/float64(b.N), "replayedKiB/op")
		})
	}
}

// BenchmarkFig3Rollback: partial rollback cost vs rollback depth
// (Figures 3-4, basic algorithm).
func BenchmarkFig3Rollback(b *testing.B) {
	for _, steps := range []int{2, 8} {
		b.Run(fmt.Sprintf("steps=%d", steps), func(b *testing.B) {
			runPipelineBench(b, experiments.PipelineConfig{
				Nodes: 4, Steps: steps, Rollback: true,
			})
		})
	}
}

// BenchmarkFig4CrashRecovery: rollback with a crash/recovery cycle of one
// node mid-rollback (Figure 4 fault tolerance). The sleep is part of the
// scenario (node downtime).
func BenchmarkFig4CrashRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.PipelineConfig{Nodes: 4, Steps: 8, Rollback: true}
		cl, err := experiments.BuildPipelineCluster(cfg)
		if err != nil {
			b.Fatal(err)
		}
		go func() {
			deadline := time.Now().Add(30 * time.Second)
			for time.Now().Before(deadline) {
				if cl.Counters().Snapshot().CompTxns >= 1 {
					if err := cl.Crash("w2"); err == nil {
						time.Sleep(5 * time.Millisecond)
						_ = cl.Recover("w2")
					}
					return
				}
				time.Sleep(200 * time.Microsecond)
			}
		}()
		res, err := experiments.RunPipelineOn(cl, cfg, "bench-fig4")
		cl.Close()
		if err != nil {
			b.Fatal(err)
		}
		if res.Failed {
			b.Fatal(res.Reason)
		}
	}
}

// BenchmarkFig5RollbackAlgorithms: the paper's headline comparison —
// basic (Figure 4) vs optimized (Figure 5) rollback at representative
// mixed-compensation fractions.
func BenchmarkFig5RollbackAlgorithms(b *testing.B) {
	for _, frac := range []float64{0, 0.5, 1} {
		for _, optimized := range []bool{false, true} {
			name := fmt.Sprintf("mixed=%.2f/basic", frac)
			if optimized {
				name = fmt.Sprintf("mixed=%.2f/optimized", frac)
			}
			b.Run(name, func(b *testing.B) {
				runPipelineBench(b, experiments.PipelineConfig{
					Nodes: 5, Steps: 12,
					Mixed:     experiments.MixedFlags(12, frac),
					Optimized: optimized,
					Rollback:  true,
				})
			})
		}
	}
}

// BenchmarkFig6LogManagement: forward execution with flat per-step
// savepoints vs itinerary-managed savepoints; peakKB reports the largest
// migrating log (Figure 6, §4.4.2).
func BenchmarkFig6LogManagement(b *testing.B) {
	type variant struct {
		name  string
		group int
		spAll bool
		mode  core.LogMode
	}
	for _, v := range []variant{
		{"flat/state", 0, true, core.StateLogging},
		{"flat/transition", 0, true, core.TransitionLogging},
		{"hier/state", 6, false, core.StateLogging},
	} {
		b.Run(v.name, func(b *testing.B) {
			var peakKB float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunPipeline(experiments.PipelineConfig{
					Nodes: 4, Steps: 24,
					PayloadBytes:       512,
					LogMode:            v.mode,
					SavepointEveryStep: v.spAll,
					TopLevelGroup:      v.group,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Failed {
					b.Fatal(res.Reason)
				}
				peakKB += float64(res.Metrics.LogBytesPeak) / 1024
			}
			b.ReportMetric(peakKB/float64(b.N), "peakKB")
		})
	}
}

// BenchmarkTLogSavepoint: appending one savepoint under state vs
// transition logging (§4.2) for a 32 KiB SRO set with 25% churn.
func BenchmarkTLogSavepoint(b *testing.B) {
	for _, mode := range []core.LogMode{core.StateLogging, core.TransitionLogging} {
		name := "state"
		if mode == core.TransitionLogging {
			name = "transition"
		}
		b.Run(name, func(b *testing.B) {
			sro := make(map[string][]byte, 64)
			for i := 0; i < 64; i++ {
				sro[fmt.Sprintf("obj%02d", i)] = make([]byte, 512)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var l core.Log
				for sp := 0; sp < 4; sp++ {
					for j := 0; j < 16; j++ {
						buf := make([]byte, 512)
						buf[0] = byte(sp + 1)
						sro[fmt.Sprintf("obj%02d", (sp*16+j)%64)] = buf
					}
					if err := l.AppendSavepoint(fmt.Sprintf("sp%d", sp), nil, sro, mode, true); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkAnyOrderLocality: ablation for the partial-order extension
// (§4.4.2) — a sub-itinerary bouncing between two nodes, executed in the
// authored order vs the system-chosen locality order. The custom metric
// reports agent transfers saved.
func BenchmarkAnyOrderLocality(b *testing.B) {
	for _, anyOrder := range []bool{false, true} {
		name := "authored-order"
		if anyOrder {
			name = "locality-order"
		}
		b.Run(name, func(b *testing.B) {
			var transfers float64
			for i := 0; i < b.N; i++ {
				n := benchAnyOrderTransfers(b, anyOrder)
				transfers += float64(n)
			}
			b.ReportMetric(transfers/float64(b.N), "transfers/op")
		})
	}
}

func benchAnyOrderTransfers(b *testing.B, anyOrder bool) int64 {
	b.Helper()
	cl := cluster.New(cluster.Options{RetryDelay: 2 * time.Millisecond})
	defer cl.Close()
	for _, n := range []string{"n1", "n2"} {
		if err := cl.AddNode(n); err != nil {
			b.Fatal(err)
		}
	}
	if err := cl.Registry().RegisterStep("noop", func(agent.StepContext) error { return nil }); err != nil {
		b.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		b.Fatal(err)
	}
	entries := make([]itinerary.Entry, 0, 8)
	for i := 0; i < 8; i++ {
		entries = append(entries, itinerary.Step{Method: "noop", Loc: []string{"n2", "n1"}[i%2]})
	}
	it, err := itinerary.New(&itinerary.Sub{ID: "sweep", AnyOrder: anyOrder, Entries: entries})
	if err != nil {
		b.Fatal(err)
	}
	a, entered, err := agent.NewAt("bench-any", "", it, "n1")
	if err != nil {
		b.Fatal(err)
	}
	before := cl.Counters().Snapshot()
	res, err := cl.Run(a, entered, "n1", 30*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	if res.Failed {
		b.Fatal(res.Reason)
	}
	return cl.Counters().Snapshot().Sub(before).AgentTransfers
}

// BenchmarkEOSFlagAblation: the §4.4.1 design choice — deciding whether a
// step needs the agent via the EOS flag vs scanning the step's operation
// entries (DESIGN.md ablation 4).
func BenchmarkEOSFlagAblation(b *testing.B) {
	var l core.Log
	for s := 0; s < 32; s++ {
		l.Append(&core.BeginStepEntry{Node: "n", Seq: s})
		for j := 0; j < 8; j++ {
			l.Append(&core.OpEntry{Kind: core.OpResource, Op: "op", Params: core.NewParams()})
		}
		l.Append(&core.EndStepEntry{Node: "n", Seq: s, HasMixed: false})
	}
	b.Run("eos-flag", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eos, ok := l.Last().(*core.EndStepEntry)
			if !ok || eos.HasMixed {
				b.Fatal("unexpected log shape")
			}
		}
	})
	b.Run("scan-entries", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hasMixed := false
			for j := l.Len() - 2; j >= 0; j-- {
				op, ok := l.Entry(j).(*core.OpEntry)
				if !ok {
					break
				}
				if op.Kind == core.OpMixed {
					hasMixed = true
				}
			}
			if hasMixed {
				b.Fatal("unexpected mixed entry")
			}
		}
	})
}
