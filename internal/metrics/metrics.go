// Package metrics collects counters for the experiments in EXPERIMENTS.md.
//
// A single Counters value is shared by the network, the stable stores and
// the node runtimes of one cluster; all methods are safe for concurrent
// use, and a nil *Counters is "off": every method is a no-op on it (as on
// a nil *trace.Tracer), so callers bump without checking. Snapshots are
// plain structs so experiment harnesses can diff them.
//
// To add a counter: add one field, with its one-line description, to the
// fields struct, and add the method that bumps it. Counters.Snapshot,
// Snapshot.Sub, WritePrometheus (hence /metrics) and the benchmark's
// scrape of it are derived from that declaration and follow unedited.
package metrics

import (
	"maps"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// latRingSize bounds the step-latency reservoir: percentiles are computed
// over the most recent latRingSize observations.
const latRingSize = 8192

// fields is the single declaration of every counter. Counters holds it
// with live atomic cells and Snapshot is its plain-int64 copy, so the two
// cannot drift; field order is the sample order on /metrics. Fields are
// monotone counts unless isPeak says otherwise.
type fields[T any] struct {
	Messages          T // network messages delivered
	BytesSent         T // payload bytes put on the (simulated) wire
	AgentTransfers    T // agent containers moved to a *different* node
	AgentTransferByte T // encoded bytes of transferred agent containers
	StepTxns          T // committed step transactions
	StepTxnAborts     T // aborted step transactions
	CompTxns          T // committed compensation transactions
	CompTxnAborts     T // aborted compensation transactions
	CompOps           T // individual compensating operations executed
	RemoteCompBatches T // RCE lists shipped to a resource node (Fig. 5)
	Savepoints        T // savepoint entries written
	LogBytesPeak      T // largest encoded rollback log observed
	StableWrites      T // writes to stable storage
	StableBytes       T // bytes written to stable storage

	// Scheduler (internal/sched).
	SchedClaims          T // queue entries claimed by scheduler workers
	SchedClaimConflicts  T // dispatches reordered past a conflicting task
	SchedLockAborts      T // step attempts aborted on 2PL lock conflicts
	SchedRetries         T // retryable step attempt failures
	SchedInFlightPeak    T // peak concurrently executing steps
	SchedQueueDepthPeak  T // peak observed input-queue depth
	SchedWorkerBusyNanos T // cumulative worker time spent executing

	// Fault injection and mailboxes (internal/network.Sim).
	NetFaultDrops       T // messages dropped by injected link faults
	NetFaultDups        T // duplicate deliveries injected by link faults
	NetFaultReorders    T // messages delayed past later traffic (reorder faults)
	NetUnreachableDrops T // messages lost to partitions / crashed destinations
	MailboxDrops        T // messages dropped at a closed mailbox

	// Wire and coalescing: a batch is one write or mailbox hop carrying ≥1
	// frames. In Counters the two per-kind maps are guarded by wireMu.
	NetBatches      T                            // transport batches flushed (≥1 frames each)
	NetBatchedMsgs  T                            // messages carried inside those batches
	NetBatchSize    [len(BatchSizeBuckets) + 1]T // frames-per-batch histogram (see BatchSizeBuckets)
	WireBytesByKind map[string]int64             // payload bytes on the wire per message kind
	WireMsgsByKind  map[string]int64             // messages on the wire per message kind

	// Control-plane batching (internal/node's GC stager and ack piggybacking).
	DecisionBatches   T                            // control-plane GC group commits flushed
	DecisionOps       T                            // outcome/done GC ops carried inside those commits
	DecisionBatchSize [len(BatchSizeBuckets) + 1]T // ops-per-commit histogram (see BatchSizeBuckets)
	AckPiggybacked    T                            // acks and marks that rode an existing outbound batch

	// Protocol core (internal/protocol driven by internal/node).
	ProtocolTransitions T // protocol state-machine events processed
	TimersArmed         T // protocol timers armed on the wheel
	TimersFired         T // protocol timers that fired
	TimersCanceled      T // protocol timers canceled before firing

	// Membership and migration (internal/node's forward of a claimed,
	// misplaced ring step).
	MemberAnnounces T // membership announcements received over the wire
	RingChanges     T // local ring rebuilds after a view change
	Migrations      T // agents forwarded off this node to their ring owner
	MigrationBytes  T // encoded container bytes moved by migrations
	MigrationAborts T // migration hand-offs aborted (retried later)

	// WAL storage engine (internal/stable/wal).
	WALRotations      T // WAL segments sealed and rotated
	WALCompactions    T // cold segments compacted and deleted
	WALCompactedBytes T // garbage bytes reclaimed by compaction
	WALCheckpoints    T // index checkpoints persisted
	Fsyncs            T // fsync calls issued by stable storage
	FsyncNanos        T // cumulative time spent in fsync
}

// isPeak reports whether the named field is a high-water mark rather than
// a monotone count: Snapshot.Sub passes it through undifferenced and
// WritePrometheus exposes it as a gauge.
func isPeak(name string) bool { return strings.Contains(name, "Peak") }

// Counters accumulates event counts for one cluster run.
// The zero value is ready to use; a nil *Counters records nothing.
type Counters struct {
	live   fields[atomic.Int64]
	wireMu sync.Mutex // guards the per-kind maps in live

	inFlight atomic.Int64 // steps executing now: a level, so not in Snapshot

	latMu    sync.Mutex
	latCount int64
	latRing  []time.Duration
}

// Snapshot is a point-in-time copy of all counters.
type Snapshot fields[int64]

// on runs f unless c is nil. It is the one place where "a nil *Counters is
// off" is decided: every exported method does all its work inside on, so
// on a nil receiver it does nothing and returns zero values.
func (c *Counters) on(f func()) {
	if c != nil {
		f()
	}
}

// IncMessages records one delivered network message carrying n payload bytes.
func (c *Counters) IncMessages(n int64) {
	c.on(func() {
		c.live.Messages.Add(1)
		c.live.BytesSent.Add(n)
	})
}

// AddAgentTransfers records d agent containers of n encoded bytes each
// moving between two distinct nodes. A hand-off's source counts before
// its prepare leaves (the decider may make the agent visible at once)
// and takes the count back (d = -1) when the decider refused it or never
// saw it.
func (c *Counters) AddAgentTransfers(d, n int64) {
	c.on(func() {
		c.live.AgentTransfers.Add(d)
		c.live.AgentTransferByte.Add(d * n)
	})
}

// AddStepTxns records d committed step transactions (d = -1 takes back
// a refused hand-off's count, as AddAgentTransfers).
func (c *Counters) AddStepTxns(d int64) { c.on(func() { c.live.StepTxns.Add(d) }) }

// IncStepTxnAbort records an aborted step transaction.
func (c *Counters) IncStepTxnAbort() { c.on(func() { c.live.StepTxnAborts.Add(1) }) }

// AddCompTxns records d committed compensation transactions (d = -1
// takes back a refused hand-off's count, as AddAgentTransfers).
func (c *Counters) AddCompTxns(d int64) { c.on(func() { c.live.CompTxns.Add(d) }) }

// IncCompTxnAbort records an aborted compensation transaction.
func (c *Counters) IncCompTxnAbort() { c.on(func() { c.live.CompTxnAborts.Add(1) }) }

// IncCompOps records n executed compensating operations.
func (c *Counters) IncCompOps(n int64) { c.on(func() { c.live.CompOps.Add(n) }) }

// IncRemoteCompBatch records one RCE list shipped to a resource node.
func (c *Counters) IncRemoteCompBatch() { c.on(func() { c.live.RemoteCompBatches.Add(1) }) }

// IncSavepoints records one savepoint entry written to a rollback log.
func (c *Counters) IncSavepoints() { c.on(func() { c.live.Savepoints.Add(1) }) }

// ObserveLogBytes tracks the peak encoded size of a rollback log.
func (c *Counters) ObserveLogBytes(n int64) { c.on(func() { peakMax(&c.live.LogBytesPeak, n) }) }

// IncStableWrite records one stable-storage write of n bytes.
func (c *Counters) IncStableWrite(n int64) {
	c.on(func() {
		c.live.StableWrites.Add(1)
		c.live.StableBytes.Add(n)
	})
}

// IncSchedClaim records one claimed queue entry and the queue depth
// observed at claim time (peak-tracked).
func (c *Counters) IncSchedClaim(depth int64) {
	c.on(func() {
		c.live.SchedClaims.Add(1)
		peakMax(&c.live.SchedQueueDepthPeak, depth)
	})
}

// IncClaimConflict records one conflict-aware dispatch decision: a ready
// task was passed over because its resource set collided with running work.
func (c *Counters) IncClaimConflict() { c.on(func() { c.live.SchedClaimConflicts.Add(1) }) }

// IncLockConflictAbort records a step attempt aborted by a 2PL lock
// conflict between concurrent transactions.
func (c *Counters) IncLockConflictAbort() { c.on(func() { c.live.SchedLockAborts.Add(1) }) }

// IncSchedRetry records a retryable step attempt failure.
func (c *Counters) IncSchedRetry() { c.on(func() { c.live.SchedRetries.Add(1) }) }

// IncNetFaultDrop records one message dropped by an injected link fault.
func (c *Counters) IncNetFaultDrop() { c.on(func() { c.live.NetFaultDrops.Add(1) }) }

// IncNetFaultDup records one injected duplicate delivery.
func (c *Counters) IncNetFaultDup() { c.on(func() { c.live.NetFaultDups.Add(1) }) }

// IncNetFaultReorder records one message held back past later traffic.
func (c *Counters) IncNetFaultReorder() { c.on(func() { c.live.NetFaultReorders.Add(1) }) }

// IncNetUnreachableDrop records one message lost to a partitioned link or
// a crashed destination.
func (c *Counters) IncNetUnreachableDrop() { c.on(func() { c.live.NetUnreachableDrops.Add(1) }) }

// IncMailboxDrop records one message dropped at a closed mailbox.
func (c *Counters) IncMailboxDrop() { c.on(func() { c.live.MailboxDrops.Add(1) }) }

// BatchSizeBuckets holds the upper bounds of the frames-per-batch
// histogram cells; a batch of n frames lands in the first cell whose
// bound is ≥ n, and the histogram has one extra unbounded cell at the
// end for anything larger.
var BatchSizeBuckets = [...]int64{1, 2, 4, 8, 16, 32, 64}

// ObserveNetBatch records one transport batch carrying frames messages —
// one conn.Write on the TCP endpoint or one mailbox hop in the simulator.
func (c *Counters) ObserveNetBatch(frames int) {
	c.on(func() { observeBatch(frames, &c.live.NetBatches, &c.live.NetBatchedMsgs, &c.live.NetBatchSize) })
}

// ObserveDecisionBatch records one control-plane GC group commit
// carrying ops staged outcome-record and done-record drops.
func (c *Counters) ObserveDecisionBatch(ops int) {
	c.on(func() { observeBatch(ops, &c.live.DecisionBatches, &c.live.DecisionOps, &c.live.DecisionBatchSize) })
}

// observeBatch counts one batch of n > 0 items: the batch, its items, and
// the BatchSizeBuckets histogram cell n lands in.
func observeBatch(n int, batches, items *atomic.Int64, hist *[len(BatchSizeBuckets) + 1]atomic.Int64) {
	if n <= 0 {
		return
	}
	batches.Add(1)
	items.Add(int64(n))
	i := 0
	for i < len(BatchSizeBuckets) && int64(n) > BatchSizeBuckets[i] {
		i++
	}
	hist[i].Add(1)
}

// IncAckPiggybacked records n non-blocking replies that rode an outbound
// batch already headed to their peer instead of flushing their own frame.
func (c *Counters) IncAckPiggybacked(n int64) { c.on(func() { c.live.AckPiggybacked.Add(n) }) }

// AddWireBytes attributes one wire message of n payload bytes to its
// message kind (every transport calls it exactly once per message, so
// it also maintains the per-kind message counts).
func (c *Counters) AddWireBytes(kind string, n int64) {
	c.on(func() {
		c.wireMu.Lock()
		if c.live.WireBytesByKind == nil {
			c.live.WireBytesByKind = make(map[string]int64)
			c.live.WireMsgsByKind = make(map[string]int64)
		}
		c.live.WireBytesByKind[kind] += n
		c.live.WireMsgsByKind[kind]++
		c.wireMu.Unlock()
	})
}

// IncProtocolTransition records one event processed by a node's
// protocol state machine.
func (c *Counters) IncProtocolTransition() { c.on(func() { c.live.ProtocolTransitions.Add(1) }) }

// IncTimerArmed records one protocol timer armed (or re-armed) on a
// node's timer wheel.
func (c *Counters) IncTimerArmed() { c.on(func() { c.live.TimersArmed.Add(1) }) }

// IncTimerFired records one protocol timer firing.
func (c *Counters) IncTimerFired() { c.on(func() { c.live.TimersFired.Add(1) }) }

// IncTimerCanceled records one protocol timer canceled before firing.
func (c *Counters) IncTimerCanceled() { c.on(func() { c.live.TimersCanceled.Add(1) }) }

// IncMemberAnnounce records one membership announcement received.
func (c *Counters) IncMemberAnnounce() { c.on(func() { c.live.MemberAnnounces.Add(1) }) }

// IncRingChange records one local consistent-hash ring rebuild.
func (c *Counters) IncRingChange() { c.on(func() { c.live.RingChanges.Add(1) }) }

// AddMigrations records d agents migrated off this node, each a
// container of n encoded bytes handed to its new owner (d = -1 takes back
// a refused hand-off's count, as AddAgentTransfers).
func (c *Counters) AddMigrations(d, n int64) {
	c.on(func() {
		c.live.Migrations.Add(d)
		c.live.MigrationBytes.Add(d * n)
	})
}

// IncMigrationAbort records one migration hand-off that aborted (the
// worker retries it after the scheduler's cooldown).
func (c *Counters) IncMigrationAbort() { c.on(func() { c.live.MigrationAborts.Add(1) }) }

// IncWALRotation records one WAL segment sealed and a new one opened.
func (c *Counters) IncWALRotation() { c.on(func() { c.live.WALRotations.Add(1) }) }

// IncWALCompaction records one compacted segment and the garbage bytes it
// held (reclaimed disk space).
func (c *Counters) IncWALCompaction(reclaimed int64) {
	c.on(func() {
		c.live.WALCompactions.Add(1)
		c.live.WALCompactedBytes.Add(reclaimed)
	})
}

// IncWALCheckpoint records one persisted index checkpoint.
func (c *Counters) IncWALCheckpoint() { c.on(func() { c.live.WALCheckpoints.Add(1) }) }

// ObserveFsync records one fsync call and its duration.
func (c *Counters) ObserveFsync(d time.Duration) {
	c.on(func() {
		c.live.Fsyncs.Add(1)
		c.live.FsyncNanos.Add(int64(d))
	})
}

// StepStarted marks one step entering execution; it returns the current
// in-flight count. Pair with StepFinished.
func (c *Counters) StepStarted() (n int64) {
	c.on(func() {
		n = c.inFlight.Add(1)
		peakMax(&c.live.SchedInFlightPeak, n)
	})
	return n
}

// StepFinished marks one step leaving execution after busy time d,
// recording its latency for percentile reporting when ok.
func (c *Counters) StepFinished(d time.Duration, ok bool) {
	c.on(func() {
		c.inFlight.Add(-1)
		c.live.SchedWorkerBusyNanos.Add(int64(d))
		if !ok {
			return
		}
		c.latMu.Lock()
		if c.latRing == nil {
			c.latRing = make([]time.Duration, 0, latRingSize)
		}
		if len(c.latRing) < latRingSize {
			c.latRing = append(c.latRing, d)
		} else {
			c.latRing[c.latCount%latRingSize] = d
		}
		c.latCount++
		c.latMu.Unlock()
	})
}

// InFlight returns the number of steps currently executing.
func (c *Counters) InFlight() (n int64) {
	c.on(func() { n = c.inFlight.Load() })
	return n
}

// LatencyBuckets holds the upper bounds of the step-latency histogram
// cells; observations above the last bound land in the overflow cell.
var LatencyBuckets = [...]time.Duration{
	100 * time.Microsecond, 300 * time.Microsecond,
	time.Millisecond, 3 * time.Millisecond, 10 * time.Millisecond,
	30 * time.Millisecond, 100 * time.Millisecond, 300 * time.Millisecond,
	time.Second, 3 * time.Second,
}

// LatencySummary describes the distribution of the most recent
// successful step executions, computed from a bounded reservoir.
type LatencySummary struct {
	P50, P90, P99, P999 time.Duration
	Count               int64 // total observations, not bounded by the reservoir
	// Buckets is the reservoir histogram: cell i counts observations
	// ≤ LatencyBuckets[i]; the final cell is unbounded.
	Buckets [len(LatencyBuckets) + 1]int64
}

// StepLatency reports percentiles and a histogram of the most recent
// successful step executions (bounded reservoir) plus the total number
// observed.
func (c *Counters) StepLatency() (sum LatencySummary) {
	var buf []time.Duration
	c.on(func() {
		c.latMu.Lock()
		buf = append(buf, c.latRing...)
		sum.Count = c.latCount
		c.latMu.Unlock()
	})
	if len(buf) == 0 {
		return sum
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(buf)-1))
		return buf[i]
	}
	sum.P50, sum.P90, sum.P99, sum.P999 = pct(0.50), pct(0.90), pct(0.99), pct(0.999)
	// buf is sorted, so walk the bucket bounds in lockstep.
	b := 0
	for _, d := range buf {
		for b < len(LatencyBuckets) && d > LatencyBuckets[b] {
			b++
		}
		sum.Buckets[b]++
	}
	return sum
}

func peakMax(peak *atomic.Int64, n int64) {
	for {
		cur := peak.Load()
		if n <= cur || peak.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Snapshot returns a copy of the current counter values.
func (c *Counters) Snapshot() (s Snapshot) {
	c.on(func() {
		c.wireMu.Lock()
		defer c.wireMu.Unlock()
		src, dst := reflect.ValueOf(&c.live).Elem(), reflect.ValueOf(&s).Elem()
		for i := 0; i < src.NumField(); i++ {
			load(src.Field(i), dst.Field(i))
		}
	})
	return s
}

// load copies one live field of the declaration into its Snapshot twin:
// an atomic cell, an array of them, or a per-kind map (wireMu held).
func load(src, dst reflect.Value) {
	switch src.Kind() {
	case reflect.Struct:
		dst.SetInt(src.Addr().Interface().(*atomic.Int64).Load())
	case reflect.Array:
		for i := 0; i < src.Len(); i++ {
			load(src.Index(i), dst.Index(i))
		}
	case reflect.Map:
		// A live map is nil until its first entry, so an idle one snapshots as nil.
		dst.Set(reflect.ValueOf(maps.Clone(src.Interface().(map[string]int64))))
	}
}

// Sub returns the component-wise difference s - o; isPeak fields are not
// differential and keep s's value.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	d, ov := reflect.ValueOf(&s).Elem(), reflect.ValueOf(&o).Elem()
	for i := 0; i < d.NumField(); i++ {
		if !isPeak(d.Type().Field(i).Name) {
			sub(d.Field(i), ov.Field(i))
		}
	}
	return s
}

// sub replaces one Snapshot field d by d - o: a count, an array of them,
// or a per-kind map.
func sub(d, o reflect.Value) {
	switch d.Kind() {
	case reflect.Int64:
		d.SetInt(d.Int() - o.Int())
	case reflect.Array:
		for i := 0; i < d.Len(); i++ {
			sub(d.Index(i), o.Index(i))
		}
	case reflect.Map:
		d.Set(reflect.ValueOf(subKindMap(d.Interface().(map[string]int64), o.Interface().(map[string]int64))))
	}
}

// subKindMap returns the per-key difference s - o, dropping zero deltas
// and negating keys present only in o. Returns nil when every delta is
// zero (or both maps are empty) so that equal snapshots diff to the
// zero Snapshot.
func subKindMap(s, o map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(s))
	for k, v := range s {
		if d := v - o[k]; d != 0 {
			out[k] = d
		}
	}
	for k, v := range o {
		if _, ok := s[k]; !ok && v != 0 {
			out[k] = -v
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
